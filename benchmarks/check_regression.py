"""Benchmark regression gate: fail CI when the pipeline gets slower.

Compares a fresh ``pytest --benchmark-json`` run of the gated
benchmarks (``test_headline_scalars``, ``test_runner_speedup``)
against the committed ``BENCH_baseline.json`` and exits non-zero when
any benchmark slowed down by more than the threshold (default 20 %).

Raw wall-clock comparisons across machines are meaningless, so both
the baseline and the check normalise by a **calibration workload**: a
fixed pure-Python loop (dict churn + RNG draws, the same operations
that dominate the simulator) timed on the same interpreter and
machine.  What is compared is the ratio ``benchmark_seconds /
calibration_seconds`` — "how many calibration units does this
benchmark cost" — which is stable across hardware generations to well
within the 20 % budget.

Usage::

    # run the gated benchmarks
    pytest benchmarks/test_headline_scalars.py benchmarks/test_runner_speedup.py \
        --benchmark-json=bench.json

    # gate (CI)
    python benchmarks/check_regression.py --current bench.json

    # refresh the committed baseline (after a deliberate perf change)
    python benchmarks/check_regression.py --current bench.json --update

Every ``--update`` also appends one JSON line to ``BENCH_history.jsonl``
beside the baseline: each benchmark's previous and new calibration
units plus both calibration times, so the ledger keeps its trajectory
instead of only its latest state.

The gate is two-sided.  A benchmark that got more than 30 % *faster*
than the baseline also fails ("stale baseline"): large unratcheted
improvements leave headroom in which real regressions hide — a 2×
speedup followed by a 1.5× slowdown still reads "ok" against the old
number.  After a deliberate perf change, re-ratchet with ``--update``
and commit the new ``BENCH_baseline.json``.

Environment: ``ECNUDP_BENCH_TOLERANCE`` overrides the slowdown factor
(e.g. ``1.5`` on noisy shared runners); ``ECNUDP_BENCH_STALE_TOLERANCE``
overrides the improvement factor that trips the staleness check
(default ``0.70`` = 30 % faster).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"
#: One JSON line per ``--update`` ratchet, kept beside the baseline.
HISTORY_NAME = "BENCH_history.jsonl"
DEFAULT_TOLERANCE = 1.20
DEFAULT_STALE_TOLERANCE = 0.70
CALIBRATION_ROUNDS = 5


def calibration_seconds() -> float:
    """Time the fixed calibration workload (best of several rounds).

    Best-of is deliberate: scheduling noise only ever makes a round
    slower, so the minimum is the least noisy estimate of the machine's
    actual speed.
    """
    best = float("inf")
    for _ in range(CALIBRATION_ROUNDS):
        started = time.perf_counter()
        _calibration_workload()
        best = min(best, time.perf_counter() - started)
    return best


def _calibration_workload() -> int:
    # Mirrors the simulator's hot loop profile: RNG draws, small-int
    # arithmetic, dict writes.  Must never change once baselined —
    # treat it like a wire format.
    rng = random.Random(20150401)
    table: dict[int, int] = {}
    acc = 0
    for index in range(400_000):
        value = rng.random()
        acc += int(value * 4096)
        table[index & 2047] = acc
    return acc


def extract_benchmarks(document: dict) -> dict[str, float]:
    """Map benchmark name -> mean seconds from a pytest-benchmark JSON."""
    results = {}
    for entry in document.get("benchmarks", []):
        results[entry["name"]] = float(entry["stats"]["mean"])
    return results


def check(
    current: dict[str, float],
    calibration: float,
    baseline: dict,
    tolerance: float,
    stale_tolerance: float = DEFAULT_STALE_TOLERANCE,
) -> tuple[list[str], list[list[str]]]:
    """Gate the current run; returns ``(failures, table rows)``.

    Failures empty = gate passes.  The rows are the per-benchmark
    deltas (name, baseline units, current units, ratio, verdict) that
    feed both the stdout log and the CI step summary.
    """
    failures = []
    rows: list[list[str]] = []
    base_cal = float(baseline["calibration_seconds"])
    base_marks = baseline["benchmarks"]
    for name, base_seconds in base_marks.items():
        if name not in current:
            failures.append(f"benchmark {name!r} missing from current run")
            rows.append([name, "-", "-", "-", "MISSING"])
            continue
        base_units = float(base_seconds) / base_cal
        now_units = current[name] / calibration
        ratio = now_units / base_units if base_units > 0 else float("inf")
        if ratio > tolerance:
            verdict = "REGRESSION"
        elif ratio < stale_tolerance:
            verdict = "STALE BASELINE"
        else:
            verdict = "ok"
        rows.append(
            [name, f"{base_units:.1f}", f"{now_units:.1f}", f"x{ratio:.2f}", verdict]
        )
        print(
            f"{name}: baseline {base_units:8.1f} units, "
            f"current {now_units:8.1f} units "
            f"(x{ratio:.2f}, budget x{tolerance:.2f}) {verdict}"
        )
        if ratio > tolerance:
            failures.append(
                f"{name} slowed down x{ratio:.2f} "
                f"(budget x{tolerance:.2f})"
            )
        elif ratio < stale_tolerance:
            failures.append(
                f"{name} sped up x{1 / ratio:.2f} but the baseline was not "
                f"ratcheted — rerun with --update and commit "
                f"BENCH_baseline.json so future regressions can't hide "
                f"in the headroom"
            )
    for name in sorted(set(current) - set(base_marks)):
        print(f"{name}: not in baseline (informational only)")
        rows.append(
            [name, "-", f"{current[name] / calibration:.1f}", "-", "new (no baseline)"]
        )
    return failures, rows


def write_step_summary(title: str, headers: list[str], rows: list[list[str]]) -> None:
    """Append a markdown table to the CI job's step summary, if any.

    ``$GITHUB_STEP_SUMMARY`` is the Actions-provided path; locally the
    variable is unset and this is a no-op, keeping stdout the single
    source of truth outside CI.
    """
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path or not rows:
        return
    lines = [
        f"### {title}",
        "",
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    with open(summary_path, "a") as handle:
        handle.write("\n".join(lines) + "\n")


def write_baseline(
    path: Path, current: dict[str, float], calibration: float
) -> None:
    document = {
        "format": 1,
        "calibration_seconds": calibration,
        "benchmarks": {name: current[name] for name in sorted(current)},
    }
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"baseline written to {path}")


def append_history(
    path: Path,
    previous: dict | None,
    current: dict[str, float],
    calibration: float,
) -> None:
    """Append one ratchet record to the history at ``path``.

    ``previous`` is the baseline document being replaced (``None`` for
    the first ratchet).  A benchmark new to the baseline has a
    ``previous`` of ``None``.
    """
    base_cal = float(previous["calibration_seconds"]) if previous else None
    base_marks = previous["benchmarks"] if previous else {}
    record = {
        "format": 1,
        "calibration_seconds": {"previous": base_cal, "new": calibration},
        "benchmarks": {
            name: {
                "previous": (
                    round(float(base_marks[name]) / base_cal, 2)
                    if name in base_marks
                    else None
                ),
                "new": round(current[name] / calibration, 2),
            }
            for name in sorted(current)
        },
    }
    with path.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"ratchet appended to {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current",
        required=True,
        help="pytest-benchmark JSON from the fresh run",
    )
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="committed baseline (default: BENCH_baseline.json at repo root)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(
            os.environ.get("ECNUDP_BENCH_TOLERANCE", DEFAULT_TOLERANCE)
        ),
        help="max allowed slowdown factor (default 1.20 = +20%%)",
    )
    parser.add_argument(
        "--stale-tolerance",
        type=float,
        default=float(
            os.environ.get("ECNUDP_BENCH_STALE_TOLERANCE", DEFAULT_STALE_TOLERANCE)
        ),
        help=(
            "fail when a benchmark runs below this fraction of baseline "
            "without a ratchet (default 0.70 = 30%% faster)"
        ),
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help=(
            "rewrite the baseline from the current run, and append the "
            "ratchet to BENCH_history.jsonl beside it, instead of gating"
        ),
    )
    args = parser.parse_args(argv)

    current = extract_benchmarks(json.loads(Path(args.current).read_text()))
    if not current:
        print("no benchmarks found in the current run", file=sys.stderr)
        return 2
    calibration = calibration_seconds()
    print(f"calibration: {calibration * 1000:.1f} ms/round on this machine")

    baseline_path = Path(args.baseline)
    if args.update:
        previous = (
            json.loads(baseline_path.read_text()) if baseline_path.exists() else None
        )
        write_baseline(baseline_path, current, calibration)
        append_history(
            baseline_path.with_name(HISTORY_NAME), previous, current, calibration
        )
        return 0
    if not baseline_path.exists():
        print(f"baseline {baseline_path} missing; run with --update", file=sys.stderr)
        return 2
    failures, rows = check(
        current,
        calibration,
        json.loads(baseline_path.read_text()),
        args.tolerance,
        args.stale_tolerance,
    )
    write_step_summary(
        "Benchmark regression gate "
        f"(budget x{args.tolerance:.2f}, stale below x{args.stale_tolerance:.2f})",
        ["benchmark", "baseline (units)", "current (units)", "ratio", "verdict"],
        rows,
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("benchmark gate: no regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
