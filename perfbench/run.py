"""Run one benchmark workload and print its result as the last line.

Usage::

    python3 perfbench/run.py --workload study-seq --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a traced run.
The line before the result restates the workload's figures under their
workload-specific names (``study_s``, ``epoch_s``,
``serve_latency_p50_s`` ...) together with the machine context (nproc,
Python, calibration loop).
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import os
import shutil
import sys

from common import RUN_ROOT, bootstrap, context, emit, reap_children

WORKLOADS = {
    "study-seq": "wl_study",
    "study-observed": "wl_study",
    "serve-open": "wl_serve",
    "campaign-drift": "wl_campaign",
}
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants (a server's forkserver outlives the
    server), so the run can stop and wait for every process it caused."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    bootstrap()
    from layers import context_values, end_to_end, filled

    become_subreaper()
    run_dir = RUN_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    traced = bool(args.trace)
    try:
        module = importlib.import_module(WORKLOADS[args.workload])
        result = module.run(args.workload, args.seed, args.seconds, traced, run_dir)
    finally:
        reap_children()
    ctx = context()
    named = " ".join(
        f"{name}={value:.6g}" if isinstance(value, float) else f"{name}={value}"
        for name, value in result["named"].items()
    )
    print(
        f"perfbench {args.workload} seed={args.seed}: {named} | nproc={ctx['nproc']} "
        f"python={ctx['python']} calibration_s={ctx['calibration_s']:.6f}",
        flush=True,
    )
    if traced:
        metrics = filled({**result["layers"], **context_values(ctx)})
        keep = run_dir / "spans.jsonl"
        if keep.exists():
            print(f"perfbench: spans written to {keep}", file=sys.stderr)
        for path in run_dir.iterdir():
            if path != keep:
                shutil.rmtree(path) if path.is_dir() else path.unlink()
    else:
        metrics = end_to_end(result["e2e"])
        shutil.rmtree(run_dir, ignore_errors=True)
    emit(result["failed"] == 0, result["attempted"], result["failed"], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
