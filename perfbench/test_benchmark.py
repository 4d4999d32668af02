"""The benchmark's exact-count metrics repeat exactly across runs.

Later changes may rest a claim on a count only if the counter is named
and stable, so every count the traced run reports must come out the
same on two runs of one seed, and be non-zero wherever its layer runs.

Run from the root of a checkout (about five minutes on two cores)::

    python3 -m pytest perfbench/test_benchmark.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
from layers import END_TO_END, PER_LAYER  # noqa: E402

COUNTS = (
    "probe.udp-plain.calls",
    "probe.udp-ect.calls",
    "probe.tcp-plain.calls",
    "probe.tcp-ecn.calls",
    "probe.quic.calls",
    "probe.udp.attempts_per_call",
    "traceroute.calls",
    "netsim.events",
    "netsim.packets_sent",
    "obs.spans",
    "obs.events",
    "runner.retries",
)
#: Counts that must be non-zero because their layer runs there.
RUNS_IN = {
    "study-seq": ("probe.udp-plain.calls", "traceroute.calls", "netsim.events",
                  "netsim.packets_sent"),
    "study-observed": ("probe.quic.calls", "traceroute.calls", "netsim.events",
                       "obs.spans", "obs.events"),
    "serve-open": ("probe.tcp-ecn.calls", "traceroute.calls"),
    "campaign-drift": ("probe.udp-ect.calls", "traceroute.calls", "netsim.events"),
}


def test_benchmark_json_matches_catalogue():
    described = json.loads((ROOT / "BENCHMARK.json").read_text())

    def listed(key):
        return [(m["name"], m["unit"], m["better"]) for m in described[key]]

    assert listed("end_to_end") == list(END_TO_END)
    assert listed("per_layer") == list(PER_LAYER)


def traced_run(workload: str, seed: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, completed.stderr
    return {name: entry["value"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(RUNS_IN))
def test_counts_repeat_exactly(workload):
    first = traced_run(workload, seed=5)
    second = traced_run(workload, seed=5)
    for name in COUNTS:
        assert first[name] == second[name], name
    for name in RUNS_IN[workload]:
        assert first[name] > 0, name
