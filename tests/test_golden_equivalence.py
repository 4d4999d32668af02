"""Bit-identity gate for the packet hot path.

``tests/data/golden_study_*.json`` are full study archives captured
from the tree *before* the hot-path overhaul (slotted packets,
in-place TTL/ECN mutation, per-epoch route tables, inlined samplers,
int TCP flags).  A study run today must reproduce them byte for byte
— any divergence means an RNG draw was added/removed/reordered or a
wire byte changed, which silently invalidates every published number.

The archives are canonical JSON (sorted keys, compact separators) of
``{"traces": ..., "campaign": ...}`` at scale 0.02, seed 20150401.
"""

import json
from pathlib import Path

import pytest

from repro.study import Study

DATA = Path(__file__).parent / "data"

GOLDENS = [
    pytest.param(
        "golden_study_scale002_seed20150401.json",
        {},
        id="plain",
    ),
    pytest.param(
        "golden_study_scale002_seed20150401_chaos_default_7.json",
        {"faults": "default", "chaos_seed": 7},
        id="chaos",
    ),
]


@pytest.mark.parametrize("filename, extra", GOLDENS)
def test_study_reproduces_pre_refactor_golden(filename, extra):
    golden_blob = (DATA / filename).read_bytes()
    study = Study.run(scale=0.02, seed=20150401, **extra)
    doc = {"traces": study.traces.to_dict(), "campaign": study.campaign.to_dict()}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    if blob != golden_blob:
        golden_doc = json.loads(golden_blob)
        # Narrow the failure before asserting on the full blobs: which
        # top-level section diverged, and for traces, which path.
        for key in ("campaign", "traces"):
            assert doc[key] == golden_doc[key], f"{key} diverged from golden"
        raise AssertionError("archives differ despite equal sections")


#: Exact simulated work of the plain golden study, named as perfbench
#: names it: ``netsim.events`` is the engine's dispatched events and
#: ``netsim.packets_sent`` the TCP + UDP packets hosts put on the wire.
#: Both are pure functions of (code, scale, seed), so host speed cannot
#: move them; a change that adds or removes simulated work must update
#: them on purpose.
GOLDEN_WORK = {"netsim.events": 82_030, "netsim.packets_sent": 61_879}


def test_golden_study_work_counts():
    study = Study.run(scale=0.02, seed=20150401, workers=0, collect_metrics=True)
    counters = study.metrics["counters"]
    work = {
        "netsim.events": counters["engine.dispatched"],
        "netsim.packets_sent": counters["host.tx.tcp"] + counters["host.tx.udp"],
    }
    assert work == GOLDEN_WORK
