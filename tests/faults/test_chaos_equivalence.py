"""The chaotic determinism contract: faults don't break bit-identity.

A sharded study given a fixed :class:`FaultPlan` must merge to exactly
the sequential chaotic study — traces, traceroutes, and merged metrics
— because every fault is installed at epoch entry as a pure function
of ``(params, epoch index, plan)``.  And the chaos must be real: the
chaotic study has to differ from the unfaulted baseline.
"""

import pytest

from repro.faults import generate_fault_plan
from repro.study import Study

pytestmark = [pytest.mark.slow, pytest.mark.chaos]

SCALE = 0.02
SEED = 11
CHAOS_SEED = 3


@pytest.fixture(scope="module")
def fault_plan():
    from repro.scenario.internet import SyntheticInternet
    from repro.scenario.parameters import params_for_scale

    world = SyntheticInternet(params_for_scale(SCALE, SEED))
    return generate_fault_plan(world, profile="heavy", chaos_seed=CHAOS_SEED)


@pytest.fixture(scope="module")
def sequential_chaotic(fault_plan):
    return Study.run(
        scale=SCALE, seed=SEED, workers=0, faults=fault_plan, collect_metrics=True
    )


@pytest.fixture(scope="module")
def sharded_chaotic(fault_plan):
    return Study.run(
        scale=SCALE, seed=SEED, workers=4, faults=fault_plan, collect_metrics=True
    )


def _export_bytes(study, directory):
    study.save(directory)
    return {
        name: (directory / name).read_bytes()
        for name in (
            "summary.json",
            "traces.json",
            "traceroutes.json",
            "metrics.json",
        )
    }


def test_sharded_chaotic_run_bit_identical(
    sequential_chaotic, sharded_chaotic, tmp_path
):
    assert sharded_chaotic.report() == sequential_chaotic.report()
    assert _export_bytes(sharded_chaotic, tmp_path / "par") == _export_bytes(
        sequential_chaotic, tmp_path / "seq"
    )


def test_chaos_actually_perturbs_the_study(sequential_chaotic):
    baseline = Study.run(scale=SCALE, seed=SEED, workers=0)
    assert (
        sequential_chaotic.traces.to_dict() != baseline.traces.to_dict()
    ), "heavy chaos left every trace untouched"


def test_fault_metrics_merge_identically(sequential_chaotic, sharded_chaotic):
    seq = sequential_chaotic.metrics["counters"]
    par = sharded_chaotic.metrics["counters"]
    fault_counters = {k: v for k, v in seq.items() if k.startswith("faults.")}
    assert fault_counters, "chaotic run recorded no faults.* counters"
    assert fault_counters == {
        k: v for k, v in par.items() if k.startswith("faults.")
    }


def test_chaos_recorded_in_telemetry_and_manifest(
    sequential_chaotic, sharded_chaotic, fault_plan, tmp_path
):
    expected = fault_plan.summary()
    assert sequential_chaotic.telemetry.chaos == expected
    assert sharded_chaotic.telemetry.chaos == expected

    import json

    sequential_chaotic.save(tmp_path / "archive")
    manifest = json.loads((tmp_path / "archive" / "manifest.json").read_text())
    assert manifest["chaos"] == expected
    telemetry = json.loads((tmp_path / "archive" / "telemetry.json").read_text())
    assert telemetry["chaos"] == expected

    # The manifest caveat does not depend on metrics collection.
    unobserved = Study.run(
        scale=SCALE, seed=SEED, traceroutes=False, faults=fault_plan
    )
    assert unobserved.telemetry is None
    unobserved.save(tmp_path / "unobserved")
    manifest = json.loads((tmp_path / "unobserved" / "manifest.json").read_text())
    assert manifest["chaos"] == expected


def test_profile_name_accepted_directly():
    study = Study.run(
        scale=SCALE,
        seed=SEED,
        workers=0,
        traceroutes=False,
        faults="reroute",
        chaos_seed=CHAOS_SEED,
        collect_metrics=True,
    )
    counters = study.metrics["counters"]
    assert counters.get("faults.router_blackhole", 0) > 0
