"""RunOptions: one validated, JSON-round-tripping value per study."""

import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.profiles import PROFILES
from repro.options import OptionsError, RunOptions
from repro.runner import worker
from repro.scenario.internet import SyntheticInternet
from repro.scenario.timeline import EpochDrift
from repro.study import Study

finite = st.floats(allow_nan=False, allow_infinity=False)

drifts = st.builds(
    EpochDrift,
    year=finite,
    bleacher_scale=finite,
    blackhole_scale=finite,
    negotiate_rate=finite,
    churn_scale=finite,
    world_seed=st.none() | st.integers(),
)

options = st.builds(
    RunOptions,
    scale=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    seed=st.integers(),
    traceroutes=st.booleans(),
    quic=st.booleans(),
    faults=st.none() | st.sampled_from(sorted(PROFILES)),
    chaos_seed=st.integers(),
    drift=st.none() | drifts,
    collect_metrics=st.booleans(),
    record_spans=st.sampled_from([None, False, True, "epoch", "probe"]),
    collect_events=st.booleans(),
    trace_filter=st.none()
    | st.sampled_from(["udp", "udp and ect0", "tcp or icmp", "udp and dst 10.3.0.7"]),
)


@settings(max_examples=200, deadline=None)
@given(options)
def test_round_trips_through_json(value):
    document = json.dumps(value.to_dict())
    assert RunOptions.from_dict(json.loads(document)) == value
    assert pickle.loads(pickle.dumps(value)) == value
    assert hash(dataclasses.replace(value)) == hash(value)


class TestValues:
    def test_defaults_serialise_to_nothing(self):
        assert RunOptions().to_dict() == {}
        assert RunOptions.from_dict({}) == RunOptions()

    def test_record_spans_normalised(self):
        assert RunOptions(record_spans=True).record_spans == "epoch"
        assert RunOptions(record_spans=False).record_spans is None
        assert RunOptions(record_spans="probe").record_spans == "probe"

    def test_scale_normalised_to_float(self):
        scale = RunOptions(scale=1).scale
        assert scale == 1.0 and isinstance(scale, float)

    @pytest.mark.parametrize(
        "fields",
        [
            {"scale": 0},
            {"scale": 3.0},
            {"scale": -0.5},
            {"scale": float("nan")},
            {"scale": "0.1"},
            {"scale": True},
            {"seed": 1.5},
            {"seed": True},
            {"seed": "7"},
            {"chaos_seed": True},
            {"traceroutes": "no"},
            {"quic": "false"},
            {"quic": 1},
            {"collect_metrics": None},
            {"collect_events": 0},
            {"faults": "no-such"},
            {"faults": 7},
            {"record_spans": "bogus"},
            {"trace_filter": ""},
            {"trace_filter": "udp and"},
            {"trace_filter": 5},
            {"drift": {"year": 2020.0}},
        ],
    )
    def test_bad_values_raise_the_options_error(self, fields):
        with pytest.raises(OptionsError):
            RunOptions(**fields)

    def test_from_dict_rejects_unknown_and_malformed(self):
        with pytest.raises(OptionsError, match="unknown option"):
            RunOptions.from_dict({"scle": 0.1})
        with pytest.raises(OptionsError):
            RunOptions.from_dict(["scale"])
        with pytest.raises(OptionsError):
            RunOptions.from_dict({"drift": {"no-year": 1}})

    def test_options_error_is_a_value_error(self):
        assert issubclass(OptionsError, ValueError)


class TestStudyRunValidatesFirst:
    """Bad options fail before any world is built or discovered."""

    @pytest.fixture
    def no_world_builds(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a world was built for invalid options")

        monkeypatch.setattr(SyntheticInternet, "__init__", refuse)

    def test_out_of_range_scale(self, no_world_builds):
        with pytest.raises(OptionsError, match="scale"):
            Study.run(scale=3.0)

    def test_unknown_span_detail(self, no_world_builds):
        with pytest.raises(OptionsError, match="span detail"):
            Study.run(scale=0.02, record_spans="bogus")

    def test_fields_override_the_options_value(self, no_world_builds):
        with pytest.raises(OptionsError, match="chaos profile"):
            Study.run(RunOptions(scale=0.02), faults="no-such")

    def test_unknown_field_is_a_type_error(self, no_world_builds):
        with pytest.raises(TypeError):
            Study.run(scale=0.02, bogus=True)


def test_world_cache_key_ignores_probe_and_observability_options(monkeypatch):
    monkeypatch.setattr(worker, "_WORLD_CACHE", {})
    plain = RunOptions(scale=0.01, seed=3)
    observed = dataclasses.replace(
        plain, quic=True, collect_metrics=True, record_spans=True, collect_events=True
    )
    assert worker._world_for(plain, None) is worker._world_for(observed, None)
    assert list(worker._WORLD_CACHE) == [(0.01, 3, None, None)]
