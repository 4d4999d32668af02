"""Unit tests: shard planning, the wire codec, and merge."""

import pytest

from repro.core.measurement import trace_plan
from repro.core.traces import HopObservation, PathTrace, ProbeOutcome, Trace
from repro.obs import (
    EventLog,
    MetricsRegistry,
    PathTracer,
    SpanRecorder,
    assemble_study_events,
    assemble_study_spans,
    canonical_events,
    merge_snapshots,
)
from repro.runner import (
    KIND_TRACEROUTES,
    KIND_TRACES,
    MergeError,
    WIRE_FORMAT,
    by_shard,
    decode_path,
    decode_trace,
    encode_path,
    encode_trace,
    merge_campaign,
    merge_packet_traces,
    merge_traces,
    plan_shards,
)
from repro.scenario.parameters import TraceScheduleParams
from repro.scenario.vantages import VANTAGES


class TestPlanShards:
    def test_trace_shards_partition_the_plan(self):
        schedule = TraceScheduleParams()
        plan = trace_plan(schedule)
        shards = [
            s for s in plan_shards(schedule) if s.kind == KIND_TRACES
        ]
        covered = [tid for shard in shards for tid in shard.trace_ids]
        assert sorted(covered) == [p.trace_id for p in plan]
        assert len(covered) == len(set(covered))

    def test_shards_are_single_vantage_batch_slices(self):
        schedule = TraceScheduleParams()
        by_id = {p.trace_id: p for p in trace_plan(schedule)}
        for shard in plan_shards(schedule):
            if shard.kind != KIND_TRACES:
                continue
            for tid in shard.trace_ids:
                assert by_id[tid].vantage_key == shard.vantage_key
                assert by_id[tid].batch == shard.batch

    def test_one_traceroute_shard_per_vantage(self):
        shards = plan_shards(TraceScheduleParams())
        sweep = [s for s in shards if s.kind == KIND_TRACEROUTES]
        assert [s.vantage_key for s in sweep] == [spec.key for spec in VANTAGES]

    def test_traceroutes_flag_off(self):
        shards = plan_shards(TraceScheduleParams(), traceroutes=False)
        assert all(s.kind == KIND_TRACES for s in shards)

    def test_shard_ids_unique_and_sequential(self):
        shards = plan_shards(TraceScheduleParams())
        assert [s.shard_id for s in shards] == list(range(len(shards)))

    def test_planned_traces_rehydrate(self):
        shard = next(
            s for s in plan_shards(TraceScheduleParams()) if s.kind == KIND_TRACES
        )
        planned = shard.planned_traces()
        assert [p.trace_id for p in planned] == list(shard.trace_ids)
        assert all(p.vantage_key == shard.vantage_key for p in planned)

    def test_units(self):
        shards = plan_shards(TraceScheduleParams())
        traces = next(s for s in shards if s.kind == KIND_TRACES)
        sweep = next(s for s in shards if s.kind == KIND_TRACEROUTES)
        assert traces.units(40) == len(traces.trace_ids)
        assert sweep.units(40) == 40


def _sample_trace(trace_id: int = 3) -> Trace:
    trace = Trace(
        trace_id=trace_id, vantage_key="ugla-wired", batch=2, started_at=12.5
    )
    trace.add(
        ProbeOutcome(
            server_addr=1234,
            udp_plain=True,
            udp_ect=False,
            udp_plain_attempts=2,
            udp_ect_attempts=5,
            tcp_plain=True,
            tcp_ecn=True,
            ecn_negotiated=True,
            http_status=200,
        )
    )
    trace.add(ProbeOutcome(server_addr=5678))
    return trace


def _sample_path(vantage_key: str = "ugla-wired") -> PathTrace:
    return PathTrace(
        vantage_key=vantage_key,
        dst_addr=99,
        sent_ecn=1,
        reached_destination=True,
        hops=[
            HopObservation(
                ttl=1,
                responder=42,
                sent_ecn=1,
                quoted_ecn=1,
                rtt=0.013,
                quoted_tos=4,
                quoted_ident=7,
            ),
            HopObservation(ttl=2, responder=None, sent_ecn=1, quoted_ecn=None),
        ],
    )


class TestCodec:
    def test_trace_roundtrip(self):
        trace = _sample_trace()
        decoded = decode_trace(encode_trace(trace))
        assert decoded == trace

    def test_path_roundtrip_keeps_optional_hop_fields(self):
        # rtt / quoted_tos / quoted_ident are dropped by the archival
        # JSON format but must survive the shard wire format: the CLI
        # and tracebox analyses read them from in-memory objects.
        path = _sample_path()
        decoded = decode_path(encode_path(path))
        assert decoded == path
        assert decoded.hops[0].rtt == pytest.approx(0.013)
        assert decoded.hops[0].quoted_tos == 4
        assert decoded.hops[0].quoted_ident == 7


class TestMerge:
    def _result(self, traces=(), paths=None, fmt=WIRE_FORMAT):
        result = {"format": fmt, "shard_id": 0, "kind": KIND_TRACES}
        result["traces"] = [encode_trace(t) for t in traces]
        if paths is not None:
            result["kind"] = KIND_TRACEROUTES
            del result["traces"]
            result["paths"] = [encode_path(p) for p in paths]
        return result

    def test_traces_sorted_by_id(self):
        merged = merge_traces(
            [
                self._result(traces=[_sample_trace(5)]),
                self._result(traces=[_sample_trace(1), _sample_trace(3)]),
            ],
            server_addrs=[1234, 5678],
            description="d",
        )
        assert [t.trace_id for t in merged] == [1, 3, 5]
        assert merged.server_addrs == [1234, 5678]
        assert merged.description == "d"

    def test_duplicate_trace_ids_collapse(self):
        # A retried shard whose first result also arrived: both copies
        # are bit-identical by the epoch contract, keep exactly one.
        merged = merge_traces(
            [
                self._result(traces=[_sample_trace(2)]),
                self._result(traces=[_sample_trace(2)]),
            ],
            server_addrs=[],
            description="",
        )
        assert len(merged) == 1

    def test_campaign_follows_vantage_order(self):
        merged = merge_campaign(
            [
                self._result(paths=[_sample_path("b")]),
                self._result(paths=[_sample_path("a")]),
            ],
            vantage_order=["a", "b"],
        )
        assert [p.vantage_key for p in merged] == ["a", "b"]

    def test_unknown_wire_format_rejected(self):
        with pytest.raises(MergeError):
            merge_traces(
                [self._result(fmt="bogus/9")], server_addrs=[], description=""
            )
        with pytest.raises(MergeError):
            merge_campaign([self._result(fmt="bogus/9")], vantage_order=[])


def _observed_result(shard_id: int) -> dict:
    """A shard result carrying every per-shard observability payload."""
    metrics = MetricsRegistry()
    metrics.incr("app.traces_run")
    spans = SpanRecorder(shard_id=shard_id)
    with spans.span("trace", f"trace-{shard_id}"):
        pass
    events = EventLog(stamp_wall=False, shard=shard_id)
    events.emit("epoch-start", "debug", epoch=shard_id)
    packet = [float(shard_id), 1, 2, 17, shard_id, "r1", "forward", 2, 2]
    return {
        "format": WIRE_FORMAT,
        "shard_id": shard_id,
        "kind": KIND_TRACES,
        "metrics": metrics.snapshot(),
        "spans": spans.shard_export(),
        "events": events.export(),
        "packets": {"events": [packet], "dropped": 1},
    }


class TestByShardMerge:
    """The one by-shard merge behind metrics, spans, events and packets."""

    def _results(self):
        # Shuffled completion order, and shard 1 delivered twice — what
        # a gang recovery racing a slow first attempt produces.
        return [_observed_result(shard_id) for shard_id in (2, 1, 0, 1)]

    def test_first_copy_per_shard_in_shard_id_order(self):
        results = self._results()
        results[3] = dict(results[3], metrics={"counters": {"late": 1}, "gauges": {}})
        merged = by_shard(results, "metrics")
        assert list(merged) == [0, 1, 2]
        assert merged[1] == results[1]["metrics"]

    def test_results_without_the_key_are_skipped(self):
        results = self._results()
        del results[0]["spans"]
        assert list(by_shard(results, "spans")) == [0, 1]

    def test_unknown_wire_format_rejected(self):
        with pytest.raises(MergeError):
            by_shard([dict(_observed_result(0), format="bogus/9")], "metrics")

    def test_metrics_count_a_duplicated_shard_once(self):
        merged = merge_snapshots(by_shard(self._results(), "metrics").values())
        assert merged["counters"]["app.traces_run"] == 3

    def test_spans_count_a_duplicated_shard_once(self):
        spans = assemble_study_spans(by_shard(self._results(), "spans"))
        assert [s["id"] for s in spans] == [
            "root", "s0.0", "s0.1", "s1.0", "s1.1", "s2.0", "s2.1"
        ]

    def test_events_count_a_duplicated_shard_once(self):
        events = canonical_events(
            assemble_study_events(by_shard(self._results(), "events"))
        )
        assert [(e["shard"], e["seq"], e["epoch"]) for e in events] == [
            (0, 0, 0),
            (1, 0, 1),
            (2, 0, 2),
        ]

    def test_packet_trace_counts_a_duplicated_shard_once(self):
        tracer = PathTracer(match="udp")
        merge_packet_traces(self._results(), tracer)
        assert [event.ident for event in tracer.events] == [0, 1, 2]
        assert tracer.dropped == 3

    def test_packet_limit_applies_after_the_merge(self):
        tracer = PathTracer(match="udp", limit=2)
        merge_packet_traces(self._results(), tracer)
        assert [event.ident for event in tracer.events] == [0, 1]
        assert tracer.dropped == 4
