"""Unit tests for the hierarchical span recorder and its exports."""

import json
import os

import pytest

from repro.obs import (
    DETAIL_EPOCH,
    DETAIL_PROBE,
    ROOT_SPAN_ID,
    SpanRecorder,
    assemble_study_spans,
    canonical_spans,
    chrome_trace_events,
    export_chrome_trace,
    span_children,
    span_id,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def recorder(clock=None, detail=DETAIL_EPOCH, shard_id=0, flight=None):
    return SpanRecorder(
        clock=clock or FakeClock(),
        detail=detail,
        shard_id=shard_id,
        flight=flight,
    )


class TestSpanIds:
    def test_ids_derive_from_shard_and_sequence(self):
        assert span_id(3, 7) == "s3.7"

    def test_sequence_counters_are_per_shard(self):
        # One recorder per shard execution: each numbers its own spans.
        other = recorder(shard_id=1)
        with other.span("trace", "elsewhere"):
            pass
        rec = recorder(shard_id=3)
        with rec.span("trace", "t0"):
            with rec.span("probe", "p"):
                pass
        with rec.span("trace", "t1"):
            pass
        spans = rec.export()
        # The shard span is seq 0; every later span continues from 1.
        assert [s["id"] for s in spans] == [
            ROOT_SPAN_ID, "s3.0", "s3.1", "s3.2", "s3.3"
        ]
        shard = spans[1]
        assert (shard["kind"], shard["name"]) == ("shard", "shard-3")
        assert shard["attrs"] == {"shard_id": 3}
        assert spans[3]["parent"] == "s3.1"
        assert spans[4]["parent"] == "s3.0"
        assert [s["id"] for s in other.shard_export()] == ["s1.0", "s1.1"]

    def test_shard_export_is_the_subtree_without_root(self):
        rec = recorder(shard_id=5)
        with rec.span("trace", "t"):
            pass
        assert [s["id"] for s in rec.shard_export()] == ["s5.0", "s5.1"]


class TestRecording:
    def test_nesting_and_sim_times(self):
        clock = FakeClock(10.0)
        rec = recorder(clock=clock)
        with rec.span("trace", "outer"):
            clock.now = 12.0
            with rec.span("probe", "inner"):
                clock.now = 15.0
            clock.now = 20.0
        spans = rec.export()
        outer = next(s for s in spans if s["name"] == "outer")
        inner = next(s for s in spans if s["name"] == "inner")
        assert (outer["sim_start"], outer["sim_end"]) == (10.0, 20.0)
        assert (inner["sim_start"], inner["sim_end"]) == (12.0, 15.0)
        assert inner["parent"] == outer["id"]

    def test_events_attach_to_innermost_span(self):
        rec = recorder()
        with rec.span("trace", "t"):
            rec.event("fault", kind="link_flap")
        span = next(s for s in rec.export() if s["name"] == "t")
        assert span["events"][0]["name"] == "fault"
        assert span["events"][0]["attrs"] == {"kind": "link_flap"}

    def test_orphan_events_flush_into_next_span(self):
        """Fault installation runs between epochs; its event must land
        in the epoch it impairs, not vanish."""
        rec = recorder()
        rec.event("fault", kind="bleach_on")
        with rec.span("trace", "next-epoch"):
            pass
        span = next(s for s in rec.export() if s["name"] == "next-epoch")
        assert [e["name"] for e in span["events"]] == ["fault"]

    def test_annotate_merges_into_open_span(self):
        rec = recorder()
        with rec.span("probe", "p"):
            rec.annotate(udp_plain=True)
        span = next(s for s in rec.export() if s["name"] == "p")
        assert span["attrs"]["udp_plain"] is True

    def test_detail_levels_are_validated(self):
        with pytest.raises(ValueError, match="unknown span detail"):
            SpanRecorder(detail="nanosecond")
        assert recorder(detail=DETAIL_PROBE).detail == DETAIL_PROBE


class TestAssembly:
    def test_shard_interval_synthesized_from_children(self):
        clock = FakeClock(5.0)
        rec = recorder(clock=clock)
        with rec.span("trace", "a"):
            clock.now = 9.0
        clock.now = 30.0
        with rec.span("trace", "b"):
            clock.now = 42.0
        shard = rec.export()[1]
        assert shard["kind"] == "shard"
        assert (shard["sim_start"], shard["sim_end"]) == (5.0, 42.0)

    def test_root_spans_the_whole_study(self):
        rec = recorder(clock=FakeClock(7.0))
        with rec.span("trace", "t"):
            pass
        root = rec.export()[0]
        assert root["id"] == ROOT_SPAN_ID
        assert root["parent"] is None
        assert root["kind"] == "study"

    def test_assemble_orders_shards_by_id(self):
        exports = {
            2: [{"id": "s2.0", "parent": ROOT_SPAN_ID, "kind": "shard",
                 "name": "shard-2", "sim_start": 2.0, "sim_end": 3.0,
                 "wall_ms": 1.0}],
            0: [{"id": "s0.0", "parent": ROOT_SPAN_ID, "kind": "shard",
                 "name": "shard-0", "sim_start": 0.0, "sim_end": 1.0,
                 "wall_ms": 1.0}],
        }
        spans = assemble_study_spans(exports)
        assert [s["id"] for s in spans] == [ROOT_SPAN_ID, "s0.0", "s2.0"]

    def test_assemble_empty_exports(self):
        spans = assemble_study_spans({})
        assert len(spans) == 1 and spans[0]["id"] == ROOT_SPAN_ID

    def test_canonical_strips_wall_clock_only(self):
        rec = recorder()
        with rec.span("trace", "t", vantage="v"):
            pass
        canonical = canonical_spans(rec.export())
        assert all("wall_ms" not in s for s in canonical)
        assert canonical[2]["attrs"] == {"vantage": "v"}

    def test_span_children_indexes_by_parent(self):
        rec = recorder()
        with rec.span("trace", "t"):
            with rec.span("probe", "p"):
                pass
        index = span_children(rec.export())
        assert [s["name"] for s in index[None]] == ["study"]
        assert [s["name"] for s in index["s0.1"]] == ["p"]


class TestChromeTrace:
    def trace_spans(self):
        clock = FakeClock(1.0)
        rec = recorder(clock=clock)
        with rec.span("trace", "t0", vantage="v"):
            rec.event("fault", kind="link_flap")
            clock.now = 2.5
        return rec.export()

    def test_events_follow_the_trace_event_schema(self):
        events = chrome_trace_events(self.trace_spans())
        for event in events:
            assert event["ph"] in ("X", "M", "i")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
                assert "ts" in event and "name" in event
            if event["ph"] == "i":
                assert event["s"] in ("g", "p", "t")

    def test_shards_map_to_processes(self):
        events = chrome_trace_events(self.trace_spans())
        names = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert names == {"study", "shard 0"}

    def test_sim_seconds_export_as_microseconds(self):
        events = chrome_trace_events(self.trace_spans())
        t0 = next(e for e in events if e.get("name") == "t0" and e["ph"] == "X")
        assert t0["ts"] == pytest.approx(1.0e6)
        assert t0["dur"] == pytest.approx(1.5e6)

    def test_failed_export_leaves_previous_trace_intact(self, tmp_path, monkeypatch):
        # trace.json is written like every other artefact: to a temp
        # file moved into place, so a reader never sees a partial file.
        path = tmp_path / "trace.json"
        path.write_text("previous")
        spans = [{"id": ROOT_SPAN_ID, "parent": None, "kind": "study",
                  "name": "study", "sim_start": 0.0, "sim_end": 1.0,
                  "wall_ms": 0.0}]

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            export_chrome_trace(spans, path)
        assert path.read_text() == "previous"
        assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]

    def test_export_writes_a_loadable_document(self, tmp_path):
        path = tmp_path / "trace.json"
        export_chrome_trace(self.trace_spans(), path)
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert isinstance(document["traceEvents"], list)
        assert document["traceEvents"]
