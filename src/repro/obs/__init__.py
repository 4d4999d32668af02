"""repro.obs — the simulation observability layer.

Three cooperating pieces, all disabled by default and cheap when off:

* :class:`MetricsRegistry` — deterministic named counters and
  high-water gauges, updated by routers, queues, middleboxes, hosts,
  the event engine and the runner.  Shard snapshots merge
  bit-identically regardless of completion order
  (:func:`merge_snapshots`).
* :class:`PathTracer` — opt-in per-packet causality log: the ordered
  ``(hop, action, ECN before/after)`` sequence of every packet
  matching a filter (:func:`parse_filter` compiles the CLI's
  tcpdump-flavoured expressions).
* :class:`RunTelemetry` — per-shard timing, retry counts and the
  merged metric snapshot for one campaign execution, exported next to
  the archival JSON and rendered by ``ecnudp metrics``.

Instrumented call sites are truthiness-gated (``if metrics: ...``); a
disabled recorder is simply ``None``, so with observability off every
hot path pays one predicate and the archival output stays
byte-identical to an uninstrumented build; see DESIGN.md's
observability section for the overhead contract.

Every shard execution gets fresh recorders — a
:class:`MetricsRegistry`, a :class:`SpanRecorder` and an
:class:`EventLog` — that observe that shard alone.  The span recorder
and the event log are given the shard id at construction, so every
span id and event ``seq`` a shard mints is a pure function of its
work, whichever process runs it.
"""

from __future__ import annotations

from .flight import DEFAULT_CAPACITY, FlightRecorder, load_flight_dump
from .events import (
    DEFAULT_EVENT_CAPACITY,
    EVENTS_FORMAT,
    LEVELS,
    EventLog,
    assemble_study_events,
    canonical_events,
    level_rank,
    parse_events_jsonl,
    render_events_jsonl,
)
from .metrics import (
    DURATION_BOUNDS,
    RTT_BOUNDS,
    MetricsRegistry,
    empty_snapshot,
    histogram_sum,
    merge_snapshots,
    proto_name,
)
from .prom import (
    METRIC_PREFIX,
    PROM_CONTENT_TYPE,
    ExpositionError,
    metric_name,
    render_histogram_rows,
    render_prometheus,
    validate_exposition,
)
from .spans import (
    DETAIL_EPOCH,
    DETAIL_PROBE,
    ROOT_SPAN_ID,
    Span,
    SpanRecorder,
    assemble_study_spans,
    canonical_spans,
    chrome_trace_events,
    export_chrome_trace,
    span_children,
    span_id,
)
from .report import (
    RunArtifacts,
    dashboard_sections,
    load_run_artifacts,
    render_dashboard_html,
    render_dashboard_markdown,
    write_dashboard,
)
from .tracing import (
    FilterError,
    PathEvent,
    PathTracer,
    group_flows,
    parse_filter,
)
from .telemetry import RunTelemetry, ShardRecord, render_metrics_report

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_EVENT_CAPACITY",
    "DETAIL_EPOCH",
    "DETAIL_PROBE",
    "DURATION_BOUNDS",
    "EVENTS_FORMAT",
    "EventLog",
    "ExpositionError",
    "FilterError",
    "FlightRecorder",
    "LEVELS",
    "METRIC_PREFIX",
    "MetricsRegistry",
    "PROM_CONTENT_TYPE",
    "PathEvent",
    "PathTracer",
    "ROOT_SPAN_ID",
    "RTT_BOUNDS",
    "RunArtifacts",
    "RunTelemetry",
    "ShardRecord",
    "Span",
    "SpanRecorder",
    "assemble_study_events",
    "assemble_study_spans",
    "canonical_events",
    "canonical_spans",
    "chrome_trace_events",
    "dashboard_sections",
    "empty_snapshot",
    "export_chrome_trace",
    "group_flows",
    "histogram_sum",
    "level_rank",
    "load_flight_dump",
    "load_run_artifacts",
    "merge_snapshots",
    "metric_name",
    "parse_events_jsonl",
    "parse_filter",
    "proto_name",
    "render_dashboard_html",
    "render_dashboard_markdown",
    "render_events_jsonl",
    "render_histogram_rows",
    "render_metrics_report",
    "render_prometheus",
    "span_children",
    "span_id",
    "validate_exposition",
    "write_dashboard",
]
