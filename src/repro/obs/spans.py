"""Hierarchical spans: the causal timeline of a campaign.

Where :mod:`repro.obs.metrics` answers *how much* happened and
:mod:`repro.obs.telemetry` answers *how long the run took*, spans
answer *when and where inside the campaign* things happened: the
study decomposes into shards, shards into measurement epochs (one
trace or one traceroute sweep), epochs into per-server probes, probes
into protocol phases.  Every span carries two clocks:

* **simulated time** (``sim_start`` / ``sim_end``) — read from the
  event engine's clock, which :meth:`SyntheticInternet.begin_epoch`
  resets to a pure function of the epoch index.  Simulated times are
  therefore *deterministic*: identical between ``workers=0`` and
  ``workers=N`` for the same ``(scale, seed, chaos_seed)``.
* **wall-clock time** (``wall_ms``) — how long this process really
  spent inside the span.  Wall times are facts about one run and are
  excluded from the determinism contract (strip them with
  :func:`canonical_spans` before comparing trees).

One :class:`SpanRecorder` observes one shard execution and is given
the shard id at construction.  Span identifiers are derived from
``(shard_id, sequence counter)``: the ``n``-th span recorded while
executing shard ``k`` is ``s<k>.<n>`` whichever process runs the
shard.  That is what makes the merged span forest bit-identical (in
canonical form) for every worker count — the property
``tests/obs/test_span_equivalence.py`` enforces.

The assembled span list exports to Chrome Trace Event Format
(:func:`export_chrome_trace`), loadable in Perfetto or
``chrome://tracing``: shards map to processes, the simulated clock is
the timeline, and wall-clock attribution rides in ``args``.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable, Mapping

from ..ioutil import atomic_write_text

#: Span detail levels, coarse to fine.
DETAIL_EPOCH = "epoch"  # study / shard / trace / sweep
DETAIL_PROBE = "probe"  # ... plus per-server probes and protocol phases

#: Identifier of the synthetic study root span.
ROOT_SPAN_ID = "root"

#: Wall-clock fields excluded from the determinism contract.
_WALL_FIELDS = ("wall_ms",)


def span_id(shard_id: int, seq: int) -> str:
    """Deterministic span identifier: ``s<shard>.<seq>``."""
    return f"s{shard_id}.{seq}"


class Span:
    """One open or closed span (mutable while open)."""

    __slots__ = (
        "id",
        "parent",
        "kind",
        "name",
        "sim_start",
        "sim_end",
        "attrs",
        "events",
        "_wall_start",
        "_wall_ms",
    )

    def __init__(
        self,
        id: str,
        parent: str | None,
        kind: str,
        name: str,
        sim_start: float,
        attrs: dict | None = None,
    ) -> None:
        self.id = id
        self.parent = parent
        self.kind = kind
        self.name = name
        self.sim_start = sim_start
        self.sim_end = sim_start
        self.attrs = attrs or {}
        self.events: list[dict] = []
        self._wall_start = perf_counter()
        self._wall_ms = 0.0

    def close(self, sim_now: float) -> None:
        self.sim_end = sim_now
        self._wall_ms += (perf_counter() - self._wall_start) * 1000.0

    def add_event(self, name: str, sim_time: float, attrs: Mapping | None = None) -> None:
        event: dict = {"name": name, "sim_time": sim_time}
        if attrs:
            event["attrs"] = dict(attrs)
        self.events.append(event)

    def to_dict(self) -> dict:
        """JSON-safe export (wall-clock rounded to microseconds)."""
        document: dict = {
            "id": self.id,
            "parent": self.parent,
            "kind": self.kind,
            "name": self.name,
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
            "wall_ms": round(self._wall_ms, 3),
        }
        if self.attrs:
            document["attrs"] = self.attrs
        if self.events:
            document["events"] = self.events
        return document


class SpanRecorder:
    """Records the span tree of one shard execution.

    ``shard_id`` is the shard being executed: the recorder opens that
    shard's span (seq 0) up front and numbers every later span from
    it, so identical work mints identical ``(shard_id, seq)``
    identifiers in any process.

    Truthiness-gated like :class:`~repro.obs.metrics.MetricsRegistry`:
    instrumented call sites pay one predicate when no recorder is
    installed.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        detail: str = DETAIL_EPOCH,
        shard_id: int = 0,
        flight=None,
    ) -> None:
        if detail not in (DETAIL_EPOCH, DETAIL_PROBE):
            raise ValueError(f"unknown span detail level: {detail!r}")
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.detail = detail
        self.shard_id = shard_id
        self._flight = flight
        shard_span = Span(
            id=span_id(shard_id, 0),
            parent=ROOT_SPAN_ID,
            kind="shard",
            name=f"shard-{shard_id}",
            sim_start=0.0,
            attrs={"shard_id": shard_id},
        )
        #: Every span of the shard in recording order, shard span first;
        #: a span's seq is its index here.
        self._spans: list[Span] = [shard_span]
        #: Open spans below the shard span, innermost last.
        self._stack: list[Span] = []
        #: Events recorded while no span is open (fault installation
        #: runs inside ``begin_epoch``, before the epoch span opens);
        #: flushed into the next span that opens.
        self._pending_events: list[tuple[str, float, dict | None]] = []
        if flight:
            flight.record("span-open", id=shard_span.id, kind="shard", name=shard_span.name)

    def __bool__(self) -> bool:
        return True

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulated clock spans read their sim times from."""
        self._clock = clock

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, kind: str, name: str, **attrs):
        """Open a child span of the innermost open span (or the shard)."""
        parent = self._stack[-1] if self._stack else self._spans[0]
        span = Span(
            id=span_id(self.shard_id, len(self._spans)),
            parent=parent.id,
            kind=kind,
            name=name,
            sim_start=self._clock(),
            attrs=dict(attrs) if attrs else None,
        )
        for event_name, sim_time, event_attrs in self._pending_events:
            span.add_event(event_name, sim_time, event_attrs)
        self._pending_events.clear()
        self._spans.append(span)
        self._stack.append(span)
        if self._flight:
            self._flight.record("span-open", id=span.id, kind=kind, name=name)
        try:
            yield span
        finally:
            span.close(self._clock())
            self._stack.pop()
            if self._flight:
                self._flight.record(
                    "span-close", id=span.id, name=name, sim_end=span.sim_end
                )

    def event(self, name: str, **attrs) -> None:
        """Attach a point event to the innermost open span.

        Events recorded between spans (fault installation during
        ``begin_epoch``) are buffered and flushed into the next span
        that opens — the epoch they impair.
        """
        sim_time = self._clock()
        if self._stack:
            self._stack[-1].add_event(name, sim_time, attrs or None)
        else:
            self._pending_events.append((name, sim_time, dict(attrs) if attrs else None))
        if self._flight:
            self._flight.record("span-event", name=name, attrs=dict(attrs))

    def annotate(self, **attrs) -> None:
        """Merge attributes into the innermost open span."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def shard_export(self) -> list[dict]:
        """The shard's span subtree (shard span first), JSON-safe.

        The shard span's simulated interval is synthesized from its
        children, so recording order cannot define it.
        """
        shard_span, *children = self._spans
        shard_span._wall_ms = sum(s._wall_ms for s in children)
        if children:
            shard_span.sim_start = min(s.sim_start for s in children)
            shard_span.sim_end = max(s.sim_end for s in children)
        return [span.to_dict() for span in self._spans]

    def export(self) -> list[dict]:
        """The full study span list (root first) of this recorder."""
        return assemble_study_spans({self.shard_id: self.shard_export()})


# ----------------------------------------------------------------------
# Assembly and comparison
# ----------------------------------------------------------------------
def assemble_study_spans(by_shard: Mapping[int, list[dict]]) -> list[dict]:
    """Merge per-shard span subtrees under a synthetic study root.

    This is the single assembly path shared by one recorder's
    :meth:`SpanRecorder.export` and the runner's merge of shipped
    subtrees, so both produce structurally identical documents by
    construction: spans sorted by ``(shard_id, seq)``, root first.
    """
    spans: list[dict] = []
    for shard_id in sorted(by_shard):
        spans.extend(by_shard[shard_id])
    root: dict = {
        "id": ROOT_SPAN_ID,
        "parent": None,
        "kind": "study",
        "name": "study",
        "sim_start": min((s["sim_start"] for s in spans), default=0.0),
        "sim_end": max((s["sim_end"] for s in spans), default=0.0),
        "wall_ms": round(
            sum(s["wall_ms"] for s in spans if s["kind"] == "shard"), 3
        ),
    }
    return [root] + spans


def canonical_spans(spans: Iterable[Mapping]) -> list[dict]:
    """The deterministic projection of a span list.

    Strips wall-clock fields — facts about one run — leaving exactly
    the fields the sharded-equals-sequential contract covers.
    """
    canonical = []
    for span in spans:
        entry = {k: v for k, v in span.items() if k not in _WALL_FIELDS}
        canonical.append(entry)
    return canonical


def span_children(spans: Iterable[Mapping]) -> dict[str | None, list[dict]]:
    """Index a span list by parent id (document order preserved)."""
    children: dict[str | None, list[dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent"), []).append(dict(span))
    return children


# ----------------------------------------------------------------------
# Chrome Trace Event Format export
# ----------------------------------------------------------------------
def chrome_trace_events(spans: Iterable[Mapping]) -> list[dict]:
    """Span list -> Chrome Trace Event Format event list.

    Shards become processes (``pid`` = shard id + 1, the study root is
    pid 0), the simulated clock is the timeline (µs), and point events
    become instant events.  Wall-clock attribution rides in ``args``.
    """
    events: list[dict] = []
    named_pids: set[int] = set()
    for span in spans:
        if span["kind"] == "study":
            pid = 0
        else:
            shard = int(span["id"][1:].split(".", 1)[0])
            pid = shard + 1
        if pid not in named_pids:
            named_pids.add(pid)
            label = "study" if pid == 0 else f"shard {pid - 1}"
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": label},
                }
            )
        args = dict(span.get("attrs", {}))
        args["wall_ms"] = span.get("wall_ms", 0.0)
        ts = span["sim_start"] * 1e6
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": 0,
                "ts": ts,
                "dur": max((span["sim_end"] - span["sim_start"]) * 1e6, 0.0),
                "name": span["name"],
                "cat": span["kind"],
                "args": args,
            }
        )
        for event in span.get("events", ()):
            events.append(
                {
                    "ph": "i",
                    "s": "p",
                    "pid": pid,
                    "tid": 0,
                    "ts": event["sim_time"] * 1e6,
                    "name": event["name"],
                    "cat": "event",
                    "args": dict(event.get("attrs", {})),
                }
            )
    return events


def export_chrome_trace(spans: Iterable[Mapping], path) -> dict:
    """Write ``trace.json`` (Chrome Trace Event Format) atomically; returns it.

    Load the file in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing`` to browse the campaign timeline.
    """
    import json

    document = {
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated", "generator": "repro.obs.spans"},
        "traceEvents": chrome_trace_events(spans),
    }
    atomic_write_text(path, json.dumps(document, indent=1))
    return document
