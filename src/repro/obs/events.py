"""Structured, leveled, rate-limited event log.

The live counterpart of the archival observability layers: while
metrics/spans describe a finished run, the event log is the stream a
running system narrates itself through — shard lifecycle from the
runner, admissions and rejections from the serve layer, injected chaos
from the fault injector, epoch publishes from the campaign driver, and
SLO breaches from the campaign watchdog.

Design constraints, in the order they shaped the module:

* **Deterministic where it must be.**  Worker-shard events participate
  in the same contract as metrics and spans: a ``workers=4`` study's
  merged event list must be byte-identical to ``workers=0``.  So each
  event carries a per-log monotonic ``seq``, merge order is ``(shard,
  seq)``, rate limiting is a pure function of the emission sequence
  (a per-kind cap, not a wall-clock token bucket), and the wall-clock
  stamp is quarantined in one field (``wall``) that
  :func:`canonical_events` strips — exactly the
  :data:`~repro.obs.spans._WALL_FIELDS` discipline.
* **Cheap when off.**  No log is installed (``None``) and every
  emission site is truthiness-gated (``if events: events.emit(...)``).
* **Bounded everywhere.**  The buffer is a ring: old events fall off
  the front, ``seq`` keeps rising, and :meth:`EventLog.since` exposes
  the since-cursor window ``GET /events`` serves.

Correlation model: an :class:`EventLog` is constructed with (or later
:meth:`~EventLog.bind`-s) context fields — ``run_id``, ``tenant``,
``shard``, ``epoch`` — that are folded into every event it emits.

Shard attribution: one log observes one shard execution and is given
the shard id at construction (``EventLog(stamp_wall=False,
shard=k)``), so its ``seq`` numbers restart at 0 for every shard and
every event's ``(shard, seq)`` is the same in whichever process runs
the shard — which is what makes the merged stream byte-identical for
any ``workers`` value.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Iterable, Mapping

#: Document format tag for events.jsonl exports and flight tails.
EVENTS_FORMAT = "ecn-udp-events/1"

#: Severity levels, least to most severe.
LEVELS = ("debug", "info", "warning", "alert")

_LEVEL_RANK = {name: rank for rank, name in enumerate(LEVELS)}

#: Default ring capacity: enough for a full chaos-heavy study's shard
#: lifecycle plus fault events, small enough to stay cheap to merge.
DEFAULT_EVENT_CAPACITY = 4096

#: Default per-kind emission cap (the deterministic rate limit): after
#: this many events of one kind, further ones are counted, not stored.
DEFAULT_KIND_LIMIT = 512

#: Fields whose values depend on the wall clock, stripped from the
#: canonical (determinism-checked) form.
_WALL_FIELDS = ("wall",)


def level_rank(level: str) -> int:
    """Numeric severity of ``level``; raises on unknown names."""
    try:
        return _LEVEL_RANK[level]
    except KeyError:
        known = ", ".join(LEVELS)
        raise ValueError(f"unknown event level {level!r}; one of: {known}") from None


class EventLog:
    """A bounded, leveled, deterministically rate-limited event buffer."""

    __slots__ = (
        "capacity",
        "kind_limit",
        "_min_rank",
        "_context",
        "_events",
        "_first_index_pos",
        "_pos",
        "_kind_counts",
        "_dropped",
        "_lock",
        "_stamp_wall",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_EVENT_CAPACITY,
        min_level: str = "debug",
        kind_limit: int = DEFAULT_KIND_LIMIT,
        stamp_wall: bool = True,
        **context,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0: {capacity!r}")
        if kind_limit <= 0:
            raise ValueError(f"kind_limit must be > 0: {kind_limit!r}")
        self.capacity = capacity
        self.kind_limit = kind_limit
        self._min_rank = level_rank(min_level)
        self._context = {k: v for k, v in context.items() if v is not None}
        self._events: list[dict] = []
        self._first_index_pos = 0  # stream position of self._events[0]
        self._pos = 0  # stream position: the next event's seq
        self._kind_counts: dict[str, int] = {}
        self._dropped: dict[str, int] = {}
        self._lock = threading.Lock()
        #: Worker-shard logs set this False: their events must be a
        #: pure function of the shard, and the wall stamp is the one
        #: field that is not.  (Canonicalisation strips it anyway;
        #: leaving it off keeps the wire payload honest about it.)
        self._stamp_wall = stamp_wall

    def __bool__(self) -> bool:
        return True

    def bind(self, **context) -> None:
        """Fold more correlation fields into every future event."""
        with self._lock:
            self._context.update(
                {k: v for k, v in context.items() if v is not None}
            )

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, kind: str, level: str = "info", /, **fields) -> dict | None:
        """Record one event; returns it, or ``None`` if filtered.

        ``kind`` is the event's stable machine name (``shard-retry``,
        ``serve-submit``, ``fault``, ...); ``fields`` are its payload.
        Payload fields never override the envelope (``seq``, ``kind``,
        ``level``) or bound context — the envelope wins, matching the
        FlightRecorder's reserved-field rule.
        """
        rank = level_rank(level)
        if rank < self._min_rank:
            return None
        with self._lock:
            seen = self._kind_counts.get(kind, 0) + 1
            self._kind_counts[kind] = seen
            if seen > self.kind_limit:
                self._dropped[kind] = self._dropped.get(kind, 0) + 1
                return None
            event = dict(fields)
            event.update(self._context)
            event["seq"] = self._pos
            event["kind"] = kind
            event["level"] = level
            if self._stamp_wall:
                event["wall"] = time.time()
            self._pos += 1
            self._events.append(event)
            if len(self._events) > self.capacity:
                overflow = len(self._events) - self.capacity
                del self._events[:overflow]
                self._first_index_pos += overflow
            return event

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def next_seq(self) -> int:
        """The ``seq`` the next event will carry (the live since-cursor).

        Clients resume from their last seen ``seq + 1``.
        """
        return self._pos

    def since(self, cursor: int, limit: int | None = None) -> list[dict]:
        """Buffered events from stream position ``cursor``, oldest first.

        The since-cursor read behind ``GET /events``: a client replays
        from its last seen ``seq + 1``.  Events that already fell off
        the ring are simply gone — the ring is a tail, not a journal.
        """
        with self._lock:
            start = max(0, cursor - self._first_index_pos)
            window = self._events[start:]
        if limit is not None:
            window = window[:limit]
        return [dict(event) for event in window]

    def tail(self, limit: int) -> list[dict]:
        """The most recent ``limit`` events, oldest first."""
        with self._lock:
            window = self._events[-limit:] if limit > 0 else []
            return [dict(event) for event in window]

    def export(self) -> list[dict]:
        """Every buffered event, oldest first (the shard wire payload)."""
        with self._lock:
            return [dict(event) for event in self._events]

    def dropped(self) -> dict[str, int]:
        """Per-kind counts of rate-limited (dropped) events."""
        with self._lock:
            return dict(self._dropped)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._kind_counts.clear()
            self._dropped.clear()
            self._pos = 0
            self._first_index_pos = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventLog({len(self._events)} events, next_seq={self._pos})"


# ----------------------------------------------------------------------
# Merging and canonical form
# ----------------------------------------------------------------------
def assemble_study_events(by_shard: Mapping[int, list[dict]]) -> list[dict]:
    """Flatten per-shard event lists into the study's merged stream.

    Deterministic for the same reason span assembly is: events are
    ordered by ``(shard, seq)``, both of which are pure functions of
    the shard's work, never of scheduling.  Shard completion order
    cannot influence the result.
    """
    merged: list[dict] = []
    for shard_id in sorted(by_shard):
        for event in by_shard[shard_id]:
            entry = dict(event)
            entry.setdefault("shard", shard_id)
            merged.append(entry)
    return merged


def canonical_events(events: Iterable[Mapping]) -> list[dict]:
    """The determinism-checked form: wall-clock stripped, key-sorted.

    This is what equivalence tests compare and what ``events.jsonl``
    archives, so a sharded study's export is byte-identical to the
    sequential one.
    """
    canonical = []
    for event in events:
        entry = {
            key: event[key] for key in sorted(event) if key not in _WALL_FIELDS
        }
        canonical.append(entry)
    canonical.sort(key=lambda e: (e.get("shard", -1), e.get("seq", 0)))
    return canonical


def render_events_jsonl(events: Iterable[Mapping]) -> str:
    """Serialise events as JSONL (one compact JSON object per line)."""
    return "".join(
        json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        for event in events
    )


def parse_events_jsonl(text: str) -> list[dict]:
    """Parse a JSONL event stream, loud on garbled lines."""
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"garbled event at line {lineno}: {exc}") from exc
        if not isinstance(event, dict):
            raise ValueError(f"event at line {lineno} is not an object: {event!r}")
        events.append(event)
    return events
