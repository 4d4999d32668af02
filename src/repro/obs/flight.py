"""Crash flight recorder: the last N events before things went wrong.

A :class:`FlightRecorder` is a bounded ring buffer of observability
events — span open/close, fault installations, runner dispatch and
recovery decisions — that costs O(1) per event and never grows.  It
buys nothing while a run succeeds; when a run *fails*, the buffer is
dumped to ``flight-<label>.json`` and becomes the black box: the
causal tail of what the process was doing when it died, without
re-running the campaign.

Two recorders exist in a sharded run:

* each **worker process** keeps one, fed by its span recorder and the
  fault injector; :func:`repro.runner.worker.execute_shard` dumps it
  as ``flight-shard-<id>.json`` when a shard execution raises (or,
  for the injected hard-kill fault, immediately before ``os._exit`` —
  approximating the persistent ring file a production recorder would
  keep);
* the **parent scheduler** keeps one recording dispatch, retries and
  gang recoveries, dumped as ``flight-parent.json`` on pool loss,
  global hang recovery, retry-budget exhaustion, or a
  :class:`~repro.runner.progress.ProgressOverflowError`.

Dump files are self-describing JSON: reason, label, pid, the buffer
capacity, and the surviving events oldest-first.  Timestamps are
``time.time()`` wall clock — flight dumps are forensic artefacts of
one run, never part of any determinism contract.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from pathlib import Path

#: Default ring capacity: enough for the full span/fault tail of a
#: small study, a bounded sliver of a large one.
DEFAULT_CAPACITY = 512

#: How many structured events an attached EventLog contributes to a
#: dump: the causal tail, not the whole stream.
EVENT_TAIL_LIMIT = 64


class FlightRecorder:
    """Bounded ring buffer of observability events, dumpable on crash."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY, label: str = "parent") -> None:
        if capacity <= 0:
            raise ValueError(f"flight recorder capacity must be positive: {capacity!r}")
        self.capacity = capacity
        self.label = label
        self._events: deque[dict] = deque(maxlen=capacity)
        self._recorded = 0
        self._event_log = None

    def attach_events(self, event_log) -> None:
        """Attach a structured :class:`~repro.obs.events.EventLog`.

        Every subsequent :meth:`dump` then embeds the log's bounded
        tail (``event_tail``), so a crash dump carries not just the
        recorder's own span/dispatch ring but the leveled, correlated
        events the process emitted on the way down.  ``None``
        detaches.
        """
        self._event_log = event_log

    def __bool__(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self._events)

    @property
    def recorded(self) -> int:
        """Total events ever recorded (>= len() once the ring wraps)."""
        return self._recorded

    def record(self, kind: str, /, **payload) -> None:
        """Append one event; the oldest event falls out when full.

        ``kind`` is positional-only so arbitrary payload keys —
        including ``kind`` itself — can never collide with it; the
        reserved ``t`` / ``kind`` fields win over payload duplicates.
        """
        event = dict(payload)
        event["t"] = time.time()
        event["kind"] = kind
        self._events.append(event)
        self._recorded += 1

    def events(self) -> list[dict]:
        """The surviving events, oldest first."""
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()

    # ------------------------------------------------------------------
    # Dumping
    # ------------------------------------------------------------------
    def dump(self, directory: str | Path, reason: str, **context) -> Path:
        """Write ``flight-<label>.json`` into ``directory``; returns it.

        Never raises: a failing flight dump must not mask the failure
        being recorded.  On write errors the intended path is returned
        anyway (the caller is already on an error path).
        """
        directory = Path(directory)
        path = directory / f"flight-{self.label}.json"
        document = {
            "format": "ecn-udp-flight/1",
            "label": self.label,
            "reason": reason,
            "pid": os.getpid(),
            "dumped_at": time.time(),
            "capacity": self.capacity,
            "events_recorded": self._recorded,
            "events": self.events(),
        }
        if self._event_log is not None:
            document["event_tail"] = self._event_log.tail(EVENT_TAIL_LIMIT)
            dropped = self._event_log.dropped()
            if dropped:
                document["event_dropped"] = dropped
        if context:
            document["context"] = context
        try:
            directory.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(document, indent=1))
        except OSError:  # pragma: no cover - disk-full / perms edge
            pass
        return path


def load_flight_dump(path: str | Path) -> dict:
    """Read and validate a flight dump; raises ValueError on mismatch."""
    document = json.loads(Path(path).read_text())
    if document.get("format") != "ecn-udp-flight/1":
        raise ValueError(f"not a flight dump: {path} ({document.get('format')!r})")
    return document
