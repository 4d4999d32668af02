"""Benchmark-side spans around calls into the program's public layers.

Tracing lives entirely in the benchmark: :meth:`Tracer.wrap` swaps a
public function or method for a timing wrapper and :meth:`Tracer.restore`
puts the original back.  Spans are kept in memory (name, start, end,
parent) and written out when the run ends.  Only the traced run
installs wrappers; end-to-end figures come from untraced runs.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

#: Span record layout: ``[id, parent id or None, name, start, end]``.
ID, PARENT, NAME, START, END = range(5)


class Tracer:
    """Single-threaded span recorder with self-time accounting."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Instances captured by ``capture=True`` wrappers, by span name.
        self.captured: dict[str, list] = {}

    @contextmanager
    def span(self, name: str):
        record = [
            len(self.spans),
            self._stack[-1] if self._stack else None,
            name,
            perf_counter(),
            0.0,
        ]
        self.spans.append(record)
        self._stack.append(record[ID])
        try:
            yield record
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, namer=None, capture: bool = False) -> None:
        """Time every call to ``owner.attr`` as a span called ``name``.

        ``namer(args, kwargs)`` picks a per-call name instead (the probe
        phase from a probe's arguments).  ``capture`` keeps the first
        positional argument (``self`` for methods) under ``name``.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = namer(args, kwargs) if namer is not None else name
            if capture:
                tracer.captured.setdefault(name, []).append(args[0])
            with tracer.span(label):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def op_spans(self, op_name: str = "op") -> list[list[list]]:
        """Spans grouped under each top-level ``op_name`` span, in order."""
        root_of: dict[int, int] = {}
        groups: dict[int, list[list]] = {}
        for record in self.spans:
            parent = record[PARENT]
            root = record[ID] if parent is None else root_of[parent]
            root_of[record[ID]] = root
            if self.spans[root][NAME] == op_name:
                groups.setdefault(root, []).append(record)
        return [groups[root] for root in sorted(groups)]

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (seconds, perf_counter)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


def durations(spans: list[list]) -> dict[str, list[float]]:
    """Span durations in seconds, by name."""
    found: dict[str, list[float]] = {}
    for record in spans:
        found.setdefault(record[NAME], []).append(record[END] - record[START])
    return found


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time by name: duration minus what children cover.

    Children of one span never overlap (the traced layers are
    single-threaded), so the covered part is the sum of their spans.
    """
    child_time: dict[int, float] = {}
    for record in spans:
        if record[PARENT] is not None:
            child_time[record[PARENT]] = (
                child_time.get(record[PARENT], 0.0) + record[END] - record[START]
            )
    totals: dict[str, float] = {}
    for record in spans:
        own = record[END] - record[START] - child_time.get(record[ID], 0.0)
        totals[record[NAME]] = totals.get(record[NAME], 0.0) + own
    return totals
