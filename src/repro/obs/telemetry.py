"""Run telemetry: what a campaign cost, shard by shard.

While :mod:`repro.obs.metrics` answers *what happened inside the
simulation* (and must merge bit-identically across any sharding),
telemetry answers *how the run itself behaved*: per-shard wall-clock
timing, retry counts, runner-level recovery events, and the merged
metric snapshot, all bundled into one :class:`RunTelemetry` object
that :meth:`repro.study.Study.save` exports alongside the archival
JSON.

The two halves have different determinism contracts, kept deliberately
separate in the exported document:

* ``metrics`` — deterministic; identical between ``workers=0`` and
  ``workers=N`` for the same ``(scale, seed)``.
* ``shards`` / ``wall_seconds`` — wall-clock facts about *this* run;
  meaningful for performance work, never for result comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .metrics import (
    DURATION_BOUNDS,
    MetricsRegistry,
    empty_snapshot,
    histogram_sum,
    merge_snapshots,
)


@dataclass(frozen=True)
class ShardRecord:
    """Timing and retry facts for one completed shard."""

    shard_id: int
    kind: str
    label: str
    #: Executions this shard needed (1 = no retries).
    attempts: int
    #: Worker-side wall-clock seconds for the successful execution.
    elapsed: float
    #: Progress units the shard contributed (traces or probes).
    units: int

    def to_dict(self) -> dict:
        # Wall-clock exports round to the millisecond: sub-ms digits
        # are timer noise that churns diffs between otherwise-equal
        # runs.  Only the export rounds — in-memory values keep full
        # precision so accumulated sums don't drift.
        return {
            "shard_id": self.shard_id,
            "kind": self.kind,
            "label": self.label,
            "attempts": self.attempts,
            "elapsed": round(self.elapsed, 3),
            "units": self.units,
        }


@dataclass
class RunTelemetry:
    """Everything observable about one campaign execution."""

    workers: int = 0
    wall_seconds: float = 0.0
    shards: list[ShardRecord] = field(default_factory=list)
    #: Deterministic simulation metrics, merged across shards.
    metrics: dict = field(default_factory=empty_snapshot)
    #: Parent-side runner counters (dispatched/retried/recovered).
    runner: dict = field(default_factory=dict)
    #: Audit summary of the fault plan applied, when the run was
    #: chaotic (:meth:`repro.faults.FaultPlan.summary`); ``None`` for
    #: an unimpaired run.
    chaos: dict | None = None

    def record_shard(self, record: ShardRecord) -> None:
        self.shards.append(record)

    def merge_metrics(self, snapshots) -> None:
        """Install the deterministic merge of per-shard snapshots."""
        self.metrics = merge_snapshots(snapshots)

    def wall_histograms(self) -> dict:
        """Wall-clock distribution of shard execution times.

        Derived from the shard records at export time, in shard-id
        order, so the same records always produce the same document —
        but the *values* are wall clocks: these histograms live in the
        telemetry half of the export, never in ``metrics``, and are
        excluded from every determinism contract.
        """
        if not self.shards:
            return {}
        registry = MetricsRegistry()
        for record in sorted(self.shards, key=lambda r: r.shard_id):
            registry.observe(
                "runner.shard_wall_seconds", record.elapsed, DURATION_BOUNDS
            )
        return registry.snapshot().get("histograms", {})

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def total_retries(self) -> int:
        return sum(max(0, record.attempts - 1) for record in self.shards)

    def slowest_shards(self, count: int = 5) -> list[ShardRecord]:
        """The ``count`` longest-running shards (stable on ties)."""
        return sorted(
            self.shards, key=lambda r: (-r.elapsed, r.shard_id)
        )[:count]

    @classmethod
    def from_dict(cls, document) -> "RunTelemetry":
        """Rebuild from a :meth:`to_dict` document.

        Derived fields (``total_retries``, ``wall_histograms``) are
        recomputed, not read.  Anything that is not a document this
        class wrote raises :class:`ValueError`.
        """
        if not isinstance(document, dict):
            raise ValueError(
                f"telemetry must be an object, not {type(document).__name__}"
            )
        unknown = set(document) - _DOCUMENT_KEYS
        if unknown:
            raise ValueError(f"unknown telemetry keys: {sorted(unknown)}")
        shards = document.get("shards", [])
        runner = document.get("runner", {})
        metrics = document.get("metrics", empty_snapshot())
        chaos = document.get("chaos")
        if not isinstance(shards, list):
            raise ValueError("telemetry 'shards' must be a list")
        if not all(isinstance(part, dict) for part in (runner, metrics, chaos or {})):
            raise ValueError("telemetry 'runner', 'metrics' and 'chaos' must be objects")
        telemetry = cls(
            workers=_number(document, "workers", 0, int),
            wall_seconds=_number(document, "wall_seconds", 0.0, (int, float)),
            metrics=metrics,
            runner=runner,
            chaos=chaos,
        )
        for entry in shards:
            if not isinstance(entry, dict) or set(entry) != _SHARD_KEYS:
                raise ValueError(
                    f"telemetry shard entry needs exactly {sorted(_SHARD_KEYS)}: {entry!r}"
                )
            for key in ("shard_id", "attempts", "units"):
                _number(entry, key, 0, int)
            _number(entry, "elapsed", 0.0, (int, float))
            telemetry.record_shard(ShardRecord(**entry))
        return telemetry

    def to_dict(self) -> dict:
        """JSON-safe document, shards in shard-id order."""
        document = {
            "workers": self.workers,
            "wall_seconds": round(self.wall_seconds, 3),
            "total_retries": self.total_retries,
            "runner": {name: self.runner[name] for name in sorted(self.runner)},
            "shards": [
                record.to_dict()
                for record in sorted(self.shards, key=lambda r: r.shard_id)
            ],
            "metrics": self.metrics,
        }
        histograms = self.wall_histograms()
        if histograms:
            document["wall_histograms"] = histograms
        if self.chaos is not None:
            document["chaos"] = self.chaos
        return document

    def summary_lines(self) -> list[str]:
        """The human-readable timing section (benchmark / CLI output)."""
        lines = [
            f"workers={self.workers} wall={self.wall_seconds:.2f}s "
            f"shards={len(self.shards)} retries={self.total_retries}"
        ]
        if self.chaos is not None:
            by_kind = self.chaos.get("by_kind", {})
            kinds = " ".join(f"{kind}={by_kind[kind]}" for kind in sorted(by_kind))
            lines.append(
                f"  chaos profile={self.chaos.get('profile')} "
                f"seed={self.chaos.get('chaos_seed')} "
                f"events={self.chaos.get('events')} ({kinds})"
            )
        for name in sorted(self.runner):
            lines.append(f"  {name} = {self.runner[name]}")
        busy = sum(record.elapsed for record in self.shards)
        if self.shards:
            lines.append(f"  shard time total={busy:.2f}s")
            for record in self.slowest_shards():
                lines.append(
                    f"    {record.elapsed:6.2f}s  x{record.attempts}  "
                    f"{record.label}"
                )
        return lines


_DOCUMENT_KEYS = frozenset(
    ("workers", "wall_seconds", "total_retries", "runner", "shards", "metrics",
     "wall_histograms", "chaos")
)
_SHARD_KEYS = frozenset(item.name for item in fields(ShardRecord))


def _number(document: dict, key: str, default, kinds):
    value = document.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"telemetry {key!r} must be a number, not {value!r}")
    return value


def histogram_lines(histograms: dict, indent: str = "  ") -> list[str]:
    """Human-readable one-liners for snapshot histograms."""
    lines = []
    for name in sorted(histograms):
        hist = histograms[name]
        count = hist.get("count", 0)
        mean = histogram_sum(hist) / count if count else 0.0
        lo = hist.get("min")
        hi = hist.get("max")
        lines.append(
            f"{indent}{name}  n={count} mean={mean:.4f}"
            + ("" if lo is None else f" min={lo:.4f}")
            + ("" if hi is None else f" max={hi:.4f}")
        )
    return lines


def render_metrics_report(snapshot: dict, telemetry: RunTelemetry | None = None) -> str:
    """Format a metric snapshot (and optional telemetry) as a report."""
    lines = ["== Simulation metrics =="]
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    if not counters and not gauges:
        lines.append("  (no metrics recorded)")
    width = max((len(name) for name in (*counters, *gauges)), default=0)
    for name in sorted(counters):
        lines.append(f"  {name:<{width}}  {counters[name]}")
    for name in sorted(gauges):
        lines.append(f"  {name:<{width}}  {gauges[name]:g} (gauge)")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("")
        lines.append("== Histograms (sim-time seconds) ==")
        lines.extend(histogram_lines(histograms))
    if telemetry is not None:
        lines.append("")
        lines.append("== Run telemetry ==")
        lines.extend(telemetry.summary_lines())
        wall = telemetry.wall_histograms()
        if wall:
            lines.append("")
            lines.append("== Histograms (wall-clock seconds) ==")
            lines.extend(histogram_lines(wall))
    return "\n".join(lines)
