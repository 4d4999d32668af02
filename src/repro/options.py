"""The one value that defines a study run: :class:`RunOptions`.

Scale, seed, probe families, chaos, longitudinal drift and the
observability selections are validated here, once.  ``Study.run``, the
shard runner (every :class:`~repro.runner.ShardJob` carries the value
whole), the study server's queue, the campaign spec and the CLI all
build or carry a ``RunOptions`` instead of restating the flags.

Run-time objects have no JSON form and stay separate arguments beside
the options: a built world, a worker pool, progress and event sinks,
and a ready-made :class:`~repro.faults.FaultPlan`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields

from .faults.profiles import PROFILES
from .obs.spans import DETAIL_EPOCH, DETAIL_PROBE
from .obs.tracing import FilterError, parse_filter
from .scenario.parameters import ScenarioParams
from .scenario.timeline import EpochDrift, TimelineError, drifted_params


class OptionsError(ValueError):
    """A study option with the wrong type, range or name."""


@dataclass(frozen=True)
class RunOptions:
    """Everything that defines a study, validated at construction.

    Frozen, hashable and picklable: the value rides in every shard job
    and round-trips through JSON (:meth:`to_dict` / :meth:`from_dict`,
    defaults omitted).  ``faults`` names a chaos profile expanded with
    ``chaos_seed``; ``record_spans`` accepts ``True`` / ``False`` and
    is normalised to a span detail level or ``None``.
    """

    scale: float = 0.1
    seed: int = 20150401
    traceroutes: bool = True
    quic: bool = False
    faults: str | None = None
    chaos_seed: int = 0
    drift: EpochDrift | None = None
    collect_metrics: bool = False
    record_spans: str | None = None
    collect_events: bool = False
    trace_filter: str | None = None

    def __post_init__(self) -> None:
        scale = self.scale
        if isinstance(scale, bool) or not isinstance(scale, (int, float)):
            raise OptionsError(f"scale must be a number: {scale!r}")
        # Scales above 1 would silently map to the full paper world.
        if not 0 < scale <= 1:
            raise OptionsError(f"scale must be in (0, 1]: {scale!r}")
        object.__setattr__(self, "scale", float(scale))
        for name in ("seed", "chaos_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise OptionsError(f"{name} must be an integer: {value!r}")
        for name in ("traceroutes", "quic", "collect_metrics", "collect_events"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise OptionsError(f"{name} must be a boolean: {value!r}")
        if self.faults is not None and (
            not isinstance(self.faults, str) or self.faults not in PROFILES
        ):
            known = ", ".join(sorted(PROFILES))
            raise OptionsError(f"unknown chaos profile {self.faults!r}; one of: {known}")
        if self.drift is not None and not isinstance(self.drift, EpochDrift):
            raise OptionsError(f"drift must be an EpochDrift: {self.drift!r}")
        spans = self.record_spans
        if spans is None or isinstance(spans, bool):
            object.__setattr__(self, "record_spans", DETAIL_EPOCH if spans else None)
        elif spans not in (DETAIL_EPOCH, DETAIL_PROBE):
            raise OptionsError(
                f"unknown span detail {spans!r}; one of: {DETAIL_EPOCH}, {DETAIL_PROBE}"
            )
        if self.trace_filter is not None:
            try:
                if not isinstance(self.trace_filter, str):
                    raise FilterError("the expression must be a string")
                parse_filter(self.trace_filter)
            except FilterError as exc:
                raise OptionsError(
                    f"bad trace_filter expression {self.trace_filter!r}: {exc}"
                ) from exc

    def world_params(self) -> ScenarioParams:
        """The scenario the study's world is built from."""
        return drifted_params(self.scale, self.seed, self.drift)

    def to_dict(self) -> dict:
        payload: dict = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value != spec.default:
                payload[spec.name] = value.to_dict() if spec.name == "drift" else value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> RunOptions:
        if not isinstance(payload, Mapping):
            raise OptionsError(f"options must be an object: {payload!r}")
        unknown = sorted(set(payload) - {spec.name for spec in fields(cls)})
        if unknown:
            raise OptionsError(f"unknown option(s): {', '.join(unknown)}")
        values = dict(payload)
        if values.get("drift") is not None:
            try:
                values["drift"] = EpochDrift.from_dict(values["drift"])
            except TimelineError as exc:
                raise OptionsError(str(exc)) from exc
        return cls(**values)
