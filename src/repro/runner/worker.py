"""Shard execution inside a worker process.

A worker receives a :class:`ShardJob` — everything needed to rebuild
the study context from scratch: the study's
:class:`~repro.options.RunOptions` (whose scale, seed and drift
rebuild the synthetic Internet through the canonical
:func:`~repro.scenario.timeline.drifted_params` mapping), the probe
target list (discovery runs once, in the parent), and the shard to
execute.  Worlds are cached per process, so a worker pays the build
cost once and then runs any number of shards against it; hermetic
measurement epochs guarantee the execution order across shards cannot
influence results.

The same code runs shards in-process for ``workers=0``: there
:func:`inline_world` points every shard at the caller's world, which
is already built and discovered, instead of the per-process cache.

Observability rides along in the options: ``collect_metrics`` installs
a fresh metrics registry, ``trace_filter`` a fresh packet tracer,
``record_spans`` a fresh span recorder and ``collect_events`` a fresh
event log (their records ship back in the wire result); the job's
``profile_dir`` wraps the measurement in :mod:`cProfile`, and
``flight_dir`` arms the process-wide crash flight recorder — a bounded
ring of span/fault/lifecycle events dumped to
``flight-shard-<id>.json`` when a shard execution dies.

Fault injection (:class:`FaultSpec`) exists for the scheduler's
retry-path tests: a job can be told to raise — or hard-kill its worker
process — while its attempt counter is below a threshold, which
exercises exactly the recovery machinery a real crashed worker would.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path

from ..core.measurement import MeasurementApplication
from ..faults.events import FaultPlan
from ..obs.events import EventLog
from ..obs.flight import FlightRecorder
from ..obs.metrics import MetricsRegistry
from ..obs.spans import SpanRecorder
from ..obs.tracing import PathTracer
from ..options import RunOptions
from ..scenario.internet import SyntheticInternet
from ..scenario.timeline import EpochDrift
from .merge import WIRE_FORMAT, encode_packet_event, encode_path, encode_trace
from .shard import KIND_TRACES, Shard

#: Fault kinds understood by :func:`execute_shard`.
FAULT_RAISE = "raise"
FAULT_EXIT = "exit"
FAULT_HANG = "hang"


class InjectedShardFault(RuntimeError):
    """Deliberate failure raised by a :class:`FaultSpec` (tests only)."""


@dataclass(frozen=True)
class FaultSpec:
    """Fail a shard's first ``attempts`` executions (tests only).

    ``kind=FAULT_HANG`` sleeps ``hang_seconds`` before failing, wedging
    the worker long enough to trip the scheduler's global
    ``shard_timeout`` — the gang-recovery path a crashed worker never
    reaches (its future resolves immediately).
    """

    kind: str = FAULT_RAISE
    attempts: int = 1
    hang_seconds: float = 30.0


@dataclass(frozen=True)
class ShardJob:
    """A self-contained unit of work shipped to a worker process."""

    #: The study's options: what the world is, which probe families
    #: run, and which records (metrics, spans, events, packets) the
    #: shard ships back.  Only scale, seed and drift join the world
    #: cache key, next to the fault plan.
    options: RunOptions
    targets: tuple[int, ...]
    shard: Shard
    attempt: int = 0
    fault: FaultSpec | None = None
    #: Chaos schedule applied by every worker identically (hashable, so
    #: it participates in the per-process world cache key).
    fault_plan: FaultPlan | None = None
    #: Directory for crash flight-recorder dumps; ``None`` disarms.
    flight_dir: str | None = None
    #: Directory for per-shard cProfile dumps; ``None`` disables.
    profile_dir: str | None = None


#: Per-process world cache: building a synthetic Internet dominates
#: small-shard runtime, and every shard of a study shares one.  The
#: cache is a small LRU rather than single-entry: a long-lived shared
#: pool (``ecnudp serve``) interleaves shards of *different* studies on
#: one worker, and clearing on every key change would rebuild worlds
#: per shard instead of per study.  Insertion order is the LRU order.
_WORLD_CACHE: dict[
    tuple[float, int, FaultPlan | None, EpochDrift | None], SyntheticInternet
] = {}

#: Worlds kept per worker process.  Small on purpose: a full-scale
#: world is large, and a server mixing more than this many distinct
#: ``(scale, seed, plan, drift)`` keys at once should pay rebuilds, not RAM.
WORLD_CACHE_SIZE = 4

#: The world in-process shards run against (set by
#: :func:`inline_world`); unset in pool workers, which use the cache.
_INLINE_WORLD: ContextVar[SyntheticInternet | None] = ContextVar(
    "inline_world", default=None
)

#: Per-process flight recorder: the black box this worker dumps when a
#: shard execution dies.  One ring per process (not per shard) so the
#: tail can span a world rebuild or an earlier shard's spans.
_FLIGHT: FlightRecorder | None = None


def _world_for(options: RunOptions, fault_plan: FaultPlan | None) -> SyntheticInternet:
    # Never the whole options value: QUIC and observability settings
    # do not change the world, and must not split the cache.
    key = (options.scale, options.seed, fault_plan, options.drift)
    world = _WORLD_CACHE.get(key)
    if world is None:
        # Evict least-recently-used worlds so long-lived pools don't
        # accumulate topologies beyond the budget.
        while len(_WORLD_CACHE) >= WORLD_CACHE_SIZE:
            _WORLD_CACHE.pop(next(iter(_WORLD_CACHE)))
        world = SyntheticInternet(options.world_params())
        if fault_plan is not None:
            world.install_fault_plan(fault_plan)
        _WORLD_CACHE[key] = world
    else:
        # Move-to-end marks the key most recently used.
        _WORLD_CACHE[key] = _WORLD_CACHE.pop(key)
    return world


@contextmanager
def inline_world(world: SyntheticInternet, fault_plan: FaultPlan | None = None):
    """Run this context's in-process shards against ``world``.

    The fault plan is installed for the duration and removed after, so
    a long-lived world (the study server caches them) stays pristine.
    The world never joins the per-process cache.
    """
    if fault_plan is not None:
        world.install_fault_plan(fault_plan)
    token = _INLINE_WORLD.set(world)
    try:
        yield
    finally:
        _INLINE_WORLD.reset(token)
        if fault_plan is not None:
            world.install_fault_plan(None)


def _flight_recorder() -> FlightRecorder:
    global _FLIGHT
    if _FLIGHT is None:
        _FLIGHT = FlightRecorder(label="worker")
    return _FLIGHT


def _dump_flight(flight: FlightRecorder, job: ShardJob, reason: str) -> None:
    """Dump the worker's ring as this shard's black box."""
    flight.label = f"shard-{job.shard.shard_id}"
    flight.dump(
        job.flight_dir,
        reason=reason,
        shard_id=job.shard.shard_id,
        shard_label=job.shard.label(),
        attempt=job.attempt,
    )


def execute_shard(job: ShardJob) -> dict:
    """Run one shard to completion and return its wire-format result."""
    flight = _flight_recorder() if job.flight_dir is not None else None
    if flight:
        flight.record(
            "shard-start",
            shard=job.shard.shard_id,
            label=job.shard.label(),
            attempt=job.attempt,
        )
    try:
        result = _execute_shard(job, flight)
    except BaseException as exc:
        if flight is not None:
            flight.record(
                "shard-crash", shard=job.shard.shard_id, error=repr(exc)
            )
            _dump_flight(flight, job, reason=f"{type(exc).__name__}: {exc}")
        raise
    if flight:
        flight.record(
            "shard-done",
            shard=job.shard.shard_id,
            elapsed=round(result.get("elapsed", 0.0), 3),
        )
    return result


def _execute_shard(job: ShardJob, flight: FlightRecorder | None) -> dict:
    if job.fault is not None and job.attempt < job.fault.attempts:
        if flight is not None:
            # The injected crash fires before the measurement builds
            # its per-shard event log, so narrate the injection into a
            # fresh shard-scoped log first: the crash dump's event tail
            # then describes the *triggering* shard, never whatever
            # shard this worker process happened to run last.
            crash_log = None
            if job.options.collect_events:
                crash_log = EventLog(stamp_wall=False, shard=job.shard.shard_id)
                crash_log.emit(
                    "fault-injected",
                    "warning",
                    fault=job.fault.kind,
                    attempt=job.attempt,
                )
            flight.attach_events(crash_log)
        if job.fault.kind == FAULT_EXIT:
            # Simulate a crashed/killed worker: bypass all exception
            # handling, including the executor's own bookkeeping.  The
            # flight recorder flushes first — standing in for the
            # persistent ring file a production recorder would keep,
            # which is exactly what survives a real SIGKILL.
            if flight is not None:
                flight.record("shard-killed", shard=job.shard.shard_id)
                _dump_flight(flight, job, reason="injected hard kill (os._exit)")
            os._exit(1)
        if job.fault.kind == FAULT_HANG:
            # Simulate a wedged worker.  The parent abandons the pool
            # when its hang budget expires; once the sleep ends this
            # raise lands in the abandoned executor and frees the
            # process, so tests don't leak sleeping workers past exit.
            if flight is not None:
                flight.record(
                    "shard-hang",
                    shard=job.shard.shard_id,
                    hang_seconds=job.fault.hang_seconds,
                )
            time.sleep(job.fault.hang_seconds)
        raise InjectedShardFault(
            f"injected failure for shard {job.shard.shard_id} "
            f"(attempt {job.attempt})"
        )
    options = job.options
    world = _INLINE_WORLD.get()
    if world is None:
        world = _world_for(options, job.fault_plan)
    app = MeasurementApplication(world, targets=list(job.targets), quic=options.quic)
    shard = job.shard
    result: dict = {
        "format": WIRE_FORMAT,
        "shard_id": shard.shard_id,
        "kind": shard.kind,
    }
    # A fresh registry per shard, installed only around the measurement
    # itself, makes per-shard snapshots partition the sequential run's
    # counters exactly: summing them reproduces the sequential totals
    # bit for bit.  Cached worlds outlive shards, so always uninstall.
    registry = MetricsRegistry() if options.collect_metrics else None
    tracer = PathTracer(match=options.trace_filter) if options.trace_filter else None
    if registry is not None or tracer is not None:
        world.network.set_observability(registry, tracer)
    # Likewise a fresh span recorder per shard: its subtree ships back
    # in the result, and a retried shard re-records from scratch.
    spans = None
    if options.record_spans is not None:
        spans = SpanRecorder(
            detail=options.record_spans, shard_id=shard.shard_id, flight=flight
        )
        world.set_span_recorder(spans)
    # And a fresh event log per shard: no wall stamps (shard events are
    # part of the determinism contract).  A retried shard re-emits
    # from scratch.
    event_log = None
    if options.collect_events:
        event_log = EventLog(stamp_wall=False, shard=shard.shard_id)
        world.set_event_log(event_log)
    if flight is not None:
        # (Re)attach per job — also detaches a previous shard's log
        # when this job runs without events, so a crash dump never
        # carries a stale tail.  Not detached in the finally below:
        # the crash dump happens *after* that finally runs.
        flight.attach_events(event_log)
    profiler = None
    if job.profile_dir is not None:
        import cProfile

        profiler = cProfile.Profile()
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        if shard.kind == KIND_TRACES:
            traces = app.run_planned(shard.planned_traces())
            result["traces"] = [encode_trace(trace) for trace in traces]
        else:
            paths = app.run_traceroute_vantage(shard.vantage_key)
            result["paths"] = [encode_path(path) for path in paths]
    finally:
        if profiler is not None:
            profiler.disable()
        if registry is not None or tracer is not None:
            world.network.set_observability(None, None)
        if spans is not None:
            world.set_span_recorder(None)
        if event_log is not None:
            world.set_event_log(None)
    result["elapsed"] = time.perf_counter() - started
    if registry is not None:
        result["metrics"] = registry.snapshot()
    if tracer is not None:
        result["packets"] = {
            "events": [encode_packet_event(event) for event in tracer.events],
            "dropped": tracer.dropped,
        }
    if spans is not None:
        result["spans"] = spans.shard_export()
    if event_log is not None:
        result["events"] = event_log.export()
    if profiler is not None:
        directory = Path(job.profile_dir)
        directory.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(directory / f"profile-shard-{shard.shard_id}.pstats")
    return result
