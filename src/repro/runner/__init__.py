"""repro.runner — sharded campaign execution, the one way a study runs.

A study's schedule is partitioned into independent **shards** — one
per ``(vantage, batch)`` slice of the trace plan, plus one per-vantage
traceroute sweep — mirroring the paper's independent per-vantage
traces.  ``workers=N`` executes them across a pool of worker
processes; each worker deterministically rebuilds the synthetic
Internet from ``(scale, seed)`` and runs its shards inside hermetic
measurement epochs.  ``workers=0`` runs the same shards in-process
against the caller's world.  Either way the results cross the same
wire codec and the same merge, so the study is **bit-identical** for
any worker count, shard ordering, or mid-campaign retries.

Layout:

- :mod:`~repro.runner.shard` — partition a schedule into shards
- :mod:`~repro.runner.worker` — execute one shard (in a worker
  process or inline)
- :mod:`~repro.runner.scheduler` — dispatch, retries, pool recovery
- :mod:`~repro.runner.merge` — wire codec + deterministic reassembly
- :mod:`~repro.runner.progress` — fold shard completions into the
  ``ProgressFn`` channel

The high-level entry point is :func:`run_study_parallel`, which
:meth:`repro.study.Study.run` calls for every ``workers`` value.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from pathlib import Path
from typing import Mapping, Sequence

from ..core.measurement import ProgressFn, trace_plan
from ..core.traces import TraceSet, TracerouteCampaign
from ..faults.events import FaultPlan
from ..obs import (
    FlightRecorder,
    MetricsRegistry,
    PathTracer,
    RunTelemetry,
    ShardRecord,
    assemble_study_events,
    assemble_study_spans,
)
from ..scenario.internet import SyntheticInternet
from ..scenario.timeline import EpochDrift, drifted_params
from .merge import (
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
)
from .pool import SharedWorkerPool
from .progress import ProgressAggregator, ProgressOverflowError
from .scheduler import RetryPolicy, ShardExecutionError, ShardScheduler
from .shard import KIND_TRACEROUTES, KIND_TRACES, Shard, plan_shards
from .worker import (
    FAULT_EXIT,
    FAULT_HANG,
    FAULT_RAISE,
    FaultSpec,
    InjectedShardFault,
    ShardJob,
    execute_shard,
    inline_world,
)

__all__ = [
    "FAULT_EXIT",
    "FAULT_HANG",
    "FAULT_RAISE",
    "FaultSpec",
    "InjectedShardFault",
    "KIND_TRACEROUTES",
    "KIND_TRACES",
    "MergeError",
    "ProgressAggregator",
    "ProgressOverflowError",
    "RetryPolicy",
    "Shard",
    "ShardExecutionError",
    "ShardJob",
    "ShardScheduler",
    "SharedWorkerPool",
    "WIRE_FORMAT",
    "by_shard",
    "decode_path",
    "decode_trace",
    "encode_path",
    "encode_trace",
    "execute_shard",
    "merge_campaign",
    "merge_packet_traces",
    "merge_traces",
    "plan_shards",
    "run_study_parallel",
]


def run_study_parallel(
    scale: float,
    seed: int,
    workers: int,
    targets: Sequence[int] | None = None,
    world: SyntheticInternet | None = None,
    traceroutes: bool = True,
    progress: ProgressFn | None = None,
    retry: RetryPolicy | None = None,
    shard_timeout: float | None = None,
    faults: Mapping[int, "FaultSpec"] | None = None,
    fault_plan: FaultPlan | None = None,
    telemetry: RunTelemetry | None = None,
    observe: bool | None = None,
    span_detail: str | None = None,
    span_sink: list | None = None,
    event_sink: list | None = None,
    tracer: PathTracer | None = None,
    event_log=None,
    flight_dir: str | Path | None = None,
    profile_dir: str | Path | None = None,
    pool: SharedWorkerPool | None = None,
    quic: bool = False,
    drift: EpochDrift | None = None,
) -> tuple[TraceSet, TracerouteCampaign]:
    """Execute a full study as parallel shards and merge the results.

    The parent builds (or receives) the world and the probe-target
    list — discovery runs exactly once, in the parent — then ships
    only ``(scale, seed, targets, shard)`` to each worker.  With
    ``workers=0`` (and no ``pool``) the shards run in this process
    against ``world`` itself, with ``fault_plan`` installed around the
    run; no second world is built.  Returns ``(TraceSet,
    TracerouteCampaign)``, identical for every ``workers`` value.

    Passing a :class:`~repro.obs.RunTelemetry` turns observation on:
    every shard runs under a fresh worker-side metrics registry, and
    the telemetry object is filled in place with per-shard timing,
    runner counters, and the deterministic merge of all shard metric
    snapshots (deduplicated by shard id, so retries and recovery
    cannot double-count).  ``observe=False`` keeps the timing and
    runner counters but skips the worker-side registries — what the
    speedup benchmark wants, since per-packet counting is not free.

    ``faults`` maps shard ids to :class:`FaultSpec` and exists for the
    fault-tolerance tests; production callers never pass it.

    ``fault_plan`` is the simulation-level chaos schedule
    (:class:`~repro.faults.FaultPlan`).  It ships inside every
    :class:`ShardJob` and joins the worker's world-cache key, so each
    worker installs the identical plan before its epochs run — the
    merged chaotic study stays bit-identical to a sequential run given
    the same plan.

    ``pool`` executes the shards on a shared
    :class:`~repro.runner.pool.SharedWorkerPool` instead of an owned
    per-campaign executor — the study server's path, where many
    concurrent studies multiplex one pool and reuse each worker's
    per-process world cache across studies with the same
    ``(scale, seed)``.  ``workers`` is then informational only.

    ``span_detail`` turns on per-shard span recording at the given
    level; worker subtrees ship back in the wire results and the
    assembled study span list (root first, deduplicated by shard) is
    appended to ``span_sink``.  ``flight_dir`` arms crash flight
    recorders on both sides of the process boundary: workers dump
    ``flight-shard-<id>.json`` when a shard execution dies, and the
    parent dumps ``flight-parent.json`` on any scheduler recovery path
    (gang retry after a hang or pool loss, retry-budget exhaustion) or
    a :class:`ProgressOverflowError`.  ``profile_dir`` captures one
    cProfile stats file per shard execution.

    ``event_sink`` turns on per-shard structured event buffering:
    each worker runs under a fresh :class:`~repro.obs.EventLog`
    (epoch starts, chaos installations — no wall stamps), buffers ship
    back in the wire results, and the assembled study event list
    (ordered by ``(shard, seq)``, deduplicated by shard) is appended
    to the sink — byte-identical to a sequential run's log.
    ``event_log`` is different: a live, wall-clock
    :class:`~repro.obs.EventLog` (the serve layer's, or the study's
    own) that the parent-side scheduler narrates shard lifecycle into
    — dispatch, retries, gang recoveries, pool rebuilds.

    ``tracer`` turns on packet tracing: its filter expression
    (:attr:`~repro.obs.PathTracer.expression`) ships in every
    :class:`ShardJob`, and the per-shard event streams are merged into
    it in shard-id order, its limit applied after the merge.

    ``quic`` turns on the QUIC ECN-validation probe family in every
    shard's measurement application; it rides in the
    :class:`ShardJob` without joining the worker world-cache key.

    ``drift`` applies longitudinal drift
    (:class:`~repro.scenario.timeline.EpochDrift`) to the scenario
    parameters: the parent builds (or receives) the drifted world, and
    the drift ships inside every :class:`ShardJob`, joining the worker
    world-cache key so each worker rebuilds the identical drifted
    world.  ``None`` is the legacy undrifted path, bit for bit.
    """
    if world is None:
        world = SyntheticInternet(drifted_params(scale, seed, drift))
    if targets is None:
        targets = [server.addr for server in world.servers]
    target_tuple = tuple(targets)
    schedule = world.params.schedule
    plan = trace_plan(schedule)
    shards = plan_shards(schedule, traceroutes=traceroutes)
    fault_map = dict(faults) if faults else {}
    if observe is None:
        observe = telemetry is not None
    flight_path = str(flight_dir) if flight_dir is not None else None
    profile_path = str(profile_dir) if profile_dir is not None else None
    trace_filter = None
    if tracer is not None:
        if tracer.expression is None:
            raise ValueError("sharded packet tracing needs a filter expression")
        trace_filter = tracer.expression
    jobs = [
        ShardJob(
            scale=scale,
            seed=seed,
            targets=target_tuple,
            shard=shard,
            fault=fault_map.get(shard.shard_id),
            observe=observe,
            fault_plan=fault_plan,
            span_detail=span_detail,
            events=event_sink is not None,
            trace_filter=trace_filter,
            flight_dir=flight_path,
            profile_dir=profile_path,
            quic=quic,
            drift=drift,
        )
        for shard in shards
    ]
    aggregator = ProgressAggregator(
        progress, sum(shard.units(len(target_tuple)) for shard in shards)
    )
    parent_flight = (
        FlightRecorder(label="parent") if flight_path is not None else None
    )

    def on_complete(job: ShardJob, result: dict) -> None:
        aggregator.shard_completed(job.shard, job.shard.units(len(target_tuple)))
        if parent_flight:
            parent_flight.record(
                "shard-complete",
                shard=job.shard.shard_id,
                attempts=job.attempt + 1,
            )
        if telemetry is not None:
            telemetry.record_shard(
                ShardRecord(
                    shard_id=job.shard.shard_id,
                    kind=job.shard.kind,
                    label=job.shard.label(),
                    attempts=job.attempt + 1,
                    elapsed=float(result.get("elapsed", 0.0)),
                    units=job.shard.units(len(target_tuple)),
                )
            )

    runner_metrics = MetricsRegistry() if telemetry is not None else None
    scheduler = ShardScheduler(
        workers,
        retry=retry,
        shard_timeout=shard_timeout,
        metrics=runner_metrics,
        flight=parent_flight,
        flight_dir=flight_path,
        pool=pool,
        events=event_log,
    )
    inline = pool is None and workers <= 0
    started = time.perf_counter()
    try:
        with inline_world(world, fault_plan) if inline else nullcontext():
            results = scheduler.run(jobs, on_complete=on_complete)
    except ProgressOverflowError as exc:
        # Strict progress accounting tripped: the shard plan and the
        # completions disagree.  Leave the black box before aborting.
        if parent_flight is not None and flight_path is not None:
            parent_flight.record("progress-overflow", error=str(exc))
            parent_flight.dump(flight_path, reason=f"progress overflow: {exc}")
        raise
    if telemetry is not None:
        telemetry.workers = workers
        telemetry.wall_seconds = time.perf_counter() - started
        telemetry.runner = runner_metrics.snapshot()["counters"]
        if fault_plan is not None:
            telemetry.chaos = fault_plan.summary()
        telemetry.merge_metrics(by_shard(results, "metrics").values())
    if span_sink is not None and span_detail is not None:
        span_sink.extend(assemble_study_spans(by_shard(results, "spans")))
    if event_sink is not None:
        event_sink.extend(assemble_study_events(by_shard(results, "events")))
    if tracer is not None:
        merge_packet_traces(results, tracer)
    traces = merge_traces(
        (r for r in results if r["kind"] == KIND_TRACES),
        server_addrs=list(target_tuple),
        description=(
            "ECN/UDP reachability study: "
            f"{len(plan)} traces x {len(target_tuple)} servers"
        ),
    )
    campaign = (
        merge_campaign(
            (r for r in results if r["kind"] == KIND_TRACEROUTES),
            vantage_order=list(world.vantage_hosts),
        )
        if traceroutes
        else TracerouteCampaign()
    )
    return traces, campaign
