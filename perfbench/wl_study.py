"""``study-seq`` and ``study-observed``: one study at a fixed (scale, seed).

An operation is ``Study.run`` followed by ``report()`` and ``save()``
against a world built (and discovered) once during set-up; hermetic
measurement epochs make a reused world give the same archive as a
fresh one, and the pinned digest checks exactly that.
"""

from __future__ import annotations

import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from common import (
    BENCH,
    PeakRss,
    digest_dir,
    load_pins,
    median,
    pick,
    reap_children,
    tail,
    time_setups,
)
from layers import (
    install_layer_wrappers,
    probe_figures,
    traced_op_figures,
    udp_attempts_per_call,
    us_per_event,
)
from tracer import Tracer

SCALE = 0.05
#: The benchmark seed picks one of these worlds; each has pinned digests.
WORLD_SEEDS = (20150401, 20150402, 20150403, 20150404)
CHAOS_SEED = 7
WORKERS = 2
#: Files whose contents carry wall-clock facts and are left out of the
#: pinned digest (their deterministic halves are pinned elsewhere:
#: metrics.json and events.jsonl are in the digest).
WALL_CLOCK_FILES = ("telemetry.json", "spans.json", "trace.json")
SETUP_SAMPLES = 3
#: Pooled figures that are counts: the first operation's, not a median.
EXACT_COUNTS = ("netsim.events", "netsim.packets_sent", "runner.retries", "obs.spans", "obs.events")
#: Fewest operations per run; a traced run needs two of each kind.
MIN_OPS = 3
MIN_TRACED_OPS = 4


def study_kwargs(observed: bool, traced: bool) -> dict:
    if not observed:
        return {"workers": 0}
    return {
        "workers": WORKERS,
        "quic": True,
        "faults": "default",
        "chaos_seed": CHAOS_SEED,
        "collect_metrics": True,
        # The traced run asks the program for probe-level spans; the
        # untraced run keeps its default epoch-level timeline.
        "record_spans": "probe" if traced else True,
        "collect_events": True,
    }


def archive_digest(directory: Path, observed: bool) -> str:
    return digest_dir(directory, exclude=WALL_CLOCK_FILES if observed else ())


class LivenessError(RuntimeError):
    """The pooled study did not run in live worker processes."""


def check_pool(pool, telemetry, parent_cpu: float) -> None:
    """Fail a pooled study that silently ran inline.

    The pool must report every worker alive and no rebuilds, and the
    shards' worker-side busy time must dwarf the parent's own CPU
    time — an inline fallback spends the shard time in the parent.
    """
    state = pool.describe()
    if state["lost"] or not state["started"] or state["workers_alive"] != WORKERS:
        raise LivenessError(f"worker pool not live: {state}")
    if state["rebuilds"]:
        raise LivenessError(f"worker pool was rebuilt: {state}")
    busy = sum(record.elapsed for record in telemetry.shards)
    if not telemetry.shards or parent_cpu > 0.5 * busy:
        raise LivenessError(
            f"shards ran in the parent: parent cpu {parent_cpu:.2f}s, "
            f"shard busy {busy:.2f}s over {len(telemetry.shards)} shards"
        )


def run(workload: str, seed: int, seconds: float, traced: bool, run_dir: Path) -> dict:
    from repro.core.discovery import PoolDiscovery
    from repro.runner import SharedWorkerPool
    from repro.scenario.internet import SyntheticInternet
    from repro.scenario.parameters import params_for_scale
    from repro.study import Study

    observed = workload == "study-observed"
    world_seed = pick(WORLD_SEEDS, seed)
    pinned = load_pins()[workload][str(world_seed)]
    setup_samples = time_setups(
        [sys.executable, str(BENCH / "setup_probe.py"),
         "pooled" if observed else "study", str(SCALE), str(world_seed)],
        SETUP_SAMPLES,
        cwd=run_dir,
    )

    tracer = Tracer()
    if traced:
        install_layer_wrappers(tracer)
    pool = None
    pool_start_s = 0.0
    with tracer.span("setup"):
        if observed:
            started = time.perf_counter()
            pool = SharedWorkerPool(WORKERS)
            if pool.acquire() is None:
                raise LivenessError("worker processes could not start")
            pool_start_s = time.perf_counter() - started
        world = SyntheticInternet(params_for_scale(SCALE, world_seed))
        targets = PoolDiscovery(
            world.vantage_hosts["ugla-wired"], world.dns_addr, world.pool.zone_names()
        ).run().addresses
    if traced:
        tracer.restore()

    rss = PeakRss()
    op_seconds: dict[bool, list[float]] = {False: [], True: []}
    failures: list[str] = []
    counts: dict = {}
    pooled_figures: list[dict] = []
    attempted = 0
    window = time.perf_counter()
    try:
        while True:
            # The traced run alternates untraced and traced operations,
            # so the tracing overhead is measured under the same load.
            with_spans = traced and attempted % 2 == 1
            op_dir = run_dir / f"op-{attempted}"
            attempted += 1
            if with_spans:
                install_layer_wrappers(tracer)
            events_before = world.network.scheduler.dispatched
            sent_before = world.network.counters.sent
            cpu_before = time.process_time()
            try:
                with tracer.span("op") if with_spans else nullcontext():
                    started = time.perf_counter()
                    study = Study.run(
                        scale=SCALE,
                        seed=world_seed,
                        world=world,
                        targets=targets,
                        pool=pool,
                        **study_kwargs(observed, with_spans),
                    )
                    study.report()
                    study.save(op_dir)
                    elapsed = time.perf_counter() - started
                if observed:
                    check_pool(pool, study.telemetry, time.process_time() - cpu_before)
                digest = archive_digest(op_dir, observed)
                if digest != pinned:
                    raise RuntimeError(f"archive digest {digest} != pinned {pinned}")
            except Exception as exc:  # noqa: BLE001 - a failed operation, not a failed run
                failures.append(f"op {attempted - 1}: {type(exc).__name__}: {exc}")
            else:
                op_seconds[with_spans].append(elapsed)
                if not counts:
                    counts = {
                        "events": world.network.scheduler.dispatched - events_before,
                        "sent": world.network.counters.sent - sent_before,
                        "attempts": udp_attempts_per_call(study.traces),
                    }
                if with_spans and observed:
                    pooled_figures.append(pooled_op_figures(study))
            finally:
                if with_spans:
                    tracer.restore()
            rss.sample()
            shutil.rmtree(op_dir, ignore_errors=True)
            done = len(op_seconds[False]) + len(op_seconds[True])
            spent = time.perf_counter() - window
            typical = median(op_seconds[False] + op_seconds[True]) if done else 0.0
            if attempted >= (MIN_TRACED_OPS if traced else MIN_OPS) and (
                spent + typical > seconds or not done
            ):
                break
    finally:
        if pool is not None:
            pool.shutdown()
        reap_children()
    for failure in failures:
        print(f"perfbench: {workload}: {failure}", file=sys.stderr)

    untraced = op_seconds[False]
    ok = len(untraced) + len(op_seconds[True])
    value, pct, samples = tail(untraced)
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "e2e": {
            "setup_s": median(setup_samples),
            "op_p50_s": median(untraced),
            "op_tail_s": value,
            "capacity_per_s": len(untraced) / sum(untraced) if untraced else 0.0,
            "peak_rss_mb": rss.mb,
            "ok_frac": ok / attempted,
        },
        "named": {
            "study_s": median(untraced),
            "study_tail_s": value,
            "tail_pct": pct,
            "samples": samples,
        },
    }
    if traced:
        result["layers"] = layer_figures(
            tracer, observed, counts, pooled_figures, op_seconds, pool_start_s
        )
        tracer.dump(run_dir / "spans.jsonl")
    return result


def pooled_op_figures(study) -> dict:
    """Figures a pooled study already writes: spans and telemetry."""
    spans = study.spans
    children: dict[str, float] = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = children.get(span["parent"], 0.0) + span["wall_ms"]
    calls: dict[str, list[float]] = {}
    measure_self_ms = 0.0
    for span in spans:
        if span["kind"] == "phase":
            calls.setdefault(span["name"], []).append(span["wall_ms"] / 1000)
        elif span["kind"] == "probe" and span["name"].startswith("traceroute-"):
            calls.setdefault("traceroute", []).append(span["wall_ms"] / 1000)
        if span["kind"] == "trace" or (
            span["kind"] == "probe" and span["name"].startswith("probe-")
        ):
            measure_self_ms += span["wall_ms"] - children.get(span["id"], 0.0)
    counters = study.metrics["counters"]
    shards = study.telemetry.shards
    busy = sum(record.elapsed for record in shards)
    events = counters.get("engine.dispatched", 0)
    return {
        "calls": calls,
        "measure.self_s": measure_self_ms / 1000,
        "netsim.events": events,
        "netsim.packets_sent": counters.get("host.tx.tcp", 0)
        + counters.get("host.tx.udp", 0),
        "netsim.us_per_event": 1e6 * busy / events if events else 0.0,
        "runner.shard_busy_s": busy,
        "runner.shard_max_s": max((record.elapsed for record in shards), default=0.0),
        "runner.retries": study.telemetry.total_retries,
        "obs.spans": len(spans),
        "obs.events": len(study.events or ()),
    }


def layer_figures(tracer, observed, counts, pooled, op_seconds, pool_start_s) -> dict:
    groups = tracer.op_spans("op")
    figures = traced_op_figures(groups)
    setup = tracer.op_spans("setup")
    if setup:
        setup_figures = traced_op_figures(setup)
        for name in ("scenario.build_s", "discovery.run_s"):
            figures[name] = setup_figures[name]
    figures["probe.udp.attempts_per_call"] = counts.get("attempts", 0.0)
    if observed and pooled:
        figures.update(probe_figures([op.pop("calls") for op in pooled]))
        for name in pooled[0]:
            values = [op[name] for op in pooled]
            figures[name] = values[0] if name in EXACT_COUNTS else median(values)
        figures["runner.pool_start_s"] = pool_start_s
    else:
        figures["netsim.events"] = counts.get("events", 0)
        figures["netsim.packets_sent"] = counts.get("sent", 0)
        figures["netsim.us_per_event"] = us_per_event(groups, counts.get("events", 0))
    untraced, traced_ops = op_seconds[False], op_seconds[True]
    figures["trace.untraced_op_s"] = median(untraced)
    figures["trace.traced_op_s"] = median(traced_ops)
    figures["trace.overhead_s"] = median(traced_ops) - median(untraced)
    return figures
