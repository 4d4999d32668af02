"""The metric catalogue and the per-layer figures every workload shares.

Layer names follow the ``src/repro`` modules, and probe phases use the
span-phase names of ``repro.core.measurement`` (the ones the
``ecnudp report --dashboard`` phase table shows), so the ledger and
the dashboard agree on what a layer is.

Per-layer values are per operation (one study, one served study or
one campaign epoch): times are medians over the traced operations,
counts are the first traced operation's and repeat exactly for a given
seed.  A layer that does not run in a workload, or cannot be observed
from outside the process that runs it, reports 0.
"""

from __future__ import annotations

from common import median, percentile
from tracer import durations, self_times

PHASES = ("udp-plain", "udp-ect", "tcp-plain", "tcp-ecn", "quic")

#: ``(name, unit, better)`` for every end-to-end metric (untraced runs).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("op_tail_s", "s", "lower"),
    ("capacity_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "frac", "higher"),
)

#: ``(name, unit, better)`` for every per-layer metric (traced runs).
PER_LAYER = (
    *(
        (f"probe.{phase}.{stat}", unit, better)
        for phase in PHASES
        for stat, unit, better in (
            ("calls", "count", "lower"),
            ("busy_s", "s", "lower"),
            ("p50_ms", "ms", "lower"),
            ("p99_ms", "ms", "lower"),
        )
    ),
    ("probe.udp.attempts_per_call", "count", "lower"),
    ("traceroute.calls", "count", "lower"),
    ("traceroute.busy_s", "s", "lower"),
    ("traceroute.p50_ms", "ms", "lower"),
    ("measure.self_s", "s", "lower"),
    ("netsim.events", "count", "lower"),
    ("netsim.packets_sent", "count", "lower"),
    ("netsim.us_per_event", "us", "lower"),
    ("scenario.build_s", "s", "lower"),
    ("scenario.begin_epoch_s", "s", "lower"),
    ("discovery.run_s", "s", "lower"),
    ("runner.pool_start_s", "s", "lower"),
    ("runner.parallel_s", "s", "lower"),
    ("runner.shard_busy_s", "s", "lower"),
    ("runner.shard_max_s", "s", "lower"),
    ("runner.retries", "count", "lower"),
    ("runner.merge_s", "s", "lower"),
    ("obs.spans", "count", "lower"),
    ("obs.events", "count", "lower"),
    ("obs.export_s", "s", "lower"),
    ("analysis.report_s", "s", "lower"),
    ("archive.save_s", "s", "lower"),
    ("serve.submit_ms", "ms", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.run_s", "s", "lower"),
    ("serve.world_cache.hit_frac", "frac", "higher"),
    ("serve.gen_lateness_ms", "ms", "lower"),
    ("serve.gen_lateness_max_ms", "ms", "lower"),
    ("serve.gen_behind", "count", "lower"),
    ("serve.latency_samples", "count", "higher"),
    ("serve.tail_pct", "%", "higher"),
    ("campaign.digest_s", "s", "lower"),
    ("campaign.checkpoint_s", "s", "lower"),
    ("campaign.merge_s", "s", "lower"),
    ("campaign.watch_s", "s", "lower"),
    ("campaign.report_s", "s", "lower"),
    ("trace.untraced_op_s", "s", "lower"),
    ("trace.traced_op_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("ctx.nproc", "count", "higher"),
    ("ctx.python", "version", "higher"),
    ("ctx.calibration_s", "s", "lower"),
)

def filled(values: dict) -> dict:
    """Every per-layer metric, zero where ``values`` has none."""
    unknown = set(values) - {name for name, _, _ in PER_LAYER}
    if unknown:
        raise KeyError(f"not in the per-layer catalogue: {sorted(unknown)}")
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit, _ in PER_LAYER
    }


def end_to_end(values: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def context_values(ctx: dict) -> dict:
    major, minor = (int(part) for part in ctx["python"].split(".")[:2])
    return {
        "ctx.nproc": ctx["nproc"],
        "ctx.python": 100 * major + minor,
        "ctx.calibration_s": ctx["calibration_s"],
    }


# ----------------------------------------------------------------------
# Probe and orchestration figures
# ----------------------------------------------------------------------
def probe_figures(calls_by_op: list[dict[str, list[float]]]) -> dict:
    """Probe-layer figures from per-operation call durations (seconds).

    ``calls_by_op[i]`` maps ``udp-plain`` ... ``quic`` and
    ``traceroute`` to the durations of operation ``i``'s calls.
    """
    figures: dict = {}
    for phase in (*PHASES, "traceroute"):
        per_op = [op.get(phase, []) for op in calls_by_op]
        every = [value for calls in per_op for value in calls]
        prefix = "traceroute" if phase == "traceroute" else f"probe.{phase}"
        figures[f"{prefix}.calls"] = len(per_op[0]) if per_op else 0
        figures[f"{prefix}.busy_s"] = median(sum(calls) for calls in per_op)
        figures[f"{prefix}.p50_ms"] = 1000 * percentile(every, 0.50)
        if phase != "traceroute":
            figures[f"{prefix}.p99_ms"] = 1000 * percentile(every, 0.99)
    return figures


def udp_attempts_per_call(trace_set) -> float:
    """Mean NTP transmissions per UDP probe, from a study's traces."""
    attempts = calls = 0
    for trace in trace_set:
        for outcome in trace.outcomes.values():
            attempts += outcome.udp_plain_attempts + outcome.udp_ect_attempts
            calls += 2
    return attempts / calls if calls else 0.0


def traced_op_figures(op_groups: list[list[list]]) -> dict:
    """Figures from the benchmark's own spans, one group per operation.

    Span names are the wrapper names installed by
    :func:`install_layer_wrappers`.
    """
    calls = [
        {name: found.get(name, []) for name in (*PHASES, "traceroute")}
        for found in (durations(group) for group in op_groups)
    ]
    figures = probe_figures(calls)
    selfs = [self_times(group) for group in op_groups]
    totals = [durations(group) for group in op_groups]

    def total(name: str) -> float:
        return median(sum(found.get(name, [])) for found in totals)

    figures["measure.self_s"] = median(
        found.get("measure_server", 0.0) + found.get("run_trace", 0.0) for found in selfs
    )
    figures["scenario.build_s"] = total("scenario.build")
    figures["scenario.begin_epoch_s"] = total("scenario.begin_epoch")
    figures["discovery.run_s"] = total("discovery.run")
    figures["analysis.report_s"] = total("report")
    figures["archive.save_s"] = median(found.get("save", 0.0) for found in selfs)
    figures["runner.parallel_s"] = total("runner.parallel")
    figures["runner.merge_s"] = total("runner.merge")
    figures["obs.export_s"] = total("obs.export")
    for step in ("digest", "checkpoint", "merge", "watch", "report"):
        figures[f"campaign.{step}_s"] = total(f"campaign.{step}")
    return figures


def us_per_event(op_groups: list[list[list]], events: int) -> float:
    """Wall microseconds per dispatched event over the measurement loops
    (every trace and every traceroute) of the median operation."""
    loops = [
        sum(found.get("run_trace", [])) + sum(found.get("traceroute", []))
        for found in (durations(group) for group in op_groups)
    ]
    return 1e6 * median(loops) / events if events else 0.0


def install_layer_wrappers(tracer) -> None:
    """Wrap the public entry points of every in-process layer."""
    import repro.campaign.driver as campaign_driver
    import repro.core.measurement as measurement
    import repro.runner as runner
    import repro.study as study_module
    from repro.campaign import CampaignArchive
    from repro.core.discovery import PoolDiscovery
    from repro.netsim.ecn import ECN
    from repro.obs import RunTelemetry
    from repro.scenario.internet import SyntheticInternet

    def udp_phase(args, kwargs):
        ecn = kwargs.get("ecn", args[2] if len(args) > 2 else None)
        return "udp-plain" if ecn == ECN.NOT_ECT else "udp-ect"

    def tcp_phase(args, kwargs):
        use_ecn = kwargs.get("use_ecn", args[2] if len(args) > 2 else None)
        return "tcp-ecn" if use_ecn else "tcp-plain"

    tracer.wrap(measurement, "probe_udp", "udp", namer=udp_phase)
    tracer.wrap(measurement, "probe_tcp", "tcp", namer=tcp_phase)
    tracer.wrap(measurement, "probe_quic", "quic")
    tracer.wrap(measurement, "run_traceroute", "traceroute")
    tracer.wrap(measurement.MeasurementApplication, "measure_server", "measure_server")
    tracer.wrap(measurement.MeasurementApplication, "run_trace", "run_trace")
    tracer.wrap(SyntheticInternet, "__init__", "scenario.build", capture=True)
    tracer.wrap(SyntheticInternet, "begin_epoch", "scenario.begin_epoch")
    tracer.wrap(PoolDiscovery, "run", "discovery.run")
    tracer.wrap(study_module.Study, "report", "report")
    tracer.wrap(study_module.Study, "save", "save")
    tracer.wrap(runner, "run_study_parallel", "runner.parallel")
    for name in ("merge_traces", "merge_campaign"):
        tracer.wrap(runner, name, "runner.merge")
    tracer.wrap(RunTelemetry, "merge_metrics", "runner.merge")
    for name in (
        "export_metrics_json",
        "export_telemetry_json",
        "export_spans_json",
        "export_chrome_trace",
        "render_events_jsonl",
    ):
        tracer.wrap(study_module, name, "obs.export")
    tracer.wrap(CampaignArchive, "digest_epoch", "campaign.digest")
    tracer.wrap(CampaignArchive, "record_epoch", "campaign.checkpoint")
    tracer.wrap(CampaignArchive, "merge_epoch", "campaign.merge")
    tracer.wrap(CampaignArchive, "refresh_alerts", "campaign.watch")
    tracer.wrap(campaign_driver, "render_trend_report", "campaign.report")
