"""``campaign-drift``: a fresh-look campaign extended one epoch at a time.

An operation is one campaign epoch as an operator extending a recurring
campaign sees it: raise the target by one and run the driver, which
builds the drifted world, runs and saves the study, digests and
checkpoints it, merges the trend, runs the SLO watchdog and rewrites
the report.  After every epoch the whole campaign directory must match
its pinned digest; a run that reaches the last pinned epoch starts a
new campaign, so every measured epoch is checked.
"""

from __future__ import annotations

import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from common import BENCH, PeakRss, digest_dir, load_pins, median, pick, tail, time_setups
from layers import install_layer_wrappers, traced_op_figures, udp_attempts_per_call, us_per_event
from tracer import Tracer

SCALE = 0.02
CAMPAIGN_SEEDS = (20150401, 20150402, 20150403, 20150404)
TIMELINE = "fresh-look"
#: Epochs per campaign; a run cycles through fresh campaigns of this
#: length, so every run measures the same mix of drift years.
PINNED_EPOCHS = 4
SETUP_SAMPLES = 3
MIN_OPS = 3


def new_campaign(directory: Path, campaign_seed: int):
    from repro.campaign import CampaignDriver, CampaignSpec

    shutil.rmtree(directory, ignore_errors=True)
    return CampaignDriver.create(
        directory,
        CampaignSpec(scale=SCALE, seed=campaign_seed, timeline=TIMELINE),
        1,
    )


def run_epoch(driver, epoch: int) -> None:
    """Extend the campaign to ``epoch + 1`` epochs and run it."""
    driver.archive.extend_target(epoch + 1)
    driver.run()


def run(workload: str, seed: int, seconds: float, traced: bool, run_dir: Path) -> dict:
    from repro.core.traces import TraceSet

    campaign_seed = pick(CAMPAIGN_SEEDS, seed)
    pinned = load_pins()[workload][str(campaign_seed)]
    setup_samples = time_setups(
        [sys.executable, str(BENCH / "setup_probe.py"), "campaign", str(SCALE),
         str(campaign_seed)],
        SETUP_SAMPLES,
        cwd=run_dir,
    )
    tracer = Tracer()
    generation = epoch = 0
    driver = new_campaign(run_dir / f"campaign-{generation}", campaign_seed)
    rss = PeakRss()
    op_seconds: list[float] = []
    failures: list[str] = []
    counts: dict = {}
    attempted = 0
    window = time.perf_counter()
    while True:
        if epoch == PINNED_EPOCHS:
            shutil.rmtree(driver.archive.directory, ignore_errors=True)
            generation += 1
            epoch = 0
            driver = new_campaign(run_dir / f"campaign-{generation}", campaign_seed)
        attempted += 1
        if traced:
            install_layer_wrappers(tracer)
        try:
            with tracer.span("op") if traced else nullcontext():
                started = time.perf_counter()
                run_epoch(driver, epoch)
                elapsed = time.perf_counter() - started
            digest = digest_dir(driver.archive.directory)
            if digest != pinned[epoch]:
                raise RuntimeError(f"campaign digest {digest} != pinned {pinned[epoch]}")
        except Exception as exc:  # noqa: BLE001 - a failed epoch, not a failed run
            failures.append(f"epoch {epoch}: {type(exc).__name__}: {exc}")
            # A half-run epoch leaves the archive mid-protocol; carry on
            # with a fresh campaign.
            epoch = PINNED_EPOCHS - 1
        else:
            op_seconds.append(elapsed)
            if traced and not counts:
                world = tracer.captured["scenario.build"][-1]
                traces = TraceSet.load(driver.archive.epoch_dir(epoch) / "traces.json")
                counts = {
                    "netsim.events": world.network.scheduler.dispatched,
                    "netsim.packets_sent": world.network.counters.sent,
                    "probe.udp.attempts_per_call": udp_attempts_per_call(traces),
                }
        finally:
            tracer.restore()
        # Captured worlds would otherwise stay alive for the whole run.
        tracer.captured.clear()
        epoch += 1
        rss.sample()
        spent = time.perf_counter() - window
        if attempted >= MIN_OPS and (spent + median(op_seconds or [0.0]) > seconds or not op_seconds):
            break
    shutil.rmtree(driver.archive.directory, ignore_errors=True)
    for failure in failures:
        print(f"perfbench: {workload}: {failure}", file=sys.stderr)

    value, pct, samples = tail(op_seconds)
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "e2e": {
            "setup_s": median(setup_samples),
            "op_p50_s": median(op_seconds),
            "op_tail_s": value,
            "capacity_per_s": len(op_seconds) / sum(op_seconds) if op_seconds else 0.0,
            "peak_rss_mb": rss.mb,
            "ok_frac": len(op_seconds) / attempted,
        },
        "named": {"epoch_s": median(op_seconds), "epoch_tail_s": value,
                  "tail_pct": pct, "samples": samples},
    }
    if traced:
        layers = traced_op_figures(tracer.op_spans("op"))
        layers.update(counts)
        layers["netsim.us_per_event"] = us_per_event(
            tracer.op_spans("op"), counts.get("netsim.events", 0)
        )
        result["layers"] = layers
        tracer.dump(run_dir / "spans.jsonl")
    return result
