"""Regenerate ``pins.json``: the archive digests every workload checks.

Usage (from the root of a checkout)::

    python3 perfbench/pin.py

Run it only when the program's outputs are meant to change: each
digest is what the program produced when it was pinned, and the
benchmark fails any operation whose archive differs.  The served
archives of ``serve-open`` need no pins; they are compared with direct
runs made during the benchmark.
"""

from __future__ import annotations

import json
import shutil

from common import BENCH, RUN_ROOT, bootstrap, digest_dir, reap_children


def pin_studies(observed: bool) -> dict:
    from repro.core.discovery import PoolDiscovery
    from repro.runner import SharedWorkerPool
    from repro.scenario.internet import SyntheticInternet
    from repro.scenario.parameters import params_for_scale
    from repro.study import Study

    import wl_study

    pool = SharedWorkerPool(wl_study.WORKERS) if observed else None
    pins = {}
    try:
        for world_seed in wl_study.WORLD_SEEDS:
            world = SyntheticInternet(params_for_scale(wl_study.SCALE, world_seed))
            targets = PoolDiscovery(
                world.vantage_hosts["ugla-wired"], world.dns_addr, world.pool.zone_names()
            ).run().addresses
            directory = RUN_ROOT / "pin" / f"study-{world_seed}"
            study = Study.run(
                scale=wl_study.SCALE,
                seed=world_seed,
                world=world,
                targets=targets,
                pool=pool,
                **wl_study.study_kwargs(observed, traced=False),
            )
            study.save(directory)
            pins[str(world_seed)] = wl_study.archive_digest(directory, observed)
            shutil.rmtree(directory)
    finally:
        if pool is not None:
            pool.shutdown()
        reap_children()
    return pins


def pin_campaigns() -> dict:
    import wl_campaign

    pins = {}
    for campaign_seed in wl_campaign.CAMPAIGN_SEEDS:
        directory = RUN_ROOT / "pin" / f"campaign-{campaign_seed}"
        driver = wl_campaign.new_campaign(directory, campaign_seed)
        digests = []
        for epoch in range(wl_campaign.PINNED_EPOCHS):
            wl_campaign.run_epoch(driver, epoch)
            digests.append(digest_dir(directory))
        pins[str(campaign_seed)] = digests
        shutil.rmtree(directory)
    return pins


def main() -> None:
    bootstrap()
    pins = {
        "study-seq": pin_studies(observed=False),
        "study-observed": pin_studies(observed=True),
        "campaign-drift": pin_campaigns(),
    }
    (BENCH / "pins.json").write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(RUN_ROOT / "pin", ignore_errors=True)


if __name__ == "__main__":
    main()
