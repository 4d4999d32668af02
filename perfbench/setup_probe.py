"""One set-up, timed by the parent from spawn to the ``ready`` line.

Usage: ``python3 perfbench/setup_probe.py {study|pooled|campaign} SCALE SEED``

* ``study``    imports, world build and pool discovery;
* ``pooled``   the same plus a started two-worker shared pool;
* ``campaign`` imports and a fresh campaign archive (each epoch builds
  its own drifted world, so world build belongs to the epoch).

After ``ready`` the probe waits for its stdin to close, then tears
down; teardown is never part of the measured set-up.
"""

from __future__ import annotations

import os
import shutil
import sys

from common import RUN_ROOT, reap_children


def main(kind: str, scale: float, seed: int) -> None:
    teardown = []
    if kind == "campaign":
        from repro.campaign import CampaignDriver, CampaignSpec

        scratch = RUN_ROOT / f"setup-{os.getpid()}"
        teardown.append(lambda: shutil.rmtree(scratch, ignore_errors=True))
        CampaignDriver.create(
            scratch / "campaign",
            CampaignSpec(scale=scale, seed=seed, timeline="fresh-look"),
            1,
        )
    else:
        from repro.core.discovery import PoolDiscovery
        from repro.scenario.internet import SyntheticInternet
        from repro.scenario.parameters import params_for_scale
        from repro.study import Study  # noqa: F401 - the workload's import cost

        if kind == "pooled":
            from repro.runner import SharedWorkerPool

            pool = SharedWorkerPool(2)
            teardown.append(pool.shutdown)
            if pool.acquire() is None:
                raise SystemExit("worker processes could not start")
        world = SyntheticInternet(params_for_scale(scale, seed))
        PoolDiscovery(
            world.vantage_hosts["ugla-wired"], world.dns_addr, world.pool.zone_names()
        ).run()
    print("ready", flush=True)
    sys.stdin.read()
    for step in teardown:
        step()
    reap_children()


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), int(sys.argv[3]))
