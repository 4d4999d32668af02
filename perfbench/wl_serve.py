"""``serve-open``: tiny studies submitted to ``ecnudp serve`` over HTTP.

The server runs in its own process with a two-worker shared pool.  One
client process holds at most ``min(2, nproc)`` connections.  It first
submits open-loop: arrivals are due on a fixed-rate schedule with
seeded jitter, each slot submits at the due time and streams the run's
progress to completion, and latency runs from the *due* time.  A slot
that is still busy when an arrival falls due makes the generator late;
that lateness is reported and a run where it grew is flagged.  Then a
closed burst measures capacity: every study is submitted at once and
the burst is timed until the last one finishes.

Submissions cycle over three ``(scale, seed)`` points and four tenants,
so the server's world cache sees misses and hits.  Every served archive
is compared byte for byte with a direct ``Study.run(...).save()``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    PeakRss,
    child_env,
    cpu_seconds,
    descendants,
    median,
    reap_children,
    tail,
)
from layers import PHASES, udp_attempts_per_call

POINTS = ((0.002, 3), (0.002, 5), (0.002, 7))
#: Started once before timing so the pool's lazy start is not billed to
#: the first timed submission; a point outside the cycle keeps the
#: cycle's first visits world-cache misses.
WARMUP_POINT = (0.002, 11)
TENANTS = ("alice", "bob", "carol", "dave")
WORKERS = 2
#: Open-loop arrival rate, about half of the burst capacity measured on
#: a 2-core host (3.8 studies/s).
RATE_PER_S = 2.0
JITTER = 0.25
#: Share of the run spent open-loop; closed bursts fill the rest.
OPEN_SHARE = 0.5
#: One burst: four tenants at their quota of four studies each.
BURST = 16
#: Generator lateness beyond this share of the mean gap flags the run.
BEHIND_SHARE = 0.1
SETUP_SAMPLES = 3
SLOTS = max(1, min(2, os.cpu_count() or 1))
ARTIFACTS = (
    "manifest.json",
    "traces.json",
    "traceroutes.json",
    "summary.json",
    "traces.csv",
    "report.txt",
)
TIMEOUT_S = 120


class Server:
    """One ``ecnudp serve`` process on a free localhost port."""

    def __init__(self, run_dir: Path, index: int) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        self.data_dir = run_dir / f"serve-data-{index}"
        self.log = open(run_dir / f"serve-{index}.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", str(self.port), "--workers", str(WORKERS),
             "--data-dir", str(self.data_dir)],
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )

    def wait_ready(self) -> None:
        deadline = time.monotonic() + TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}")
            try:
                status, _ = self.request("GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                time.sleep(0.01)
        raise RuntimeError("server did not accept connections in time")

    def request(self, method: str, path: str, body: dict | None = None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def request_json(self, method: str, path: str, body: dict | None = None):
        status, payload = self.request(method, path, body)
        return status, json.loads(payload) if payload else None

    def wait_finished(self, run_id: str) -> str:
        """Stream a run's progress feed until its terminal event."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)
        try:
            connection.request("GET", f"/studies/{run_id}/progress")
            response = connection.getresponse()
            status = "missing"
            for line in response:
                if line.strip():
                    event = json.loads(line)
                    if event.get("type") == "finished":
                        status = event.get("status", "unknown")
                        break
            return status
        finally:
            connection.close()

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.request("POST", "/admin/shutdown")
            except OSError:
                self.process.terminate()
            try:
                self.process.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()
        reap_children()


class Submissions:
    """Client-side record of every submission (thread-safe)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.done: list[dict] = []
        self.failures: list[str] = []

    def add(self, record: dict) -> None:
        with self.lock:
            self.done.append(record)

    def fail(self, message: str) -> None:
        with self.lock:
            self.failures.append(message)


def submit_and_wait(server: Server, index: int, point, tenant: str, log: Submissions,
                    due: float | None = None) -> None:
    scale, seed = point
    sent = time.perf_counter()
    status, body = server.request_json(
        "POST", "/studies", {"scale": scale, "seed": seed, "tenant": tenant}
    )
    accepted = time.perf_counter()
    if status != 202:
        log.fail(f"submission {index}: HTTP {status} {body}")
        return
    outcome = server.wait_finished(body["run_id"])
    finished = time.perf_counter()
    if outcome != "complete":
        log.fail(f"submission {index}: run {body['run_id']} ended {outcome}")
        return
    log.add({
        "index": index,
        "run_id": body["run_id"],
        "point": point,
        "due": sent if due is None else due,
        "sent": sent,
        "submit_s": accepted - sent,
        "finished": finished,
    })


def open_loop(server: Server, seed: int, seconds: float, log: Submissions) -> int:
    """Fixed-rate arrivals with seeded jitter, served by ``SLOTS`` slots;
    returns how many were due."""
    rng = random.Random(seed)
    gap = 1.0 / RATE_PER_S
    horizon = OPEN_SHARE * seconds
    offsets, due = [], 0.0
    while due < horizon:
        offsets.append(due)
        due += gap * (1 + rng.uniform(-JITTER, JITTER))
    first_point, first_tenant = seed % len(POINTS), seed % len(TENANTS)
    arrivals = [
        (index, offset, POINTS[(first_point + index) % len(POINTS)],
         TENANTS[(first_tenant + index) % len(TENANTS)])
        for index, offset in enumerate(offsets)
    ]
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def slot() -> None:
        while True:
            with lock:
                if not arrivals:
                    return
                index, offset, point, tenant = arrivals.pop(0)
            due_at = start + offset
            pause = due_at - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            try:
                submit_and_wait(server, index, point, tenant, log, due=due_at)
            except Exception as exc:  # noqa: BLE001 - a failed submission, not a failed run
                log.fail(f"submission {index}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=slot) for _ in range(SLOTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return len(offsets)


def closed_burst(server: Server, seed: int, log: Submissions) -> tuple[int, float]:
    """Submit ``BURST`` studies at once; seconds until the last finishes."""
    started = time.perf_counter()
    accepted = []
    for index in range(BURST):
        point = POINTS[(seed + index) % len(POINTS)]
        tenant = TENANTS[index % len(TENANTS)]
        status, body = server.request_json(
            "POST", "/studies",
            {"scale": point[0], "seed": point[1], "tenant": tenant},
        )
        if status != 202:
            log.fail(f"burst {index}: HTTP {status} {body}")
            continue
        accepted.append((index, point, body["run_id"]))
    completed = 0
    for index, point, run_id in accepted:
        outcome = server.wait_finished(run_id)
        if outcome != "complete":
            log.fail(f"burst {index}: run {run_id} ended {outcome}")
            continue
        completed += 1
        log.add({"index": f"burst-{index}", "run_id": run_id, "point": point})
    return completed, time.perf_counter() - started


def file_digests(read) -> dict:
    return {name: hashlib.sha256(read(name)).hexdigest() for name in ARTIFACTS}


def reference_digests(run_dir: Path) -> dict:
    """Direct ``Study.run(...).save()`` of every point, for comparison."""
    from repro.study import Study

    references = {}
    for scale, seed in POINTS:
        directory = run_dir / f"direct-{scale}-{seed}"
        Study.run(scale=scale, seed=seed).save(directory)
        references[(scale, seed)] = (
            directory,
            file_digests(lambda name: (directory / name).read_bytes()),
        )
    return references


def check_archives(server: Server, records: list[dict], references: dict,
                   log: Submissions) -> set[str]:
    """Byte-compare every served archive with its direct reference;
    returns the run ids whose archive is missing or wrong."""
    bad = set()
    for record in records:
        def fetch(name, run_id=record["run_id"]):
            status, payload = server.request("GET", f"/studies/{run_id}/artifacts/{name}")
            if status != 200:
                raise OSError(f"artifact {name} of {run_id}: HTTP {status}")
            return payload

        try:
            served = file_digests(fetch)
        except OSError as exc:
            log.fail(str(exc))
            bad.add(record["run_id"])
            continue
        expected = references[tuple(record["point"])][1]
        wrong = [name for name in ARTIFACTS if served[name] != expected[name]]
        if wrong:
            log.fail(f"run {record['run_id']}: {', '.join(wrong)} differ from a direct run")
            bad.add(record["run_id"])
    return bad


def check_pool(server: Server) -> str | None:
    """Why the server's studies did not run in live workers, or None."""
    status, health = server.request_json("GET", "/healthz")
    pool = (health or {}).get("pool") or {}
    if status != 200 or pool.get("lost") or pool.get("workers_alive") != WORKERS:
        return f"worker pool not live: HTTP {status} {health}"
    if pool.get("rebuilds"):
        return f"worker pool was rebuilt: {pool}"
    # An inline fallback leaves the pool's workers idle: require each
    # worker process (children of the forkserver) to have done work.
    tree = descendants(server.process.pid)
    busy = [pid for pid in tree if cpu_seconds(pid) > 0.5]
    if len(busy) < WORKERS:
        return f"only {len(busy)} of {len(tree)} server child processes did work"
    return None


def run(workload: str, seed: int, seconds: float, traced: bool, run_dir: Path) -> dict:
    setup_samples = []
    server = None
    for index in range(SETUP_SAMPLES):
        if server is not None:
            server.stop()
        started = time.perf_counter()
        server = Server(run_dir, index)
        server.wait_ready()
        setup_samples.append(time.perf_counter() - started)

    log = Submissions()
    rss = PeakRss()
    try:
        submit_and_wait(server, -1, WARMUP_POINT, TENANTS[0], log)
        if log.failures:
            raise RuntimeError(f"warm-up study failed: {log.failures}")
        log.done.clear()
        window = time.perf_counter()
        open_attempted = open_loop(server, seed, seconds, log)
        open_records = list(log.done)
        # Closed bursts until the run's time is used, at least one.
        bursts = burst_done = 0
        burst_s = 0.0
        while bursts == 0 or time.perf_counter() - window + burst_s / bursts < seconds:
            done, elapsed = closed_burst(server, seed + bursts, log)
            bursts += 1
            burst_done += done
            burst_s += elapsed
        attempted = open_attempted + bursts * BURST
        rss.sample()
        liveness = check_pool(server)
        _, metrics_doc = server.request_json("GET", "/metrics")
        run_seconds = []
        for record in log.done:
            _, status = server.request_json("GET", f"/studies/{record['run_id']}")
            run_seconds.append(status.get("elapsed_seconds", 0.0))
        references = reference_digests(run_dir)
        bad = check_archives(server, log.done, references, log)
    finally:
        server.stop()
    for failure in log.failures + ([liveness] if liveness else []):
        print(f"perfbench: {workload}: {failure}", file=sys.stderr)

    # A wrong archive is a failure, never a fast study.
    open_records = [r for r in open_records if r["run_id"] not in bad]
    burst_done -= sum(1 for r in log.done if r["run_id"] in bad and "due" not in r)
    latencies = [r["finished"] - r["due"] for r in open_records]
    lateness = [r["sent"] - r["due"] for r in open_records]
    behind = max(lateness, default=0.0) > BEHIND_SHARE / RATE_PER_S
    if behind:
        print(
            f"perfbench: {workload}: generator fell behind "
            f"(max lateness {1000 * max(lateness):.1f} ms); latency includes the wait",
            file=sys.stderr,
        )
    value, pct, samples = tail(latencies)
    capacity = burst_done / burst_s if burst_s else 0.0
    # Studies that ran inline fail as a whole; otherwise each submission
    # that was refused, failed or archived wrong bytes is one failure.
    failed = attempted if liveness else min(attempted, len(log.failures))
    result = {
        "attempted": attempted,
        "failed": failed,
        "e2e": {
            "setup_s": median(setup_samples),
            "op_p50_s": median(latencies),
            "op_tail_s": value,
            "capacity_per_s": capacity,
            "peak_rss_mb": rss.mb,
            "ok_frac": (attempted - failed) / attempted,
        },
        "named": {
            "serve_latency_p50_s": median(latencies),
            "serve_latency_tail_s": value,
            "tail_pct": pct,
            "samples": samples,
            "serve_capacity_per_s": capacity,
            "gen_behind": behind,
        },
    }
    if traced:
        from repro.obs.metrics import histogram_sum

        counters = metrics_doc["metrics"].get("counters", {})
        hits = counters.get("serve.world_cache.hits", 0)
        misses = counters.get("serve.world_cache.misses", 0)
        wait = metrics_doc["metrics"].get("histograms", {}).get("serve.queue_wait_seconds", {})
        layers = {
            "serve.submit_ms": 1000 * median(r["submit_s"] for r in open_records),
            "serve.queue_wait_s": histogram_sum(wait) / max(1, wait.get("count", 0)),
            "serve.run_s": median(run_seconds),
            "serve.world_cache.hit_frac": hits / max(1, hits + misses),
            "serve.gen_lateness_ms": 1000 * median(lateness),
            "serve.gen_lateness_max_ms": 1000 * max(lateness, default=0.0),
            "serve.gen_behind": int(behind),
            "serve.latency_samples": samples,
            "serve.tail_pct": pct,
        }
        layers.update(archive_counts(references))
        result["layers"] = layers
    return result


def archive_counts(references: dict) -> dict:
    """Probe counts of one pass over the points, from their archives.

    Probes run inside the server's workers, out of the benchmark's
    reach; the archives the server writes (byte-identical to these
    references) say how many calls each phase made.
    """
    from repro.core.traces import TraceSet, TracerouteCampaign

    counts = {f"probe.{phase}.calls": 0 for phase in PHASES}
    counts["traceroute.calls"] = 0
    attempts = calls = 0.0
    for directory, _ in references.values():
        traces = TraceSet.load(directory / "traces.json")
        outcomes = sum(len(trace.outcomes) for trace in traces)
        for phase in PHASES[:4]:
            counts[f"probe.{phase}.calls"] += outcomes
        counts["traceroute.calls"] += len(TracerouteCampaign.load(directory / "traceroutes.json"))
        attempts += udp_attempts_per_call(traces) * 2 * outcomes
        calls += 2 * outcomes
    counts["probe.udp.attempts_per_call"] = attempts / calls if calls else 0.0
    return counts

