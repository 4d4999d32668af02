"""Shared helpers: statistics, archive digests, process facts, output.

Everything here is benchmark-side bookkeeping; nothing reaches into
the program beyond its public import surface.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Checkout root (the benchmark runs from it) and the program sources.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
#: Scratch space for archives and span dumps, inside the checkout.
RUN_ROOT = ROOT / ".bench_run"

#: A tail percentile needs this many samples strictly beyond it.
TAIL_BEYOND = 10


def bootstrap() -> None:
    """Make the program importable, or fail before any work starts."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: program sources not found at {SRC}; run from a checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child Python processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1]); 0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile that
    still has :data:`TAIL_BEYOND` samples beyond it.

    Below ``2 * TAIL_BEYOND + 1`` samples that percentile would sit at
    or under the median; the maximum stands in then (reported as
    percentile 100), and the sample count beside it says how much
    weight the figure carries.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return 0.0, 0.0, 0
    if count <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, count
    index = count - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / count, count


# ----------------------------------------------------------------------
# Archives
# ----------------------------------------------------------------------
def digest_dir(directory: Path, exclude: tuple[str, ...] = ()) -> str:
    """SHA-256 over every file's relative path and bytes, sorted.

    ``exclude`` names top-level files that carry wall-clock facts
    (telemetry, span wall times) and so cannot be pinned.
    """
    digest = hashlib.sha256()
    for path in sorted(p for p in Path(directory).rglob("*") if p.is_file()):
        relative = path.relative_to(directory).as_posix()
        if relative in exclude:
            continue
        digest.update(relative.encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def load_pins() -> dict:
    return json.loads((BENCH / "pins.json").read_text())


def pick(choices, seed: int):
    """The benchmark seed selects one of a pinned set of inputs."""
    return choices[seed % len(choices)]


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass
    return 0


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` (pool workers, forkservers)."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
        parents.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class PeakRss:
    """Largest resident set seen across this process and its tree.

    Live processes report their own high-water mark (``VmHWM``);
    :meth:`sample` must run while pool workers and servers are still
    up.  Reaped children are covered by ``RUSAGE_CHILDREN``.
    """

    def __init__(self) -> None:
        self.kb = 0

    def sample(self) -> None:
        for pid in [os.getpid(), *descendants(os.getpid())]:
            self.kb = max(self.kb, _status_kb(pid, "VmHWM"))

    @property
    def mb(self) -> float:
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(self.kb, reaped, own) / 1024.0


def _stop(pid: int, grace: float = 0.2) -> None:
    """SIGTERM, then SIGKILL after ``grace`` seconds (multiprocessing's
    resource tracker ignores SIGTERM); waits for the exit either way."""
    try:
        os.kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            if os.waitpid(pid, os.WNOHANG)[0] == pid:
                return
            time.sleep(0.01)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass


def reap_children() -> None:
    """Stop and wait for every child still alive (a pool's forkserver
    outlives the pool itself)."""
    me = os.getpid()
    for pid in descendants(me):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                parent = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (FileNotFoundError, ProcessLookupError):
            continue
        if parent != me:
            continue
        _stop(pid)
    # Adopted orphans that already exited are zombies until waited.
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def time_setups(command: list[str], count: int, cwd: Path) -> list[float]:
    """Spawn ``command`` ``count`` times; seconds until each says ready.

    The child prints ``ready`` once its first timed operation could
    begin, then waits for its stdin to close, so teardown is never
    timed.  A child that exits without ``ready`` is a failed set-up.
    """
    samples = []
    for _ in range(count):
        started = time.perf_counter()
        child = subprocess.Popen(
            command,
            cwd=cwd,
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            if line.strip() != "ready":
                raise RuntimeError(f"set-up child did not become ready: {line!r}")
            samples.append(elapsed)
        finally:
            child.stdin.close()
            child.wait(timeout=60)
            child.stdout.close()
    return samples


# ----------------------------------------------------------------------
# Context and output
# ----------------------------------------------------------------------
def context() -> dict:
    """Machine context recorded with every result set."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from check_regression import calibration_seconds
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "calibration_s": calibration_seconds(),
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """The result line: always the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
