"""Submission validation and the multi-tenant study queue.

The server admits study submissions into a bounded **priority queue**
with per-tenant quotas.  Admission control is explicit backpressure,
not silent buffering: a full queue or an exhausted tenant quota raises
(mapped to ``429`` + ``Retry-After`` by the HTTP layer) instead of
queueing without bound — the paper-scale version of "heavy traffic
from many users" is useless if one tenant can wedge the service.

Ordering is total and deterministic: higher ``priority`` first, FIFO
by admission sequence within a priority.  The queue is a plain value
store with a :meth:`~StudyQueue.snapshot`/:meth:`~StudyQueue.restore`
pair, which is what graceful shutdown persists and restart resumes —
run ids survive a restart, so a submitted study is executed exactly
once even across a server generation.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Mapping
from dataclasses import dataclass

from ..options import OptionsError, RunOptions

#: Version tag for persisted queue snapshots.
QUEUE_FORMAT = "ecn-udp-queue/1"

#: Inclusive bounds on a submission's priority knob.
PRIORITY_MIN, PRIORITY_MAX = -10, 10

class ValidationError(ValueError):
    """A submission document that cannot become a study."""


#: Upper bound on epochs per campaign submission.  Campaigns are
#: *recurring*: re-submitting the same campaign ``id`` extends the
#: archive by another batch of epochs, so the cap bounds one grant of
#: queue time, not the campaign's lifetime length.
MAX_CAMPAIGN_EPOCHS = 32


@dataclass(frozen=True)
class CampaignJob:
    """The campaign-shaped part of a submission, validated.

    ``id`` names the on-disk campaign archive; re-submitting with the
    same id resumes and extends it (the recurring-job idiom).  ``None``
    derives the archive name from the run id — a one-shot campaign.
    """

    epochs: int
    start_year: float = 2015.33
    cadence_years: float = 1.0
    timeline: str = "fresh-look"
    pool_churn: bool = True
    id: str | None = None

    def to_dict(self) -> dict:
        payload: dict = {"epochs": self.epochs}
        if self.start_year != 2015.33:
            payload["start_year"] = self.start_year
        if self.cadence_years != 1.0:
            payload["cadence_years"] = self.cadence_years
        if self.timeline != "fresh-look":
            payload["timeline"] = self.timeline
        if not self.pool_churn:
            payload["pool_churn"] = False
        if self.id is not None:
            payload["id"] = self.id
        return payload


def validate_campaign(payload) -> CampaignJob:
    """Validate a submission's nested ``campaign`` object."""
    from ..scenario.timeline import TIMELINES

    if not isinstance(payload, Mapping):
        raise ValidationError(f"campaign must be a JSON object: {payload!r}")
    known = {"epochs", "start_year", "cadence_years", "timeline", "pool_churn", "id"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValidationError(f"unknown campaign field(s): {', '.join(unknown)}")
    epochs = payload.get("epochs")
    if isinstance(epochs, bool) or not isinstance(epochs, int):
        raise ValidationError(f"campaign epochs must be an integer: {epochs!r}")
    if not 1 <= epochs <= MAX_CAMPAIGN_EPOCHS:
        raise ValidationError(
            f"campaign epochs must be in [1, {MAX_CAMPAIGN_EPOCHS}]: {epochs!r}"
        )
    start_year = payload.get("start_year", 2015.33)
    if isinstance(start_year, bool) or not isinstance(start_year, (int, float)):
        raise ValidationError(f"campaign start_year must be a number: {start_year!r}")
    cadence = payload.get("cadence_years", 1.0)
    if isinstance(cadence, bool) or not isinstance(cadence, (int, float)):
        raise ValidationError(f"campaign cadence_years must be a number: {cadence!r}")
    if float(cadence) <= 0:
        raise ValidationError(f"campaign cadence_years must be > 0: {cadence!r}")
    timeline = payload.get("timeline", "fresh-look")
    if not isinstance(timeline, str) or timeline not in TIMELINES:
        known_timelines = ", ".join(sorted(TIMELINES))
        raise ValidationError(
            f"unknown campaign timeline {timeline!r}; one of: {known_timelines}"
        )
    pool_churn = payload.get("pool_churn", True)
    if not isinstance(pool_churn, bool):
        raise ValidationError(f"campaign pool_churn must be a boolean: {pool_churn!r}")
    campaign_id = payload.get("id")
    if campaign_id is not None:
        # Same character discipline as tenants: the id becomes a
        # directory name under the results root.
        if (
            not isinstance(campaign_id, str)
            or not campaign_id
            or len(campaign_id) > 64
            or not all(c.isalnum() or c in "-_." for c in campaign_id)
            or campaign_id.startswith(".")
        ):
            raise ValidationError(
                f"campaign id must be <=64 chars of [alnum - _ .], not "
                f"starting with '.': {campaign_id!r}"
            )
    return CampaignJob(
        epochs=epochs,
        start_year=float(start_year),
        cadence_years=float(cadence),
        timeline=timeline,
        pool_churn=pool_churn,
        id=campaign_id,
    )


class QueueFull(RuntimeError):
    """The global queue depth is exhausted (back off and retry)."""

    def __init__(self, depth: int, retry_after: float) -> None:
        super().__init__(f"study queue is full ({depth} deep)")
        self.retry_after = retry_after


class QuotaExceeded(RuntimeError):
    """One tenant holds its full quota of queued + running studies."""

    def __init__(self, tenant: str, quota: int, retry_after: float) -> None:
        super().__init__(
            f"tenant {tenant!r} is at its quota of {quota} queued/running studies"
        )
        self.tenant = tenant
        self.retry_after = retry_after


@dataclass(frozen=True)
class StudyParams:
    """The validated, hashable parameters of one requested study.

    ``(scale, seed)`` is the world-cache key: submissions agreeing on
    it share a cached synthetic Internet (and discovery), never cached
    *results* — every run executes and archives separately.
    """

    options: RunOptions
    #: Set when the submission is a longitudinal campaign rather than
    #: a single study; the scheduler routes it to the campaign driver.
    campaign: CampaignJob | None = None

    def world_key(self) -> tuple[float, int]:
        return (self.options.scale, self.options.seed)

    def to_dict(self) -> dict:
        options = self.options
        payload: dict = {"scale": options.scale, "seed": options.seed}
        if not options.traceroutes:
            payload["traceroutes"] = False
        if options.faults is not None:
            payload["chaos"] = options.faults
            payload["chaos_seed"] = options.chaos_seed
        if self.campaign is not None:
            payload["campaign"] = self.campaign.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StudyParams":
        return validate_params(payload)


#: Submission fields that are study options, by option name: a served
#: study names its chaos profile ``chaos``.  Every other option (QUIC,
#: drift, observability) is not served.
SERVED_OPTIONS = {
    "scale": "scale",
    "seed": "seed",
    "traceroutes": "traceroutes",
    "chaos": "faults",
    "chaos_seed": "chaos_seed",
}


def validate_params(payload) -> StudyParams:
    """Validate a submission document into :class:`StudyParams`.

    The study fields are validated by :class:`~repro.options.RunOptions`.
    Raises :class:`ValidationError` with a message naming the first
    offending field; the server maps it to ``400``.
    """
    if not isinstance(payload, Mapping):
        raise ValidationError("submission must be a JSON object")
    unknown = sorted(set(payload) - {*SERVED_OPTIONS, "campaign", "tenant", "priority"})
    if unknown:
        raise ValidationError(f"unknown field(s): {', '.join(unknown)}")
    try:
        options = RunOptions.from_dict(
            {SERVED_OPTIONS[key]: value for key, value in payload.items() if key in SERVED_OPTIONS}
        )
    except OptionsError as exc:
        raise ValidationError(str(exc)) from exc
    campaign = payload.get("campaign")
    if campaign is not None:
        campaign = validate_campaign(campaign)
    return StudyParams(options=options, campaign=campaign)


def validate_tenant(tenant) -> str:
    if not isinstance(tenant, str) or not tenant:
        raise ValidationError(f"tenant must be a non-empty string: {tenant!r}")
    if len(tenant) > 64 or not all(c.isalnum() or c in "-_." for c in tenant):
        raise ValidationError(
            f"tenant must be <=64 chars of [alnum - _ .]: {tenant!r}"
        )
    return tenant


def validate_priority(priority) -> int:
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise ValidationError(f"priority must be an integer: {priority!r}")
    if not PRIORITY_MIN <= priority <= PRIORITY_MAX:
        raise ValidationError(
            f"priority must be in [{PRIORITY_MIN}, {PRIORITY_MAX}]: {priority!r}"
        )
    return priority


@dataclass(frozen=True)
class Submission:
    """One admitted study: identity + tenancy + validated params."""

    run_id: str
    tenant: str
    params: StudyParams
    priority: int = 0
    #: Admission sequence number: the FIFO tiebreak within a priority,
    #: stable across persistence so restarts preserve ordering.
    seq: int = 0

    def sort_key(self) -> tuple[int, int]:
        # heapq is a min-heap: negate priority so higher runs first.
        return (-self.priority, self.seq)

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "seq": self.seq,
            "params": self.params.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Submission":
        return cls(
            run_id=str(payload["run_id"]),
            tenant=validate_tenant(payload["tenant"]),
            priority=validate_priority(payload.get("priority", 0)),
            seq=int(payload.get("seq", 0)),
            params=validate_params(payload.get("params", {})),
        )


@dataclass
class QueueStats:
    """Counters the queue keeps for the ``serve.*`` metrics feed."""

    admitted: int = 0
    rejected_full: int = 0
    rejected_quota: int = 0
    cancelled: int = 0


class StudyQueue:
    """Bounded multi-tenant priority queue of study submissions.

    Not thread-safe by itself: the server mutates it only from the
    event loop thread.  ``depth`` bounds **queued** submissions (the
    running set is bounded separately by the scheduler's concurrency);
    ``tenant_quota`` bounds queued *plus* running studies per tenant,
    so a tenant cannot monopolise the service by keeping the queue
    drained into running slots.
    """

    def __init__(self, depth: int, tenant_quota: int) -> None:
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1: {depth!r}")
        if tenant_quota < 1:
            raise ValueError(f"tenant quota must be >= 1: {tenant_quota!r}")
        self.depth = depth
        self.tenant_quota = tenant_quota
        self.stats = QueueStats()
        self._heap: list[tuple[tuple[int, int], Submission]] = []
        self._queued: dict[str, Submission] = {}
        self._running: dict[str, str] = {}  # run_id -> tenant
        self._seq = itertools.count()
        #: Hint for ``Retry-After``: a recent average study duration,
        #: updated by the scheduler as runs finish.
        self.avg_run_seconds: float = 5.0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, submission: Submission) -> Submission:
        """Admit a submission (assigning its seq); raises on pressure."""
        if submission.run_id in self._queued or submission.run_id in self._running:
            raise ValidationError(f"duplicate run id {submission.run_id!r}")
        if len(self._queued) >= self.depth:
            self.stats.rejected_full += 1
            raise QueueFull(self.depth, retry_after=self.retry_after())
        tenant_load = self.tenant_load(submission.tenant)
        if tenant_load >= self.tenant_quota:
            self.stats.rejected_quota += 1
            raise QuotaExceeded(
                submission.tenant, self.tenant_quota, retry_after=self.retry_after()
            )
        admitted = Submission(
            run_id=submission.run_id,
            tenant=submission.tenant,
            params=submission.params,
            priority=submission.priority,
            seq=next(self._seq),
        )
        heapq.heappush(self._heap, (admitted.sort_key(), admitted))
        self._queued[admitted.run_id] = admitted
        self.stats.admitted += 1
        return admitted

    def retry_after(self) -> float:
        """Seconds a rejected client should wait before retrying: one
        average study duration, floored at 1s so headers stay sane."""
        return max(1.0, round(self.avg_run_seconds, 1))

    # ------------------------------------------------------------------
    # Dispatch / completion
    # ------------------------------------------------------------------
    def pop(self) -> Submission | None:
        """Take the highest-priority queued submission, mark it running."""
        while self._heap:
            _, submission = heapq.heappop(self._heap)
            if submission.run_id not in self._queued:
                continue  # cancelled while queued; skip the stale entry
            del self._queued[submission.run_id]
            self._running[submission.run_id] = submission.tenant
            return submission
        return None

    def finish(self, run_id: str) -> None:
        """Release a running study's quota slot (complete or failed)."""
        self._running.pop(run_id, None)

    def cancel(self, run_id: str) -> Submission | None:
        """Remove a queued-but-unstarted submission; returns it.

        Running studies cannot be cancelled (shards are already in
        flight on the shared pool); callers get ``None`` and decide
        how to report that.
        """
        submission = self._queued.pop(run_id, None)
        if submission is not None:
            self.stats.cancelled += 1
        return submission

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def tenant_load(self, tenant: str) -> int:
        queued = sum(1 for s in self._queued.values() if s.tenant == tenant)
        running = sum(1 for t in self._running.values() if t == tenant)
        return queued + running

    @property
    def queued_count(self) -> int:
        return len(self._queued)

    @property
    def running_count(self) -> int:
        return len(self._running)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The queued (not running) submissions as a pure document."""
        entries = [
            submission.to_dict()
            for _, submission in sorted(self._heap)
            if submission.run_id in self._queued
        ]
        return {"format": QUEUE_FORMAT, "entries": entries}

    def restore(self, document: Mapping) -> list[Submission]:
        """Re-admit a persisted snapshot; returns the restored entries.

        Restores preserve run ids and relative order (priority, then
        original admission sequence).  Quotas and depth are re-checked
        — a snapshot from a server with looser limits degrades to
        rejecting the tail, which the caller reports rather than
        silently dropping.
        """
        if document.get("format") != QUEUE_FORMAT:
            raise ValidationError(
                f"not a queue snapshot: format {document.get('format')!r}"
            )
        restored: list[Submission] = []
        entries = document.get("entries", [])
        if not isinstance(entries, list):
            raise ValidationError("queue snapshot entries must be a list")
        for raw in entries:
            submission = Submission.from_dict(raw)
            restored.append(self.submit(submission))
        return restored
