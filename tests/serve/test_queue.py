"""Unit tests for submission validation and the multi-tenant queue."""

import json

import pytest

from repro.options import RunOptions
from repro.serve.queue import (
    MAX_CAMPAIGN_EPOCHS,
    QUEUE_FORMAT,
    CampaignJob,
    QueueFull,
    QuotaExceeded,
    StudyParams,
    StudyQueue,
    Submission,
    ValidationError,
    validate_campaign,
    validate_params,
    validate_priority,
    validate_tenant,
)


def sub(run_id, tenant="alice", priority=0, scale=0.01, seed=1):
    return Submission(
        run_id=run_id,
        tenant=tenant,
        priority=priority,
        params=StudyParams(RunOptions(scale=scale, seed=seed)),
    )


class TestValidateParams:
    def test_defaults(self):
        params = validate_params({})
        assert params.options == RunOptions()
        assert params.options.scale == 0.1
        assert params.options.traceroutes is True
        assert params.options.faults is None

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown field"):
            validate_params({"scle": 0.1})

    @pytest.mark.parametrize(
        "payload",
        [
            {"scale": "big"},
            {"scale": True},
            {"scale": 0},
            {"scale": -0.5},
            {"scale": 1.5},
            {"seed": 1.5},
            {"seed": True},
            {"traceroutes": "yes"},
            {"chaos": "nope"},
            {"chaos": 7},
            {"chaos_seed": "x"},
            "not-a-dict",
        ],
    )
    def test_bad_values_rejected(self, payload):
        with pytest.raises(ValidationError):
            validate_params(payload)

    @pytest.mark.parametrize(
        "field", ["quic", "faults", "drift", "collect_metrics", "record_spans", "trace_filter"]
    )
    def test_unserved_options_rejected(self, field):
        with pytest.raises(ValidationError, match="unknown field"):
            validate_params({field: True})

    def test_chaos_profile_accepted(self):
        params = validate_params({"chaos": "light", "chaos_seed": 3})
        assert params.options.faults == "light"
        assert params.options.chaos_seed == 3

    def test_world_key_ignores_execution_knobs(self):
        a = StudyParams(RunOptions(scale=0.01, seed=2, traceroutes=False))
        b = StudyParams(RunOptions(scale=0.01, seed=2, faults="light"))
        assert a.world_key() == b.world_key() == (0.01, 2)

    def test_roundtrip_through_dict(self):
        params = validate_params({"scale": 0.02, "seed": 9, "chaos": "light"})
        assert StudyParams.from_dict(params.to_dict()) == params


class TestValidateIdentity:
    def test_tenant_rules(self):
        assert validate_tenant("alice-1.prod") == "alice-1.prod"
        for bad in (None, "", 42, "a b", "x" * 65, "sl/ash"):
            with pytest.raises(ValidationError):
                validate_tenant(bad)

    def test_priority_rules(self):
        assert validate_priority(10) == 10
        assert validate_priority(-10) == -10
        for bad in ("5", True, 11, -11, 1.5):
            with pytest.raises(ValidationError):
                validate_priority(bad)


class TestQueueOrdering:
    def test_priority_then_fifo(self):
        queue = StudyQueue(depth=10, tenant_quota=10)
        queue.submit(sub("low-1", priority=-1))
        queue.submit(sub("mid-1"))
        queue.submit(sub("high", priority=5))
        queue.submit(sub("mid-2"))
        order = [queue.pop().run_id for _ in range(4)]
        assert order == ["high", "mid-1", "mid-2", "low-1"]
        assert queue.pop() is None

    def test_duplicate_run_id_rejected(self):
        queue = StudyQueue(depth=4, tenant_quota=4)
        queue.submit(sub("a"))
        with pytest.raises(ValidationError, match="duplicate"):
            queue.submit(sub("a"))
        queue.pop()  # now running, still a duplicate
        with pytest.raises(ValidationError, match="duplicate"):
            queue.submit(sub("a"))


class TestBackpressure:
    def test_depth_exhaustion(self):
        queue = StudyQueue(depth=2, tenant_quota=10)
        queue.submit(sub("a"))
        queue.submit(sub("b"))
        with pytest.raises(QueueFull):
            queue.submit(sub("c"))
        assert queue.stats.rejected_full == 1
        # Popping to running frees queue depth.
        queue.pop()
        queue.submit(sub("c"))

    def test_quota_counts_queued_plus_running(self):
        queue = StudyQueue(depth=10, tenant_quota=2)
        queue.submit(sub("a1"))
        queue.submit(sub("a2"))
        queue.pop()  # a1 running, a2 queued: still 2 held by alice
        with pytest.raises(QuotaExceeded):
            queue.submit(sub("a3"))
        assert queue.stats.rejected_quota == 1
        # Other tenants are unaffected.
        queue.submit(sub("b1", tenant="bob"))
        # Finishing the running study frees alice's slot.
        queue.finish("a1")
        queue.submit(sub("a3"))

    def test_retry_after_tracks_run_durations(self):
        queue = StudyQueue(depth=2, tenant_quota=2)
        queue.avg_run_seconds = 12.34
        assert queue.retry_after() == pytest.approx(12.3)
        queue.avg_run_seconds = 0.01
        assert queue.retry_after() == 1.0  # floored


class TestCancel:
    def test_cancel_queued(self):
        queue = StudyQueue(depth=4, tenant_quota=4)
        queue.submit(sub("a"))
        queue.submit(sub("b"))
        cancelled = queue.cancel("a")
        assert cancelled.run_id == "a"
        assert queue.stats.cancelled == 1
        # The stale heap entry is skipped at pop time.
        assert queue.pop().run_id == "b"
        assert queue.pop() is None

    def test_cancel_running_returns_none(self):
        queue = StudyQueue(depth=4, tenant_quota=4)
        queue.submit(sub("a"))
        queue.pop()
        assert queue.cancel("a") is None

    def test_cancel_frees_quota(self):
        queue = StudyQueue(depth=4, tenant_quota=1)
        queue.submit(sub("a"))
        queue.cancel("a")
        queue.submit(sub("b"))  # quota slot released


class TestPersistence:
    def test_snapshot_restore_preserves_order_and_ids(self):
        queue = StudyQueue(depth=10, tenant_quota=10)
        queue.submit(sub("a", priority=0))
        queue.submit(sub("b", priority=3))
        queue.submit(sub("c", priority=0))
        queue.pop()  # b is running: snapshots cover queued only
        snapshot = queue.snapshot()
        assert snapshot["format"] == QUEUE_FORMAT
        assert [e["run_id"] for e in snapshot["entries"]] == ["a", "c"]

        fresh = StudyQueue(depth=10, tenant_quota=10)
        restored = fresh.restore(snapshot)
        assert [s.run_id for s in restored] == ["a", "c"]
        assert fresh.pop().run_id == "a"
        assert fresh.pop().run_id == "c"

    def test_earlier_snapshot_format_still_loads(self):
        """An ``ecn-udp-queue/1`` snapshot as earlier servers wrote it
        restores to equal submissions, and re-snapshots byte-identically."""
        document = (
            '{"format": "ecn-udp-queue/1", "entries": ['
            '{"run_id": "run-b", "tenant": "bob", "priority": 2, "seq": 1, "params": '
            '{"scale": 0.01, "seed": 20150401, "traceroutes": false, "chaos": "light", '
            '"chaos_seed": 3}}, '
            '{"run_id": "run-a", "tenant": "alice", "priority": 0, "seq": 0, "params": '
            '{"scale": 0.02, "seed": 9}}, '
            '{"run_id": "run-c", "tenant": "alice", "priority": 0, "seq": 2, "params": '
            '{"scale": 0.05, "seed": 4, "campaign": {"epochs": 2, "cadence_years": 3.5, '
            '"id": "drift-1"}}}]}'
        )
        queue = StudyQueue(depth=10, tenant_quota=10)
        restored = queue.restore(json.loads(document))
        chaotic = RunOptions(scale=0.01, traceroutes=False, faults="light", chaos_seed=3)
        expected = [
            ("run-b", "bob", 2, chaotic),
            ("run-a", "alice", 0, RunOptions(scale=0.02, seed=9)),
            ("run-c", "alice", 0, RunOptions(scale=0.05, seed=4)),
        ]
        assert [(s.run_id, s.tenant, s.priority, s.params.options) for s in restored] == expected
        assert restored[2].params.campaign == CampaignJob(
            epochs=2, cadence_years=3.5, id="drift-1"
        )
        written = [entry["params"] for entry in queue.snapshot()["entries"]]
        earlier = [entry["params"] for entry in json.loads(document)["entries"]]
        assert json.dumps(written) == json.dumps(earlier)

    def test_restore_rejects_foreign_documents(self):
        queue = StudyQueue(depth=4, tenant_quota=4)
        with pytest.raises(ValidationError):
            queue.restore({"format": "something-else", "entries": []})
        with pytest.raises(ValidationError):
            queue.restore({"format": QUEUE_FORMAT, "entries": "nope"})

    def test_restore_reapplies_admission_control(self):
        queue = StudyQueue(depth=10, tenant_quota=10)
        for i in range(3):
            queue.submit(sub(f"r{i}"))
        snapshot = queue.snapshot()
        tight = StudyQueue(depth=2, tenant_quota=10)
        with pytest.raises(QueueFull):
            tight.restore(snapshot)
        assert tight.queued_count == 2  # the admissible prefix survived


class TestValidateCampaign:
    def test_minimal(self):
        job = validate_campaign({"epochs": 3})
        assert job == CampaignJob(epochs=3)
        assert job.timeline == "fresh-look"
        assert job.pool_churn is True
        assert job.id is None

    def test_full(self):
        job = validate_campaign(
            {
                "epochs": 2,
                "start_year": 2020,
                "cadence_years": 0.5,
                "timeline": "frozen",
                "pool_churn": False,
                "id": "drift-watch",
            }
        )
        assert job.start_year == 2020.0
        assert job.cadence_years == 0.5
        assert job.timeline == "frozen"
        assert job.pool_churn is False
        assert job.id == "drift-watch"

    @pytest.mark.parametrize(
        "payload",
        [
            "not-a-dict",
            {},  # epochs required
            {"epochs": 0},
            {"epochs": True},
            {"epochs": "3"},
            {"epochs": MAX_CAMPAIGN_EPOCHS + 1},
            {"epochs": 1, "start_year": "soon"},
            {"epochs": 1, "cadence_years": 0},
            {"epochs": 1, "cadence_years": True},
            {"epochs": 1, "timeline": "no-such"},
            {"epochs": 1, "pool_churn": "yes"},
            {"epochs": 1, "timeline": 7},
            {"epochs": 1, "start_year": float("nan")},
            {"epochs": 1, "id": ".hidden"},
            {"epochs": 1, "id": "spaced out"},
            {"epochs": 1, "id": "x" * 65},
            {"epochs": 1, "epocs": 2},  # unknown field
        ],
    )
    def test_bad_payloads_rejected(self, payload):
        with pytest.raises(ValidationError):
            validate_campaign(payload)

    def test_campaign_rides_in_study_params(self):
        params = validate_params({"scale": 0.02, "campaign": {"epochs": 2, "id": "c1"}})
        assert params.campaign == CampaignJob(epochs=2, id="c1")
        assert StudyParams.from_dict(params.to_dict()) == params

    def test_campaign_to_dict_is_sparse(self):
        assert CampaignJob(epochs=2).to_dict() == {"epochs": 2}
