"""Campaign archive format: manifests, checkpoints, corruption, merges."""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CAMPAIGN_FORMAT,
    CampaignArchive,
    CampaignError,
    CampaignSpec,
    CheckpointRecord,
)


@pytest.fixture
def spec() -> CampaignSpec:
    return CampaignSpec(scale=0.02, seed=7, cadence_years=2.0)


def fake_epoch(archive: CampaignArchive, epoch: int) -> CheckpointRecord:
    """Publish a minimal fake epoch archive + checkpoint record."""
    drift = archive.spec.drift_for_epoch(epoch)
    directory = archive.epoch_dir(epoch)
    directory.mkdir(parents=True)
    (directory / "manifest.json").write_text(
        json.dumps({"scale": archive.spec.scale, "seed": archive.spec.seed})
    )
    (directory / "summary.json").write_text(
        json.dumps(
            {
                "section_4_1": {
                    "avg_udp_plain_reachable": 40.0 + epoch,
                    "avg_pct_ect_given_plain": 95.0 - epoch,
                },
                "section_4_2": {"pct_hops_passing": 90.0 + epoch, "strip_events": 10 - epoch},
                "section_4_3": {"pct_negotiated": 80.0 + epoch},
            }
        )
    )
    record = CheckpointRecord(
        epoch=epoch,
        year=drift.year,
        drift=drift,
        digest=archive.digest_epoch(epoch),
    )
    archive.record_epoch(record)
    return record


class TestCreateLoad:
    def test_round_trip(self, tmp_path, spec):
        created = CampaignArchive.create(tmp_path / "camp", spec, target_epochs=4)
        loaded = CampaignArchive.load(tmp_path / "camp")
        assert loaded.spec == created.spec
        assert loaded.target_epochs == 4

    def test_create_refuses_existing_archive(self, tmp_path, spec):
        CampaignArchive.create(tmp_path / "camp", spec, target_epochs=1)
        with pytest.raises(CampaignError, match="already exists"):
            CampaignArchive.create(tmp_path / "camp", spec, target_epochs=2)

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign archive"):
            CampaignArchive.load(tmp_path / "nope")

    def test_load_rejects_foreign_format(self, tmp_path):
        target = tmp_path / "camp"
        target.mkdir()
        (target / "campaign.json").write_text(json.dumps({"format": "other/1"}))
        with pytest.raises(CampaignError, match="not a campaign manifest"):
            CampaignArchive.load(target)

    def test_manifest_format_tag(self, tmp_path, spec):
        CampaignArchive.create(tmp_path / "camp", spec, target_epochs=1)
        document = json.loads((tmp_path / "camp" / "campaign.json").read_text())
        assert document["format"] == CAMPAIGN_FORMAT

    def test_extend_target_never_shrinks(self, tmp_path, spec):
        archive = CampaignArchive.create(tmp_path / "camp", spec, target_epochs=4)
        archive.extend_target(2)
        assert CampaignArchive.load(tmp_path / "camp").target_epochs == 4
        archive.extend_target(6)
        assert CampaignArchive.load(tmp_path / "camp").target_epochs == 6


class TestSpecValidation:
    def test_bad_scale(self):
        with pytest.raises(CampaignError):
            CampaignSpec(scale=0.0)

    def test_bad_cadence(self):
        with pytest.raises(CampaignError):
            CampaignSpec(cadence_years=0.0)

    def test_unknown_timeline(self):
        with pytest.raises(CampaignError):
            CampaignSpec(timeline="no-such")

    def test_unknown_chaos_profile(self):
        with pytest.raises(CampaignError, match="chaos profile"):
            CampaignSpec(chaos="no-such")

    def test_dict_round_trip(self, spec):
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        chaotic = CampaignSpec(scale=0.02, seed=7, chaos="default", chaos_seed=3)
        assert CampaignSpec.from_dict(chaotic.to_dict()) == chaotic

    @pytest.mark.parametrize(
        "payload",
        [
            {"quic": "false"},
            {"seed": 20150401.9},
            {"traceroutes": "no"},
            {"chaos_seed": True},
            {"scale": "0.1"},
            {"chaos": 7},
        ],
    )
    def test_from_dict_rejects_instead_of_coercing(self, payload):
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict(payload)

    def test_to_dict_bytes_are_stable(self):
        """campaign.json is pinned byte for byte by archived campaigns."""
        full = CampaignSpec(
            scale=0.02,
            seed=7,
            start_year=2016.5,
            cadence_years=2.0,
            pool_churn=False,
            chaos="default",
            chaos_seed=3,
            quic=True,
            traceroutes=False,
        )
        assert json.dumps(full.to_dict()) == (
            '{"scale": 0.02, "seed": 7, "start_year": 2016.5, "cadence_years": 2.0, '
            '"timeline": "fresh-look", "pool_churn": false, "chaos": "default", '
            '"chaos_seed": 3, "quic": true, "traceroutes": false}'
        )
        assert json.dumps(CampaignSpec().to_dict()) == (
            '{"scale": 0.1, "seed": 20150401, "start_year": 2015.33, '
            '"cadence_years": 1.0, "timeline": "fresh-look", "pool_churn": true}'
        )

    def test_options_carry_the_study_fields(self):
        options = CampaignSpec(scale=0.02, seed=7, chaos="light", quic=True).options
        assert (options.scale, options.seed, options.faults, options.quic) == (
            0.02,
            7,
            "light",
            True,
        )
        assert options.drift is None and not options.collect_metrics


class TestCheckpoints:
    def test_records_parse_back_in_order(self, tmp_path, spec):
        archive = CampaignArchive.create(tmp_path / "camp", spec, target_epochs=3)
        written = [fake_epoch(archive, n) for n in range(3)]
        assert archive.checkpoints() == written

    def test_garbled_line_fails_with_line_number(self, tmp_path, spec):
        archive = CampaignArchive.create(tmp_path / "camp", spec, target_epochs=3)
        for n in range(2):
            fake_epoch(archive, n)
        text = archive.checkpoints_path.read_text().splitlines()
        text[1] = text[1][: len(text[1]) // 2]  # truncate record 2
        archive.checkpoints_path.write_text("\n".join(text) + "\n")
        with pytest.raises(CampaignError, match="line 2"):
            archive.checkpoints()

    def test_gap_in_epochs_is_corruption(self, tmp_path, spec):
        archive = CampaignArchive.create(tmp_path / "camp", spec, target_epochs=3)
        record0 = fake_epoch(archive, 0)
        drift2 = spec.drift_for_epoch(2)
        bogus = CheckpointRecord(
            epoch=2, year=drift2.year, drift=drift2, digest=record0.digest
        )
        archive.record_epoch(bogus)
        with pytest.raises(CampaignError, match="out of order"):
            archive.checkpoints()

    def test_non_record_json_is_corruption(self, tmp_path, spec):
        archive = CampaignArchive.create(tmp_path / "camp", spec, target_epochs=1)
        archive.checkpoints_path.write_text('{"hello": "world"}\n')
        with pytest.raises(CampaignError, match="line 1"):
            archive.checkpoints()


class TestVerify:
    def test_digest_mismatch_detected(self, tmp_path, spec):
        archive = CampaignArchive.create(tmp_path / "camp", spec, target_epochs=1)
        fake_epoch(archive, 0)
        summary = archive.epoch_dir(0) / "summary.json"
        summary.write_text(summary.read_text().replace("40.0", "41.0"))
        with pytest.raises(CampaignError, match="digest mismatch"):
            archive.verify()

    def test_missing_epoch_directory_detected(self, tmp_path, spec):
        import shutil

        archive = CampaignArchive.create(tmp_path / "camp", spec, target_epochs=1)
        fake_epoch(archive, 0)
        shutil.rmtree(archive.epoch_dir(0))
        with pytest.raises(CampaignError, match="missing"):
            archive.verify()

    def test_intact_archive_verifies(self, tmp_path, spec):
        archive = CampaignArchive.create(tmp_path / "camp", spec, target_epochs=2)
        for n in range(2):
            fake_epoch(archive, n)
        archive.verify()  # should not raise


class TestCleanInterrupted:
    def test_partial_and_orphan_discarded(self, tmp_path, spec):
        archive = CampaignArchive.create(tmp_path / "camp", spec, target_epochs=3)
        fake_epoch(archive, 0)
        # Crash leftovers: a partial save and a published-but-
        # uncheckpointed epoch directory.
        archive.partial_dir(1).mkdir(parents=True)
        (archive.partial_dir(1) / "traces.json").write_text("{}")
        orphan = archive.epoch_dir(1)
        orphan.mkdir(parents=True)
        (orphan / "manifest.json").write_text("{}")
        discarded = archive.clean_interrupted()
        assert sorted(discarded) == [".epoch-0001.partial", "epoch-0001"]
        assert archive.epoch_dir(0).is_dir()
        assert not orphan.exists()
        assert not archive.partial_dir(1).exists()

    def test_checkpointed_epochs_survive(self, tmp_path, spec):
        archive = CampaignArchive.create(tmp_path / "camp", spec, target_epochs=2)
        for n in range(2):
            fake_epoch(archive, n)
        assert archive.clean_interrupted() == []
        archive.verify()


class TestMerge:
    def test_merge_is_idempotent(self, tmp_path, spec):
        archive = CampaignArchive.create(tmp_path / "camp", spec, target_epochs=2)
        records = [fake_epoch(archive, n) for n in range(2)]
        for record in records:
            assert archive.merge_epoch(record) is True
        before = archive.trend_path.read_bytes()
        # Re-merging a merged epoch is a no-op, byte for byte.
        for record in records:
            assert archive.merge_epoch(record) is False
        assert archive.trend_path.read_bytes() == before
        assert [p["epoch"] for p in archive.trend_points()] == [0, 1]

    def test_out_of_order_merge_sorts_points(self, tmp_path, spec):
        archive = CampaignArchive.create(tmp_path / "camp", spec, target_epochs=2)
        records = [fake_epoch(archive, n) for n in range(2)]
        archive.merge_epoch(records[1])
        archive.merge_epoch(records[0])
        assert [p["epoch"] for p in archive.trend_points()] == [0, 1]

    def test_merge_missing_summary_is_loud(self, tmp_path, spec):
        archive = CampaignArchive.create(tmp_path / "camp", spec, target_epochs=1)
        record = fake_epoch(archive, 0)
        (archive.epoch_dir(0) / "summary.json").unlink()
        with pytest.raises(CampaignError, match="summary.json"):
            archive.merge_epoch(record)
