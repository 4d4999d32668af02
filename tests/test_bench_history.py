"""``check_regression.py --update`` keeps a ratchet history.

Each ratchet rewrites ``BENCH_baseline.json`` and appends one JSON line
to ``BENCH_history.jsonl`` beside it: every benchmark's previous and
new calibration units plus both calibration times.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"


@pytest.fixture
def gate(monkeypatch):
    spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calibrations = iter([0.1, 0.05])
    monkeypatch.setattr(module, "calibration_seconds", lambda: next(calibrations))
    return module


def bench_json(path: Path, **means: float) -> str:
    path.write_text(
        json.dumps(
            {"benchmarks": [{"name": n, "stats": {"mean": m}} for n, m in means.items()]}
        )
    )
    return str(path)


def test_update_appends_one_history_line_per_ratchet(gate, tmp_path):
    baseline = tmp_path / "BENCH_baseline.json"
    first = bench_json(tmp_path / "a.json", test_study=8.0)
    second = bench_json(tmp_path / "b.json", test_study=2.0, test_new=1.0)

    assert gate.main(["--current", first, "--baseline", str(baseline), "--update"]) == 0
    assert gate.main(["--current", second, "--baseline", str(baseline), "--update"]) == 0

    lines = (tmp_path / "BENCH_history.jsonl").read_text().splitlines()
    assert len(lines) == 2
    initial, ratchet = (json.loads(line) for line in lines)
    assert initial["calibration_seconds"] == {"previous": None, "new": 0.1}
    assert initial["benchmarks"] == {"test_study": {"previous": None, "new": 80.0}}
    assert ratchet["calibration_seconds"] == {"previous": 0.1, "new": 0.05}
    assert ratchet["benchmarks"] == {
        "test_new": {"previous": None, "new": 20.0},
        "test_study": {"previous": 80.0, "new": 40.0},
    }
    # The baseline itself holds only the latest ratchet.
    assert json.loads(baseline.read_text())["benchmarks"] == {
        "test_new": 1.0,
        "test_study": 2.0,
    }


def test_gating_run_leaves_history_alone(gate, tmp_path):
    baseline = tmp_path / "BENCH_baseline.json"
    current = bench_json(tmp_path / "a.json", test_study=8.0)
    gate.main(["--current", current, "--baseline", str(baseline), "--update"])
    # Half the calibration time reads as twice the units: a regression.
    assert gate.main(["--current", current, "--baseline", str(baseline)]) == 1
    assert len((tmp_path / "BENCH_history.jsonl").read_text().splitlines()) == 1
