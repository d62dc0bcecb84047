"""tools/ladder.py: wall time and memory of the CLI's experiment as the row count grows."""

import importlib.util
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# RSS above the imports per row of each command's warm run at 30,000 rows, about 5% above what
# it read when set; lower a ceiling when a change lowers its reading
CEILINGS = {"experiment": 810, "transfer": 770}


def _load_tool():
    spec = importlib.util.spec_from_file_location("ladder", ROOT / "tools" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_experiment_at_ten_thousand_rows_runs_cold_then_warm_in_under_ten_seconds(tmp_path):
    start = time.perf_counter()
    records = _load_tool().measure(10_000, tmp_path / "work", commands=("experiment",))
    assert time.perf_counter() - start < 10.0
    assert [(r["rows"], r["command"], r["phase"]) for r in records] == [
        (10_000, "experiment", "cold"), (10_000, "experiment", "warm")]
    for r in records:
        assert 0 < r["wall_s"] < 10.0 and r["peak_mb"] > 0 and r["bytes_per_row"] >= 0
    # the inputs were written by bench/inputs.py at the requested size, and the cold run left a sidecar
    data = tmp_path / "work" / "experiment" / "data.csv"
    assert len(data.read_text().splitlines()) == 1 + 10_000
    assert (data.parent / ".data.csv.sfcache.npz").is_file()


def test_warm_memory_per_row_stays_under_each_commands_ceiling(tmp_path, monkeypatch):
    ladder = _load_tool()
    work, found, real_child = tmp_path / "work", [], ladder._child

    def memos(command):
        return sorted(kind for kind in ladder.MEMO_KINDS
                      for _ in (work / command).glob(f".*.{kind}-*.sfcache.npz"))

    def child(what, *argv):
        if what == "run":
            found.append(memos(argv[1]))
        return real_child(what, *argv)

    monkeypatch.setattr(ladder, "_child", child)
    records = ladder.measure(30_000, work)
    # no run, cold or warm, found a memo, and every kind exists again after the warm run: it
    # trained its fold, base and (for transfer) transfer(m) models, so each warm reading covers
    # their training
    assert found == [[]] * 4
    assert {command: sorted(set(memos(command))) for command in CEILINGS} == {
        "experiment": ["base", "cv"], "transfer": ["base", "cv", "transfer"]}
    warm = {r["command"]: r["bytes_per_row"] for r in records if r["phase"] == "warm"}
    assert sorted(warm) == sorted(CEILINGS)
    over = [f"warm {command} reads {warm[command]:.0f} B/row, over its ceiling of {ceiling}"
            for command, ceiling in CEILINGS.items() if not warm[command] <= ceiling]
    assert not over, "\n".join(over)


def test_too_few_rows_are_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        _load_tool().main(["--rows", "50"])
    assert exc.value.code == 2 and "--rows must be at least 100" in capsys.readouterr().err
