"""`scripts/bench.py` writes its record and then fails on any bad run.

The script is loaded by path; git, the checkouts and the benchmark processes
are replaced by stand-ins, so no benchmark runs here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"


@pytest.fixture()
def bench(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("emschro_bench_script", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": ["true"], "run_seconds": 1, "workloads": [{"name": "kernel"}],
        "end_to_end": [{"name": "wall_s", "better": "lower"}],
    }))
    monkeypatch.setattr(mod, "ROOT", tmp_path)
    monkeypatch.setattr(mod, "PAIRS", 2)
    monkeypatch.setattr(mod, "git", lambda *args: "" if args[0] == "status" else "sha")
    monkeypatch.setattr(mod, "unpack", lambda sha, dest: None)
    monkeypatch.setattr(mod.signal, "signal", lambda *args: None)
    return mod


def _runs(bench, monkeypatch, bad_seed=None, field=None):
    def run_once(checkout, command, workload, seed, seconds):
        run = {"seed": seed, "correct": True, "attempted": 3, "failed": 0,
               "metrics": {"wall_s": 1.0}}
        if seed == bad_seed and checkout.name == "head":
            run[field] = {"correct": False, "failed": 1}[field]
        return run

    monkeypatch.setattr(bench, "run_once", run_once)


def test_clean_runs_exit_zero(bench, monkeypatch, tmp_path):
    _runs(bench, monkeypatch)
    assert bench.main(["--rev", "HEAD~1", "--number", "99"]) == 0
    assert (tmp_path / "BENCH_99.json").exists()


@pytest.mark.parametrize("field", ["correct", "failed"])
def test_a_bad_run_is_named_and_fails_the_script(bench, monkeypatch, tmp_path, capsys, field):
    _runs(bench, monkeypatch, bad_seed=21, field=field)
    assert bench.main(["--rev", "HEAD~1", "--number", "99", "--seed", "20"]) == 1
    record = json.loads((tmp_path / "BENCH_99.json").read_text())
    assert bench.bad_runs(record) == [
        f"kernel head seed 21: correct {field != 'correct'}, failed {int(field == 'failed')}"]
    assert "bad run: kernel head seed 21" in capsys.readouterr().err
