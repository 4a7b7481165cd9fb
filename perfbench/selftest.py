#!/usr/bin/env python3
"""Self-tests of the benchmark itself (about two minutes on two cores).

    python3 perfbench/selftest.py

* the same seed gives byte-identical configs, another seed different ones, and
  the committed reference holds every task of every input set;
* a tiny-size run of every workload passes its checks, plain and traced, and
  emits exactly the metric names and units declared in BENCHMARK.json;
* exact counters repeat exactly across two traced runs, and each layer's
  bypass workload records no work for it;
* the reference comparison accepts its own record and rejects a perturbed one;
* without the program's sources the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import gen
import run

WORKLOADS = gen.WORKLOADS


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_configs_are_seeded() -> None:
    for w in WORKLOADS:
        a = [t.config_bytes() for t in gen.tasks(w, 7)]
        assert a == [t.config_bytes() for t in gen.tasks(w, 7)], w
        assert a != [t.config_bytes() for t in gen.tasks(w, 8)], w
        assert a == [t.config_bytes() for t in gen.tasks(w, 7 + gen.INPUT_SETS)], w
        ref = json.loads((run.HERE / "reference" / f"{w}.json").read_text())["seeds"]
        assert sorted(ref, key=int) == [str(i) for i in range(gen.INPUT_SETS)], w
        for i in range(gen.INPUT_SETS):
            assert sorted(ref[str(i)]) == sorted(t.name for t in gen.tasks(w, i)), (w, i)


def test_tiny_runs_and_metric_names() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    traced = {}
    for w in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            res = _result(_bench("--workload", w, "--seed", "3", "--seconds", "0",
                                 "--trace", str(trace), "--size", "tiny"))
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (w, res)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            assert got == want, (w, trace, set(got) ^ set(want))
            if trace:
                traced[w] = {k: v["value"] for k, v in res["metrics"].items()}
    return traced


def test_counters_repeat_and_bypass(first: dict) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    counters = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
    for w in WORKLOADS:
        res = _result(_bench("--workload", w, "--seed", "3", "--seconds", "0",
                             "--trace", "1", "--size", "tiny"))
        again = {k: v["value"] for k, v in res["metrics"].items()}
        diff = [k for k in counters if again[k] != first[w][k]]
        assert not diff, (w, diff)
    assert first["spectra"]["bessel.j_values"] == 0
    assert first["spectra"]["propagator.hankel_j_values"] == 0
    assert first["decay"]["galerkin.spectrum_calls"] > 0
    for w in WORKLOADS:
        assert (first[w]["propagator.cn_banded_solves"] > 0) == (w == "oracle"), w
        assert (first[w]["propagator.flip_s"] > 0) == (w == "oracle"), w
        assert (first[w]["kernel.cutoff_calls"] > 0) == (w == "kernel"), w


def test_reference_comparison() -> None:
    cli = run.import_cli()
    cases = {"spectra": ("eigenvalues.csv", "mu"), "kernel": ("kernel_scan.csv", "abs_k"),
             "decay": ("decay.csv", "sup_norm")}
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-tmp-") as tmp:
        for w, (name, col) in cases.items():
            work = Path(tmp) / w
            work.mkdir()
            task, cfg, out = run.prepare(cli, w, 5, "tiny", work)[0]
            rec = checks.summarize(out, run.run_cli(cli, task, cfg, out))
            assert checks.check(task, rec, rec) == [], w
            bad = copy.deepcopy(rec)
            bad["files"][name]["columns"][col][-1] *= 1.01
            assert checks.check(task, rec, bad), w


def test_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-tmp-") as tmp:
        shutil.copytree(run.HERE, Path(tmp) / "perfbench")
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        proc = _bench("--workload", "decay", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=Path(tmp))
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout


def main() -> int:
    run.pin_threads()
    traced: dict = {}
    steps = (
        ("configs are seeded", test_configs_are_seeded),
        ("tiny runs and metric names",
         lambda: traced.update(test_tiny_runs_and_metric_names())),
        ("counters repeat, bypass zeros", lambda: test_counters_repeat_and_bypass(traced)),
        ("reference comparison", test_reference_comparison),
        ("refuses without sources", test_refuses_without_sources),
    )
    failed = 0
    for name, fn in steps:
        try:
            fn()
            print(f"PASS {name}", flush=True)
        except (AssertionError, KeyError) as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
