#!/usr/bin/env python3
"""Before/after benchmark record: perfbench on a git rev and on HEAD.

Both commits are unpacked with `git archive` into temporary directories
(under $TMPDIR, removed on exit), so the record names exactly the code it
measured; the script refuses to run while tracked files differ from HEAD.  For every
BENCHMARK.json workload it runs the benchmark command (`perfbench/run.py`, at
its `run_seconds`) on both checkouts in PAIRS alternating pairs, the rev first
in even pairs and HEAD first in odd ones, both sides of a pair on the same
seed.  It writes BENCH_<n>.json at the repository root: every run's
end-to-end metrics, each side's median and quartiles, and the number of pairs
HEAD won.  It exits 1, naming the runs, if any run was incorrect or had
failed operations.

    python3 scripts/bench.py --rev HEAD~1 --number 6 --seed 20
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10   # a gain claim needs nine wins in ten pairs


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark process; its last stdout line is the result."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def unpack(sha: str, dest: Path) -> None:
    """The committed files of sha, extracted into the existing directory dest."""
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def bad_runs(record: dict) -> list[str]:
    """Every run in the record that was incorrect or had failed operations."""
    return [f"{name} {side} seed {run['seed']}: correct {run['correct']}, "
            f"failed {run['failed']}"
            for name, workload in record["workloads"].items()
            for side in ("rev", "head") for run in workload[side]["runs"]
            if not run["correct"] or run["failed"] > 0]


def summary(runs: list[dict], metric: str) -> dict:
    values = [r["metrics"][metric] for r in runs]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rev", required=True, help="the parent side, any git revision")
    parser.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    parser.add_argument("--seed", type=int, default=20, help="seed of the first pair")
    args = parser.parse_args(argv)

    if git("status", "--porcelain", "--untracked-files=no"):
        parser.error("tracked files differ from HEAD; commit them first, "
                     "the record measures HEAD")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    shas = {"rev": git("rev-parse", args.rev), "head": git("rev-parse", "HEAD")}
    record = {
        **shas,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "command": spec["command"], "run_seconds": spec["run_seconds"],
        "pairs": PAIRS, "workloads": {},
    }
    # a terminated run still unwinds: the running benchmark is killed and the
    # checkouts removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    with tempfile.TemporaryDirectory(prefix="emschro-bench-") as tmp:
        checkouts = {side: Path(tmp) / side for side in shas}
        for side, sha in shas.items():
            checkouts[side].mkdir()
            unpack(sha, checkouts[side])
        for name in (w["name"] for w in spec["workloads"]):
            sides = {"rev": [], "head": []}
            for i in range(PAIRS):
                order = list(checkouts.items())
                for side, checkout in order if i % 2 == 0 else order[::-1]:
                    run = run_once(checkout, spec["command"], name, args.seed + i,
                                   spec["run_seconds"])
                    sides[side].append(run)
                    print(f"{name} pair {i} {side}: {json.dumps(run['metrics'])}",
                          flush=True)
            wins = {}
            for m in metrics:
                sign = 1.0 if m["better"] == "lower" else -1.0
                wins[m["name"]] = sum(
                    sign * (rev["metrics"][m["name"]] - head["metrics"][m["name"]]) > 0
                    for rev, head in zip(sides["rev"], sides["head"]))
            record["workloads"][name] = {
                "seeds": [args.seed + i for i in range(PAIRS)],
                **{side: {"summary": {m["name"]: summary(runs, m["name"]) for m in metrics},
                          "runs": runs} for side, runs in sides.items()},
                "head_wins": wins,
            }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    bad = bad_runs(record)
    for line in bad:
        print(f"bad run: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
