#!/usr/bin/env python3
"""emschro benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload spectra --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory and nothing else.  The workload's configs are generated from
the seed (see gen.py) and run back to back through `emschro.cli.main`, the
library's command-line entry point: a closed loop with one client.  Passes over
the task list repeat until `--seconds` is spent; every task's outputs are
checked (checks.py).  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
from spans and counters recorded around calls into emschro (tracer.py), with
untraced passes interleaved to measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = 1            # BLAS/OpenMP threads per process, never more than nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7       # fresh processes timed for setup_s; the median is reported
MIN_PASSES = 2         # plain passes per untraced run, traced passes per traced run
DIGITS_FLOOR = 1e-17   # accuracy figures below double precision count as 17 digits


def pin_threads() -> None:
    """Fix thread counts before numpy loads; keep the checkout free of bytecode."""
    for var in THREAD_VARS:
        os.environ[var] = str(min(THREADS, len(os.sched_getaffinity(0))))
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True


def import_cli():
    """emschro.cli from this checkout's src/, never an installed copy."""
    pkg = ROOT / "src" / "emschro"
    if not (pkg / "cli.py").is_file():
        raise SystemExit(f"perfbench: no emschro sources at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    from emschro import cli
    if Path(cli.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported emschro from {cli.__file__}, not {pkg}")
    return cli


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_name,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def prepare(cli, workload: str, seed: int, size: str, work: Path):
    """Setup: write the seeded configs, then run one warm-up task per command."""
    prepared = []
    for i, task in enumerate(gen.tasks(workload, seed, size)):
        cfg = work / f"task{i}.json"
        cfg.write_bytes(task.config_bytes())
        prepared.append((task, str(cfg), str(work / f"out{i}")))
    for i, task in enumerate(gen.warmups(workload)):
        cfg = work / f"warmup{i}.json"
        cfg.write_bytes(task.config_bytes())
        run_cli(cli, task, str(cfg), str(work / f"warmup{i}"))
    return prepared


def run_cli(cli, task, cfg: str, out: str) -> int:
    """One CLI invocation with its chatter captured; -1 for an uncaught crash."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            return cli.main([task.command, cfg, "--output-dir", out])
    except Exception:
        print(f"{task.name}: crashed\n{buf.getvalue()}{traceback.format_exc()}",
              file=sys.stderr)
        return -1


class Runner:
    """Runs passes over the prepared tasks and checks every result."""

    def __init__(self, cli, prepared, reference: dict | None):
        self.cli = cli
        self.prepared = prepared
        self.reference = reference or {}
        self.attempted = 0
        self.failed = 0
        self.figures: dict = {}

    def run_pass(self, tracer=None) -> float:
        wall = 0.0
        for task, cfg, out in self.prepared:
            shutil.rmtree(out, ignore_errors=True)
            root = tracer.task(task.name) if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            with root:
                code = run_cli(self.cli, task, cfg, out)
            wall += time.perf_counter() - t0
            rec = checks.summarize(out, code)
            problems = checks.check(task, rec, self.reference.get(task.name))
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"{task.name}: FAILED: {'; '.join(problems)}", file=sys.stderr)
            for key, val in checks.figures(rec).items():
                self.figures.setdefault(task.name, {})[key] = val
        return wall

    def accuracy_digits(self) -> float:
        worst = max((v for f in self.figures.values() for k, v in f.items()
                     if k != "resolved_modes"), default=1.0)
        return -math.log10(max(worst, DIGITS_FLOOR))


def load_reference(workload: str, seed: int, size: str) -> dict | None:
    """The committed results of the seed's input set; tiny runs have none."""
    if size != "full":
        return None
    path = HERE / "reference" / f"{workload}.json"
    ref = json.loads(path.read_text())["seeds"].get(str(gen.input_set(seed)))
    if ref is None:
        raise SystemExit(f"perfbench: {path} has no input set {gen.input_set(seed)}")
    return ref


def measure_setup(args) -> list[float]:
    """Seconds from process start to configs generated and warm-ups done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--size", args.size]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline().strip()
                samples.append(time.perf_counter() - t0)
                proc.wait(timeout=120)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed ({line!r}, exit {proc.returncode})")
    return samples


def _per_layer(traced: list[dict], counts: list[dict]) -> dict:
    import tracer
    times = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
    metrics = {k: {"value": v, "unit": "s"} for k, v in times.items()}
    for k in tracer.COUNTERS:
        metrics[k] = {"value": counts[-1].get(k, 0),
                      "unit": "bytes" if k == "cli.bytes_written" else "count"}
    for k, v in tracer.derived(times, counts[-1]).items():
        metrics[k] = {"value": v, "unit": "ns" if k.endswith("_per_value") else "ratio"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=gen.SIZES, default="full",
                        help="tiny: smoke-test sizes, not for measurement")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_threads()
    cli = import_cli()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        prepared = prepare(cli, args.workload, args.seed, args.size, Path(tmp))
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        print(json.dumps({"env": environment(), "workload": args.workload,
                          "seed": args.seed, "size": args.size}))
        runner = Runner(cli, prepared, load_reference(args.workload, args.seed, args.size))
        metrics = _trace_run(runner, args) if args.trace else _plain_run(runner, args)
    result = {"correct": runner.failed == 0 and runner.attempted > 0,
              "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _plain_run(runner: Runner, args) -> dict:
    setup = measure_setup(args)
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(runner.run_pass())
        spent = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and spent + statistics.median(walls) > args.seconds:
            break
    print(json.dumps({"setup_s_samples": setup, "pass_wall_s": walls,
                      "figures": runner.figures}))
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
        "accuracy_digits": {"value": runner.accuracy_digits(), "unit": "digits"},
    }


def _trace_run(runner: Runner, args) -> dict:
    import tracer as tr
    plain, traced, times, counts = [], [], [], []
    start = time.perf_counter()
    while True:
        plain.append(runner.run_pass())
        with tr.Tracer() as t:
            traced.append(runner.run_pass(tracer=t))
        table = tr.SpanTable(t.spans)
        times.append(tr.layer_times(table))
        counts.append(dict(t.counts))
        shares = tr.share_table(table)
        spent = time.perf_counter() - start
        if (len(traced) >= MIN_PASSES and
                spent + statistics.median(plain) + statistics.median(traced) > args.seconds):
            break
    if any(c != counts[0] for c in counts):
        runner.failed += 1
        print("exact counters differ between traced passes", file=sys.stderr)
    print(f"layer shares of the traced pass ({args.workload}, inclusive spans):")
    for label, sec, share in shares:
        print(f"  {label:26s} {sec:9.4f} s  {100 * share:6.1f} %")
    print(json.dumps({"pass_wall_s": plain, "traced_pass_wall_s": traced,
                      "figures": runner.figures}))
    metrics = _per_layer(times, counts)
    metrics["trace.wall_s"] = {"value": statistics.median(traced), "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
