#!/usr/bin/env python3
"""Regenerate reference/<workload>.json: one record per (input set, task).

    python3 perfbench/make_reference.py

Every task of every workload's gen.INPUT_SETS input sets runs once at full
size through the CLI, must pass every reference-free gate in checks.py, and
its summarized outputs are stored (about 15 minutes on one core).  Run it only
when the benchmark's inputs change, never to make a failing check pass.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import gen
import run


def build(cli, workload: str) -> None:
    doc = {"environment": run.environment(), "seeds": {}}
    for seed in range(gen.INPUT_SETS):
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-tmp-") as tmp:
            records = {}
            for task, cfg, out in run.prepare(cli, workload, seed, "full", Path(tmp)):
                rec = checks.summarize(out, run.run_cli(cli, task, cfg, out))
                problems = checks.check(task, rec, None)
                if problems:
                    raise SystemExit(f"{workload} seed {seed} {task.name}: {problems}")
                records[task.name] = rec
        doc["seeds"][str(seed)] = records
        print(f"{workload} seed {seed}: {len(records)} tasks", flush=True)
    path = run.HERE / "reference" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def main() -> int:
    run.pin_threads()
    cli = run.import_cli()
    for workload in gen.WORKLOADS:
        build(cli, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
