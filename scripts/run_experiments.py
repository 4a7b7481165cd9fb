#!/usr/bin/env python3
"""Run the bundled experiment configs through the command-line interface.

Writes CSV tables and JSON sidecars under results/<name>/ in the chosen
working directory.  Nonzero exit codes are collected and reported at the
end instead of aborting the batch, so a hypothesis violation in one
configuration does not hide the others.
"""

import argparse
import pathlib
import sys

from emschro import cli

CONFIG_DIR = pathlib.Path(__file__).resolve().parent / "configs"

BATCH = [
    ("spectrum", "flux_line.json"),
    ("wkb", "flux_line.json"),
    ("kernel-scan", "flux_line.json"),
    ("decay", "flux_line.json"),
    ("spectrum", "cos_nonresonant.json"),
    ("wkb", "cos_nonresonant.json"),
    ("spectrum", "mixed_nonresonant.json"),
    ("wkb", "mixed_nonresonant.json"),
    ("spectrum", "even_electric.json"),
    ("spectrum", "half_circulation.json"),
    ("kernel-scan", "positive_well_scan.json"),
    ("kernel-scan", "flux_gap_scan.json"),
    ("decay", "decay_sweep.json"),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only", default=None,
                        help="substring filter on config file names")
    args = parser.parse_args()

    failures = []
    for command, name in BATCH:
        if args.only and args.only not in name:
            continue
        path = CONFIG_DIR / name
        print(f"--- emschro {command} {name}")
        code = cli.main([command, str(path)])
        if code != 0:
            failures.append((command, name, code))
    if failures:
        print("nonzero exits:")
        for command, name, code in failures:
            print(f"  {command} {name}: exit {code}")
        return 1
    print("all experiments exited 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
