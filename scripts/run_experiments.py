#!/usr/bin/env python3
"""Run the bundled experiment configs through the command-line interface.

Each config runs the command of every section it holds (`kernel_scan` runs
`kernel-scan`), configs in name order.  Writes CSV tables and JSON sidecars
under results/<name>/ in the chosen working directory.  Nonzero exit codes
are collected and reported at the end instead of aborting the batch, so a
hypothesis violation in one configuration does not hide the others.
"""

import argparse
import json
import pathlib
import sys

from emschro import cli

CONFIG_DIR = pathlib.Path(__file__).resolve().parent / "configs"
SECTIONS = ("spectrum", "wkb", "kernel_scan", "decay")   # command: section with "-" for "_"


def batch() -> list[tuple[str, str]]:
    """(command, config name) for every command section of every bundled config."""
    runs = []
    for path in sorted(CONFIG_DIR.glob("*.json")):
        doc = json.loads(path.read_text())
        runs += [(sec.replace("_", "-"), path.name) for sec in SECTIONS if sec in doc]
    return runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only", default=None,
                        help="substring filter on config file names")
    args = parser.parse_args()

    failures = []
    for command, name in batch():
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
