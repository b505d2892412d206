"""Generate one workload's instances for a seed, with the oracle's answers.

    python3 perfbench/prepare.py --workload exact-counts --seed 1 --dir DIR

Writes the instance files and DIR/manifest.json, which lists one record
per command with its expected answer.  run.py starts this in a child
process, so that the oracle's work never shows in the measured process's
peak RSS, and reuses DIR for later runs with the same seed and code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import checkout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    checkout.import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload '{args.workload}'")
    directory = Path(args.dir)
    directory.mkdir(parents=True, exist_ok=True)
    commands = workloads.build(
        args.workload, args.seed, directory, log=lambda line: print(line, file=sys.stderr)
    )
    partial = directory / "manifest.json.partial"
    partial.write_text(json.dumps(commands, indent=1))
    partial.replace(directory / "manifest.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
