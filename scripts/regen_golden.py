#!/usr/bin/env python3
"""Rewrite tests/golden/fixture_outputs.txt, the CLI's output on the fixtures.

Every command runs in-process through `cli.main` from inside fixtures/, so
the paths it prints are the bare fixture names:

  * `optimize` of every env x scheme x method x horizon 0, 3, 5, seed 0,
    with methods exhaustive, greedy at lookahead 1 and 2, memory_q at 300
    episodes;
  * `evaluate` of every scheme on every trajectory, and of a few policy
    rollouts (ROLLOUTS);
  * `compare` of every trajectory under all schemes;
  * `validate` and `describe` of every fixture.

Each command gives one line: its arguments, exit code, stdout, stderr and a
short sha256 of each result file (`-` when the command wrote none).
tests/test_golden.py recomputes the lines and compares them with the file,
so a change to any output shows up as a failing test.  Run this script
only when an output change is intended.
"""

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

from temporal_pluralism.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden" / "fixture_outputs.txt"
METHODS = (("exhaustive",), ("greedy", "--lookahead", "1"), ("greedy", "--lookahead", "2"),
           ("memory_q", "--episodes", "300"))
HORIZONS = (0, 3, 5)
RESULT_FILES = ("result.txt", "statuses.csv", "best.traj")
# (env, scheme, policy, horizon) of each `evaluate --env` row, at seed 0.
ROLLOUTS = (
    ("delivery2.env", "delivery2_roundly_nash.scheme", "random", 200),
    ("restaurant5.env", "restaurant5_longterm_nash.scheme",
     "cycle:italian,sushi,taco,indian,bistro", 20),
    ("restaurant5.env", "restaurant5_longterm_nash.scheme", "always:italian", 5),
    ("restaurant5.env", "restaurant5_longterm_nash.scheme", "seq:italian,sushi,taco", 3),
    ("restaurant5.env", "restaurant5_longterm_nash.scheme", "seq:italian,sushi,taco", 4),
)


def commands() -> list:
    """Every golden command as an argv list, OUT standing for its output dir."""
    names = sorted(p.name for p in FIXTURES.iterdir())
    envs, schemes, trajs = ([n for n in names if n.endswith(suffix)]
                            for suffix in (".env", ".scheme", ".traj"))
    out = []
    for env in envs:
        for scheme in schemes:
            for method in METHODS:
                for horizon in HORIZONS:
                    out.append(["optimize", "--env", env, "--scheme", scheme, "--method", *method,
                                "--horizon", str(horizon), "--seed", "0", "--out", "OUT"])
    for scheme in schemes:
        for traj in trajs:
            out.append(["evaluate", "--scheme", scheme, "--traj", traj, "--out", "OUT"])
    for env, scheme, policy, horizon in ROLLOUTS:
        out.append(["evaluate", "--env", env, "--scheme", scheme, "--policy", policy,
                    "--horizon", str(horizon), "--seed", "0", "--out", "OUT"])
    for traj in trajs:
        out.append(["compare", "--traj", traj, "--schemes", ",".join(schemes)])
    for name in names:
        out.append(["validate", name])
        out.append(["describe", name])
    return out


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:12] if path.exists() else "-"


def run(argv: list, out_dir: Path) -> str:
    """The golden line of one command, run with OUT replaced by `out_dir`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main([str(out_dir) if a == "OUT" else a for a in argv])
    files = " ".join(_digest(out_dir / name) for name in RESULT_FILES)
    return (f"{' '.join(argv)} | exit {code} | out {stdout.getvalue()!r} "
            f"| err {stderr.getvalue()!r} | files {files}")


def golden_lines() -> list:
    """The golden line of every command, run from inside fixtures/."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(FIXTURES)
        try:
            return [run(argv, Path(tmp) / str(i)) for i, argv in enumerate(commands())]
        finally:
            os.chdir(cwd)


def main():
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text("\n".join(golden_lines()) + "\n")


if __name__ == "__main__":
    main()
