#!/usr/bin/env python3
"""How much does the choice of filter cost each optimizer?

Runs the bundled five-friend dinner group under three schemes that differ
only in when the group is scored (after the last dinner, every second
dinner, every dinner) and pits the three optimizers against each other.
The every-step product is unsatisfiable with two or more friends, so its
column of zeros is expected, not a bug.

Usage:
    python3 scripts/restaurant_experiment.py [--horizon 6] [--episodes 5000]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from temporal_pluralism.optimize import (
    optimize_exhaustive,
    optimize_greedy,
    optimize_memory_q,
)
from temporal_pluralism.scheme import EmptyFilterError
from temporal_pluralism.serialize import format_real, load_env, load_scheme

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SCHEMES = (
    ("final only", "restaurant5_longterm_nash.scheme"),
    ("every 2nd", "restaurant5_periodic2_nash.scheme"),
    ("every step", "restaurant5_anytime_nash.scheme"),
)


def run(args: argparse.Namespace) -> None:
    """Print one table row per scheme and optimizer for the parsed options."""
    env = load_env(FIXTURES / "restaurant5.env")
    print(f"five friends, horizon {args.horizon}, seed {args.seed}")
    print()
    header = f"{'scheme':<12} {'optimizer':<12} {'score':>10} {'evals':>8} {'secs':>6}"
    print(header)
    print("-" * len(header))
    for label, fname in SCHEMES:
        scheme = load_scheme(FIXTURES / fname)
        runs = (
            ("exhaustive", lambda: optimize_exhaustive(env, scheme, args.horizon)),
            ("greedy d=1", lambda: optimize_greedy(env, scheme, args.horizon)),
            (
                f"greedy d={args.lookahead}",
                lambda: optimize_greedy(env, scheme, args.horizon, lookahead=args.lookahead),
            ),
            (
                "memory_q",
                lambda: optimize_memory_q(
                    env, scheme, args.horizon, episodes=args.episodes, seed=args.seed
                ),
            ),
        )
        for name, go in runs:
            start = time.perf_counter()
            try:
                result = go()
            except EmptyFilterError as err:
                print(f"{label:<12} {name:<12} unscorable: {err}")
                continue
            secs = time.perf_counter() - start
            print(
                f"{label:<12} {name:<12} {format_real(result.score):>10} "
                f"{result.evaluations:>8} {secs:>6.2f}"
            )
        print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--horizon", type=int, default=6)
    parser.add_argument("--episodes", type=int, default=5000)
    parser.add_argument("--lookahead", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
