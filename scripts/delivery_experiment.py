#!/usr/bin/env python3
"""Does scoring only at completed rounds reward finishing what you start?

A courier on a 3x1 strip owes one parcel per round to a recipient at each
end.  The bundled scheme multiplies both delivery counts but only looks at
the trajectory when a round completes, so shuttling back and forth beats
camping next to a single recipient.  Short-sighted greedy search can get
stuck between round boundaries (there is nothing to climb there); the
script shows at which lookahead that stops happening.

Usage:
    python3 scripts/delivery_experiment.py [--horizon 6]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from temporal_pluralism.optimize import optimize_exhaustive, optimize_greedy
from temporal_pluralism.scheme import EmptyFilterError, status_table
from temporal_pluralism.serialize import format_real, load_env, load_scheme

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def show(result, scheme) -> None:
    print(f"  best route: {' '.join(result.trajectory.actions)}")
    print(f"  score {format_real(result.score)} after {result.evaluations} evaluations")
    for t, vec in status_table(scheme, result.trajectory):
        shown = ", ".join(format_real(x) for x in vec)
        print(f"  round complete at t={t}: counts ({shown})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--horizon", type=int, default=6)
    args = parser.parse_args()

    env = load_env(FIXTURES / "delivery2.env")
    scheme = load_scheme(FIXTURES / "delivery2_roundly_nash.scheme")

    print(f"3x1 strip, recipients at both ends, horizon {args.horizon}")
    print()
    print("exhaustive:")
    start = time.perf_counter()
    try:
        best = optimize_exhaustive(env, scheme, args.horizon)
    except EmptyFilterError as err:
        print(f"  no route completes a round: {err}")
    else:
        print(f"  ({time.perf_counter() - start:.2f} s)")
        show(best, scheme)

    for depth in sorted({1, args.horizon // 2, args.horizon - 1} - {0}):
        print()
        print(f"greedy, lookahead {depth}:")
        try:
            result = optimize_greedy(env, scheme, args.horizon, lookahead=depth)
        except EmptyFilterError as err:
            print(f"  stuck: {err}")
            print("  (the window never spans a full round, so every extension")
            print("   is unscorable once the early steps have been wasted)")
            continue
        show(result, scheme)


if __name__ == "__main__":
    main()
