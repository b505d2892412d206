"""Command-line front end.

Subcommands: validate, evaluate, optimize, compare, describe.  Exit code 0
means success, 1 a domain or file error, 2 a usage error.  Every number the
CLI prints is produced by the same library calls a script would make, so
printed and programmatic results agree exactly.

File arguments that do not exist as given are retried relative to
$PLURALISM_FIXTURE_DIR, which keeps invocations short when working out of
a fixture directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .environment import (
    DeliveryGridEnv,
    RestaurantEnv,
    cycle_policy,
    random_policy,
    rollout,
    sequence_policy,
)
from .errors import PluralismError
from .formula import format_valuation, print_formula
from .optimize import DEFAULT_BUDGET, optimize_exhaustive, optimize_greedy, optimize_memory_q
from .scheme import (
    AnytimeFilter,
    AtomCountSource,
    EventCountFilter,
    LongTermFilter,
    MachineSource,
    PeriodicFilter,
    check_alphabet_compatibility,
    filter_times,
    log_pluralism_score,
    pluralism_score,
)
from .serialize import (
    format_real,
    load_env,
    load_machine,
    load_markov_table,
    load_scheme,
    load_trajectory,
    write_results,
    write_status_csv,
)


def resolve_path(p: str) -> str:
    if os.path.exists(p):
        return p
    base = os.environ.get("PLURALISM_FIXTURE_DIR")
    if base:
        candidate = os.path.join(base, p)
        if os.path.exists(candidate):
            return candidate
    return p


def parse_policy(text: str, env):
    """Policy flag syntax: always:ACT | cycle:A,B,... | seq:A,B,... | random."""
    if text == "random":
        return random_policy(env.actions)
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        raise PluralismError(f"bad policy '{text}' (try always:ACT, cycle:A,B, seq:A,B, random)")
    if kind == "always":
        return cycle_policy((rest,))
    if kind == "cycle":
        return cycle_policy(rest.split(","))
    if kind == "seq":
        return sequence_policy(rest.split(","))
    raise PluralismError(f"unknown policy kind '{kind}'")


def cmd_validate(args) -> int:
    failed = False
    for given in args.paths:
        path = resolve_path(given)
        try:
            verdict = _file_kind(path)[0](path)
        except (PluralismError, OSError) as err:
            print(f"{given}: INVALID")
            print(f"  {err}")
            failed = True
            continue
        print(f"{given}: {verdict}")
    return 1 if failed else 0


def _maybe_warn_anytime(scheme, score: float) -> None:
    filt = scheme.filter
    every_step = isinstance(filt, AnytimeFilter) or (
        isinstance(filt, PeriodicFilter) and filt.period == 1
    )
    if (
        score == 0.0
        and every_step
        and scheme.aggregation.mode == "flattened"
        and scheme.aggregation.op == "product"
    ):
        print(
            "warning: the filter scores every prefix, and with product "
            "aggregation a single zero status at any step zeroes the whole "
            "score; schemes this demanding are often unsatisfiable",
            file=sys.stderr,
        )


def cmd_evaluate(args) -> int:
    if args.env and not args.policy:
        args.parser.error("--env requires --policy")
    if args.env and args.horizon is None:
        args.parser.error("--env requires --horizon")
    scheme = load_scheme(resolve_path(args.scheme))
    if args.traj:
        traj = load_trajectory(resolve_path(args.traj))
    else:
        env = load_env(resolve_path(args.env))
        check_alphabet_compatibility(scheme, env.alphabet)
        traj = rollout(env, parse_policy(args.policy, env), args.horizon, args.seed)
    score = pluralism_score(scheme, traj)
    print(f"score {format_real(score)}")
    try:
        print(f"log_score {format_real(log_pluralism_score(scheme, traj))}")
    except PluralismError:
        pass
    _maybe_warn_anytime(scheme, score)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_status_csv(scheme, traj, out / "statuses.csv")
    return 0


def cmd_optimize(args) -> int:
    env = load_env(resolve_path(args.env))
    scheme = load_scheme(resolve_path(args.scheme))
    if args.method == "exhaustive":
        result = optimize_exhaustive(env, scheme, args.horizon, budget=args.budget)
    elif args.method == "greedy":
        result = optimize_greedy(env, scheme, args.horizon, lookahead=args.lookahead)
    else:
        result = optimize_memory_q(
            env,
            scheme,
            args.horizon,
            episodes=args.episodes,
            epsilon=args.epsilon,
            seed=args.seed,
        )
    write_results(result, scheme, args.out)
    print(f"score {format_real(result.score)}")
    print(f"evaluations {result.evaluations}")
    return 0


def cmd_compare(args) -> int:
    names = [s for s in args.schemes.split(",") if s]
    if len(names) < 2:
        args.parser.error("--schemes needs at least two comma-separated scheme files")
    traj = load_trajectory(resolve_path(args.traj))
    print("scheme k score")
    for given in names:
        scheme = load_scheme(resolve_path(given))
        k = len(filter_times(scheme.filter, traj))
        try:
            shown = format_real(pluralism_score(scheme, traj))
        except PluralismError:
            shown = "-"
        print(f"{Path(given).name} {k} {shown}")
    return 0


_FILTER_LABELS = {
    LongTermFilter: "long-term (final prefix only)",
    AnytimeFilter: "anytime (every prefix)",
}


def cmd_describe(args) -> int:
    for given in args.paths:
        path = resolve_path(given)
        _file_kind(path)[1](given, path)
    return 0


# What load_machine guarantees of every machine it returns.
_VALID_MACHINE = "deterministic, total"


def _loads(load, verdict: str = "ok"):
    def check(path: str) -> str:
        load(path)
        return verdict

    return check


def _describe_machine(given: str, path: str) -> None:
    machine = load_machine(path)
    print(f"{given}: reward machine, {len(machine.states)} states, "
          f"{len(machine.transitions)} transitions")
    print(f"  alphabet: {', '.join(machine.alphabet)}")
    print(f"  initial: {machine.initial}")
    for t in machine.transitions:
        print(f"  {t.source} --[{print_formula(t.guard)}] {format_real(t.reward)}--> {t.target}")
    print(f"  check: {_VALID_MACHINE}")


def _describe_scheme(given: str, path: str) -> None:
    scheme = load_scheme(path)
    print(f"{given}: scheme over {scheme.status.n} stakeholder(s)")
    for i, sk in enumerate(scheme.status.stakeholders, start=1):
        src = sk.source
        if isinstance(src, AtomCountSource):
            what = f"count of '{src.atom}'"
        elif isinstance(src, MachineSource):
            what = f"machine {src.path or '(in memory)'}"
        else:
            what = f"markov table {src.path or '(in memory)'}"
        acc = sk.accumulation
        if acc == "discounted":
            acc += f" (gamma {format_real(sk.gamma)})"
        print(f"  stakeholder {i}: {what}, {acc}")
    agg = scheme.aggregation
    if agg.mode == "flattened":
        print(f"  aggregation: flattened {agg.op}")
    else:
        print(f"  aggregation: {agg.mode}, inner {agg.inner_op}, outer {agg.outer_op}")
    filt = scheme.filter
    if isinstance(filt, PeriodicFilter):
        label = f"periodic, every {filt.period} steps"
    elif isinstance(filt, EventCountFilter):
        label = f"event-count, every {filt.every} occurrences of '{filt.atom}'"
    else:
        label = _FILTER_LABELS[type(filt)]
    print(f"  filter: {label}")
    print(f"  empty filter: {scheme.empty_filter}")


def _describe_env(given: str, path: str) -> None:
    env = load_env(path)
    if isinstance(env, RestaurantEnv):
        cfg = env.config
        print(f"{given}: restaurant environment, {cfg.n_friends} friends")
        print(f"  types: {', '.join(cfg.restaurant_types)}")
        for i, pref in enumerate(cfg.preferred, start=1):
            print(f"  friend {i} prefers {pref}")
    elif isinstance(env, DeliveryGridEnv):
        cfg = env.config
        print(f"{given}: delivery grid {cfg.width}x{cfg.height}, "
              f"{len(cfg.recipients)} recipients")
        print(f"  start: {cfg.start[0]},{cfg.start[1]}")
        for i, (x, y) in enumerate(cfg.recipients, start=1):
            print(f"  recipient {i} at {x},{y}")
    print(f"  actions: {', '.join(env.actions)}")
    print(f"  alphabet: {', '.join(env.alphabet)}")


def _describe_markov_table(given: str, path: str) -> None:
    table = load_markov_table(path)
    print(f"{given}: markov reward table, {len(table.rewards)} entries, "
          f"default {format_real(table.default)}")
    for (s, a, s2), r in sorted(table.rewards.items()):
        print(f"  {s} --{a} {format_real(r)}--> {s2}")


def _describe_trajectory(given: str, path: str) -> None:
    traj = load_trajectory(path)
    print(f"{given}: trajectory, horizon {traj.horizon}, initial state {traj.states[0]}")
    steps = zip(traj.actions, traj.states[1:], traj.labels)
    for t, (action, state, label) in enumerate(steps, start=1):
        print(f"  {t}: {action} --> {state} {format_valuation(label)}")


# suffix -> (validate: path -> verdict, describe: (given, path) -> None)
_FILE_KINDS = {
    ".rm": (_loads(load_machine, f"ok ({_VALID_MACHINE})"), _describe_machine),
    ".scheme": (_loads(load_scheme), _describe_scheme),
    ".env": (_loads(load_env), _describe_env),
    ".traj": (_loads(load_trajectory), _describe_trajectory),
    ".mt": (_loads(load_markov_table), _describe_markov_table),
}


def _file_kind(path: str) -> tuple:
    suffix = Path(path).suffix
    if suffix not in _FILE_KINDS:
        raise PluralismError(f"unknown file kind '{suffix}'")
    return _FILE_KINDS[suffix]


def _int_at_least(low: int):
    """argparse type: an integer >= low, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got '{text}'")
        return value

    return parse


def _probability(text: str) -> float:
    """argparse type: a real in [0, 1] (not nan), else a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got '{text}'")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pluralism",
        description="Score and optimize trajectories against groups of "
        "stakeholders with temporally extended preferences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check machines, schemes, envs, tables, trajectories")
    v.add_argument("paths", nargs="+")
    v.set_defaults(func=cmd_validate, parser=v)

    ev = sub.add_parser("evaluate", help="score a trajectory under a scheme")
    ev.add_argument("--scheme", required=True)
    src = ev.add_mutually_exclusive_group(required=True)
    src.add_argument("--traj")
    src.add_argument("--env")
    ev.add_argument("--policy", help="always:ACT | cycle:A,B | seq:A,B | random")
    ev.add_argument("--horizon", type=_int_at_least(0))
    ev.add_argument("--seed", type=int, default=0, help="read only by --policy random")
    ev.add_argument("--out", help="directory for the status CSV")
    ev.set_defaults(func=cmd_evaluate, parser=ev)

    op = sub.add_parser("optimize", help="search for a score-maximizing trajectory")
    op.add_argument("--env", required=True)
    op.add_argument("--scheme", required=True)
    op.add_argument("--method", required=True, choices=("exhaustive", "greedy", "memory_q"))
    op.add_argument("--horizon", type=_int_at_least(0), required=True)
    op.add_argument("--seed", type=int, required=True, help="read only by memory_q")
    op.add_argument("--out", required=True, help="directory for result files")
    op.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    op.add_argument("--lookahead", type=_int_at_least(1), default=1)
    op.add_argument("--episodes", type=_int_at_least(0), default=5000)
    op.add_argument("--epsilon", type=_probability, default=0.3)
    op.set_defaults(func=cmd_optimize, parser=op)

    cp = sub.add_parser("compare", help="score one trajectory under several schemes")
    cp.add_argument("--traj", required=True)
    cp.add_argument("--schemes", required=True, help="comma-separated scheme files (>= 2)")
    cp.set_defaults(func=cmd_compare, parser=cp)

    de = sub.add_parser("describe", help="pretty-print any file kind validate reads")
    de.add_argument("paths", nargs="+")
    de.set_defaults(func=cmd_describe, parser=de)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PluralismError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
