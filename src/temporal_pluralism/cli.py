"""Command-line front end.

Subcommands: validate, evaluate, optimize, compare, describe.  Exit code 0
means success, 1 a domain or file error, 2 a usage error.  Every number the
CLI prints is produced by the same library calls a script would make, so
printed and programmatic results agree exactly.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

from .environment import (
    cycle_policy,
    random_policy,
    rollout,
    sequence_policy,
)
from .errors import PluralismError
from .formula import format_valuation, print_formula
from .machine import VALID_MACHINE
from .optimize import optimize_exhaustive, optimize_greedy, optimize_memory_q
from .scheme import (
    AnytimeFilter,
    PeriodicFilter,
    check_alphabet_compatibility,
    filter_times,
    log_pluralism_score,
    pluralism_score,
)
from .serialize import (
    _plain_number,
    env_description,
    format_real,
    kind_phrase,
    load_env,
    load_machine,
    load_markov_table,
    load_scheme,
    load_trajectory,
    write_results,
    write_status_csv,
)


# A part of a comma list that is not a separator: a quoted run (to its
# closing quote, or to the end, which _read_item then refuses), an escape,
# or any one character; a part that is a bare `,` separates two pieces.
_LIST_PART = re.compile(r"""'[^']*'?|"(?:[^"\\]|\\.?)*"?|\\.?|.""", re.S)


def read_list(text: str, what: str, split: bool = True) -> list:
    """The items of the comma list `text`, which is split at every comma
    outside quotes (or, if not `split`, is one piece); each piece is read
    as _read_item reads it."""
    pieces = [""]
    for part in _LIST_PART.findall(text):
        if part == "," and split:
            pieces.append("")
        else:
            pieces[-1] += part
    return [_read_item(piece, what) for piece in pieces]


def _read_item(text: str, what: str) -> str:
    """`text` read by the shlex rules of file tokens with no separator, so
    spaces stay and an empty text is ''; an unbalanced quote is a
    PluralismError naming `what`."""
    lexer = shlex.shlex(text, posix=True)
    lexer.whitespace, lexer.whitespace_split, lexer.commenters = "", True, ""
    try:
        return next(lexer, "")
    except ValueError as err:
        raise PluralismError(f"bad {what}: {err}") from None


def parse_policy(text: str, env):
    """Policy flag syntax: always:ACT | cycle:A,B,... | seq:A,B,... | random.

    A list is read by read_list, and `always:ACT` reads ACT as one piece,
    so an action whose name holds a comma is named quoted: cycle:'a,b',c.
    """
    if text == "random":
        return random_policy(env.actions)
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        raise PluralismError(f"bad policy '{text}' (try always:ACT, cycle:A,B, seq:A,B, random)")
    if kind not in ("always", "cycle", "seq"):
        raise PluralismError(f"unknown policy kind '{kind}'")
    items = read_list(rest, f"policy '{text}'", split=kind != "always")
    return (sequence_policy if kind == "seq" else cycle_policy)(items)


def cmd_validate(args) -> int:
    failed = False
    for path in args.paths:
        try:
            load, _, verdict = _file_kind(path)
            load(path)
        except (PluralismError, OSError) as err:
            print(f"{path}: INVALID")
            print(f"  {err}")
            failed = True
            continue
        print(f"{path}: ok{verdict}")
    return 1 if failed else 0


def _maybe_warn_anytime(scheme, score: float) -> None:
    every_step = scheme.filter in (AnytimeFilter(), PeriodicFilter(1))
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
    if args.traj and (args.policy is not None or args.horizon is not None):
        args.parser.error("--traj takes no --policy or --horizon")
    scheme = load_scheme(args.scheme)
    if args.traj:
        traj = load_trajectory(args.traj)
    else:
        env = load_env(args.env)
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


# optimize --method -> the one option of its own it reads
_METHOD_FLAGS = {"exhaustive": "budget", "greedy": "lookahead", "memory_q": "episodes"}


def cmd_optimize(args) -> int:
    given = {flag: getattr(args, flag) for flag in _METHOD_FLAGS.values()
             if getattr(args, flag) is not None}
    foreign = [flag for flag in given if flag != _METHOD_FLAGS[args.method]]
    if foreign:
        args.parser.error(f"--method {args.method} takes no --{foreign[0]}")
    env = load_env(args.env)
    scheme = load_scheme(args.scheme)
    # Each optimizer is called through its name in this module (which
    # perfbench/tracer.py patches) and gets only the option given, so its
    # own signature holds the default.
    if args.method == "exhaustive":
        result = optimize_exhaustive(env, scheme, args.horizon, **given)
    elif args.method == "greedy":
        result = optimize_greedy(env, scheme, args.horizon, **given)
    else:
        result = optimize_memory_q(env, scheme, args.horizon, seed=args.seed, **given)
    write_results(result, scheme, args.out)
    print(f"score {format_real(result.score)}")
    print(f"evaluations {result.evaluations}")
    return 0


def cmd_compare(args) -> int:
    names = [s for s in read_list(args.schemes, f"--schemes '{args.schemes}'") if s]
    if len(names) < 2:
        args.parser.error("--schemes needs at least two comma-separated scheme files")
    traj = load_trajectory(args.traj)
    schemes = [(given, load_scheme(given)) for given in names]
    print("scheme k score")
    for given, scheme in schemes:
        k = len(filter_times(scheme.filter, traj))
        try:
            shown = format_real(pluralism_score(scheme, traj))
        except PluralismError:
            shown = "-"
        print(f"{Path(given).name} {k} {shown}")
    return 0


def cmd_describe(args) -> int:
    for path in args.paths:
        load, describe, _ = _file_kind(path)
        describe(path, load(path))
    return 0


def _describe_machine(given: str, machine) -> None:
    print(f"{given}: reward machine, {len(machine.states)} states, "
          f"{len(machine.transitions)} transitions")
    print(f"  alphabet: {', '.join(machine.alphabet)}")
    print(f"  initial: {machine.initial}")
    for t in machine.transitions:
        print(f"  {t.source} --[{print_formula(t.guard)}] {format_real(t.reward)}--> {t.target}")
    print(f"  check: {VALID_MACHINE}")


def _describe_scheme(given: str, scheme) -> None:
    print(f"{given}: scheme over {scheme.status.n} stakeholder(s)")
    for i, sk in enumerate(scheme.status.stakeholders, start=1):
        acc = sk.accumulation
        if acc == "discounted":
            acc += f" (gamma {format_real(sk.gamma)})"
        print(f"  stakeholder {i}: {kind_phrase(sk.source)}, {acc}")
    print(f"  aggregation: {kind_phrase(scheme.aggregation)}")
    print(f"  filter: {kind_phrase(scheme.filter)}")
    print(f"  empty filter: {scheme.empty_filter}")


def _describe_env(given: str, env) -> None:
    heading, *details = env_description(env)
    print(f"{given}: {heading}")
    for line in details:
        print(f"  {line}")
    print(f"  actions: {', '.join(env.actions)}")
    print(f"  alphabet: {', '.join(env.alphabet)}")


def _describe_markov_table(given: str, table) -> None:
    print(f"{given}: markov reward table, {len(table.rewards)} entries, "
          f"default {format_real(table.default)}")
    for (s, a, s2), r in sorted(table.rewards.items()):
        print(f"  {s} --{a} {format_real(r)}--> {s2}")


def _describe_trajectory(given: str, traj) -> None:
    print(f"{given}: trajectory, horizon {traj.horizon}, initial state {traj.states[0]}")
    steps = zip(traj.actions, traj.states[1:], traj.labels)
    for t, (action, state, label) in enumerate(steps, start=1):
        print(f"  {t}: {action} --> {state} {format_valuation(label)}")


# suffix -> (loader: path -> object, describer: (given, object) -> None,
# what validate prints after `ok`); validate only loads, describe loads and
# then describes.  load_machine returns only valid machines.
_FILE_KINDS = {
    ".rm": (load_machine, _describe_machine, f" ({VALID_MACHINE})"),
    ".scheme": (load_scheme, _describe_scheme, ""),
    ".env": (load_env, _describe_env, ""),
    ".traj": (load_trajectory, _describe_trajectory, ""),
    ".mt": (load_markov_table, _describe_markov_table, ""),
}


def _file_kind(path: str) -> tuple:
    suffix = Path(path).suffix
    if suffix not in _FILE_KINDS:
        raise PluralismError(f"unknown file kind '{suffix}'")
    return _FILE_KINDS[suffix]


def _int_at_least(low: int = None):
    """argparse type: an integer >= low (any integer if no low is given),
    written as the file readers take one (serialize._plain_number), else a
    usage error."""

    def parse(text: str) -> int:
        with contextlib.suppress(ValueError):
            value = _plain_number(int, text)
            if low is None or value >= low:
                return value
        bound = "" if low is None else f" >= {low}"
        raise argparse.ArgumentTypeError(f"expected an integer{bound}, got '{text}'")

    return parse


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
    ev.add_argument("--policy", help="always:ACT | cycle:A,B | seq:A,B | random; a list is "
                    "split at commas outside quotes, each item read by shell quoting rules")
    ev.add_argument("--horizon", type=_int_at_least(0))
    ev.add_argument("--seed", type=_int_at_least(), default=0, help="read only by --policy random")
    ev.add_argument("--out", help="directory for the status CSV")
    ev.set_defaults(func=cmd_evaluate, parser=ev)

    op = sub.add_parser("optimize", help="search for a score-maximizing trajectory")
    op.add_argument("--env", required=True)
    op.add_argument("--scheme", required=True)
    op.add_argument("--method", required=True, choices=("exhaustive", "greedy", "memory_q"))
    op.add_argument("--horizon", type=_int_at_least(0), required=True)
    op.add_argument("--seed", type=_int_at_least(), required=True, help="read only by memory_q")
    op.add_argument("--out", required=True, help="directory for result files")
    op.add_argument("--budget", type=_int_at_least(0), help="exhaustive only")
    op.add_argument("--lookahead", type=_int_at_least(1), help="greedy only")
    op.add_argument("--episodes", type=_int_at_least(0), help="memory_q only")
    op.set_defaults(func=cmd_optimize, parser=op)

    cp = sub.add_parser("compare", help="score one trajectory under several schemes")
    cp.add_argument("--traj", required=True)
    cp.add_argument("--schemes", required=True, help="comma-separated scheme files (>= 2), "
                    "split at commas outside quotes, each read by shell quoting rules")
    cp.set_defaults(func=cmd_compare, parser=cp)

    de = sub.add_parser("describe", help="pretty-print any file kind validate reads")
    de.add_argument("paths", nargs="+")
    de.set_defaults(func=cmd_describe, parser=de)

    return parser


@contextlib.contextmanager
def _utf8_output():
    """sys.stdout and sys.stderr write UTF-8 while the block runs, as the
    result files do, whatever the locale; each keeps its error handler and
    gets its encoding back afterwards.  A stream that is no file wrapper
    (an io.StringIO a caller redirected to) or already writes UTF-8 is left
    alone."""
    changed = [
        (stream, stream.encoding)
        for stream in (sys.stdout, sys.stderr)
        if isinstance(stream, io.TextIOWrapper)
        and codecs.lookup(stream.encoding).name != "utf-8"
    ]
    for stream, _ in changed:
        stream.reconfigure(encoding="utf-8", errors=stream.errors)
    try:
        yield
    finally:
        for stream, encoding in changed:
            stream.reconfigure(encoding=encoding, errors=stream.errors)


def main(argv=None) -> int:
    with _utf8_output():
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except (PluralismError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
