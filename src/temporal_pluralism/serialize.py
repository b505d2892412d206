"""Line-oriented text formats for machines, environments, schemes,
trajectories, and optimizer results.

Every format is diffable text: `#` starts a comment, blank lines are
ignored, tokens follow shell quoting rules (guards with spaces are
quoted).  Files may start with a `version 1` header; writers always emit
one.  Writers are canonical (fixed line order, fixed real formatting), so
save -> load -> save reproduces a file byte for byte.  Readers build from
one pass, _directives, which holds the line rules all formats share.

Reals are written as the shortest string that parses back to the same
double, with integral values written as plain integers.

The full grammar of each format lives in docs/formats.md.
"""

from __future__ import annotations

import csv
import math
import shlex
from pathlib import Path

from .environment import (
    DeliveryConfig,
    DeliveryGridEnv,
    LabelledEnv,
    RestaurantConfig,
    RestaurantEnv,
    Trajectory,
)
from .errors import PluralismError
from .formula import parse_formula, print_formula
from .machine import RewardMachine, Transition, require_valid
from .optimize import PolicyResult
from .scheme import (
    Aggregation,
    AnytimeFilter,
    AtomCountSource,
    EventCountFilter,
    LongTermFilter,
    MachineSource,
    MarkovTableSource,
    PeriodicFilter,
    Scheme,
    StakeholderStatus,
    StatusFunction,
    status_table,
)


class FormatError(PluralismError):
    """A file (or text) does not conform to its grammar."""

    def __init__(self, message: str, line: int = None, path: str = None):
        where = ""
        if path is not None:
            where = f"{path}:"
        if line is not None:
            where += f"{line}:"
        if where:
            where += " "
        super().__init__(where + message)
        self.line = line
        self.path = path


class SchemaVersionError(FormatError):
    """The file declares a format version this code does not read."""


def format_real(x: float) -> str:
    """Shortest exact decimal; integral doubles print as plain integers,
    and inf and nan (a score can overflow) as `inf` and `nan`."""
    try:
        if x == int(x) and abs(x) < 1e16:
            return str(int(x))
    except (OverflowError, ValueError):
        pass
    return repr(x)


def _logical_lines(text: str, path: str = None) -> list:
    """[(line number, tokens)] with comments, blank lines and an optional
    `version 1` header dropped; any other version is rejected."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            tokens = shlex.split(raw, comments=True)
        except ValueError as err:
            raise FormatError(str(err), line=lineno, path=path)
        if tokens:
            out.append((lineno, tokens))
    if out and out[0][1][0] == "version":
        lineno, tokens = out.pop(0)
        if len(tokens) != 2:
            raise FormatError("version line needs exactly one argument", lineno, path)
        if tokens[1] != "1":
            raise SchemaVersionError(f"unsupported format version '{tokens[1]}'", lineno, path)
    return out


def _directives(lines: list, path: str, arity: dict) -> dict:
    """{keyword: [(line number, args)]}, each list in file order.

    `arity` maps every keyword the format reads to its arguments, as in
    `"NAME [init]"`: a bracketed word is optional, and `[NAME...]` takes
    any number.  Any other keyword or argument count is an error naming
    the line.  This is the only loop over directive lines; the readers
    build from its result with _once and _indexed.
    """
    found = {key: [] for key in arity}
    for lineno, tokens in lines:
        key, args = tokens[0], tokens[1:]
        if key not in arity:
            raise FormatError(f"unknown directive '{key}'", lineno, path)
        usage = arity[key]
        words = usage.count(" ") + 1
        most = math.inf if usage.endswith("...]") else words
        if not words - usage.count("[") <= len(args) <= most:
            raise FormatError(f"expected `{key} {usage}`", lineno, path)
        found[key].append((lineno, args))
    return found


def _once(found: dict, key: str, path: str, default: list = None) -> tuple:
    """(line number, args) of the one `key` line, which is required unless
    a `default` for its args is given (the line number is then None)."""
    entries = found.pop(key)
    if len(entries) > 1:
        raise FormatError(f"duplicate '{key}' line", entries[1][0], path)
    if not entries and default is None:
        raise FormatError(f"missing '{key}' line", path=path)
    return entries[0] if entries else (None, default)


def _indexed(found: dict, key: str, n: int, path: str, every: str = None) -> dict:
    """{i: (line number, args after i)} of the `key i ...` lines: each i in
    1..n at most once, and every i once when `every` names what i counts."""
    out: dict = {}
    for lineno, args in found.pop(key):
        i = _parse_int(args[0], lineno, path)
        if not 1 <= i <= n:
            raise FormatError(f"'{key} {i}' is outside 1..{n}", lineno, path)
        if i in out:
            raise FormatError(f"duplicate '{key} {i}' line", lineno, path)
        out[i] = (lineno, args[1:])
    gap = every and next((i for i in range(1, n + 1) if i not in out), None)
    if gap:
        raise FormatError(f"no '{key}' line for {every} {gap}", path=path)
    return out


def _at(line, path: str, make, *args, **kwargs):
    """make(*args, **kwargs), a ValueError it raises reported at `line`: a
    line number, or {field: line number} to name the line of the field a
    FieldError tags."""
    try:
        return make(*args, **kwargs)
    except ValueError as err:
        if isinstance(line, dict):
            line = line.get(getattr(err, "field", None))
        raise FormatError(str(err), line, path)


def _parse_real(token: str, lineno: int, path: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"not a number: '{token}'", lineno, path)
    if not math.isfinite(value):
        raise FormatError(f"not a finite number: '{token}'", lineno, path)
    return value


def _parse_int(token: str, lineno: int, path: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"not an integer: '{token}'", lineno, path)


# ---------------------------------------------------------------------------
# reward machines (.rm)


def machine_to_text(machine: RewardMachine) -> str:
    lines = ["version 1"]
    lines.append("alphabet " + " ".join(machine.alphabet))
    for s in machine.states:
        lines.append(f"state {s} init" if s == machine.initial else f"state {s}")
    for t in machine.transitions:
        guard = print_formula(t.guard)
        lines.append(f'trans {t.source} "{guard}" {t.target} {format_real(t.reward)}')
    return "\n".join(lines) + "\n"


def parse_machine_text(text: str, path: str = None) -> RewardMachine:
    found = _directives(_logical_lines(text, path), path, {
        "alphabet": "[ATOM...]", "state": "NAME [init]", "trans": 'SRC "GUARD" DST REWARD'})
    at, atoms = _once(found, "alphabet", path)
    alphabet = tuple(atoms)
    if found["trans"] and found["trans"][0][0] < at:
        raise FormatError("alphabet must come before transitions", found["trans"][0][0], path)
    bad = [lineno for lineno, args in found["state"] if args[1:] not in ([], ["init"])]
    if bad:
        raise FormatError("expected `state NAME` or `state NAME init`", bad[0], path)
    initial = [(lineno, args[0]) for lineno, args in found["state"] if args[1:]]
    if len(initial) != 1:
        raise FormatError("need exactly one init state", initial[1][0] if initial else None, path)
    transitions = []
    for lineno, (src, guard, dst, reward) in found["trans"]:
        try:
            guard = parse_formula(guard, alphabet)
        except PluralismError as err:
            raise FormatError(f"bad guard: {err}", lineno, path)
        transitions.append(Transition(src, guard, dst, _parse_real(reward, lineno, path)))
    try:
        return RewardMachine(
            states=tuple(args[0] for _, args in found["state"]),
            initial=initial[0][1],
            alphabet=alphabet,
            transitions=tuple(transitions),
        )
    except ValueError as err:
        raise FormatError(str(err), path=path)


def load_machine(path) -> RewardMachine:
    """Parse and validate; an invalid machine raises `PATH: not a valid
    machine` followed by one problem per line."""
    path = Path(path)
    return require_valid(parse_machine_text(path.read_text(), str(path)), str(path))


def save_machine(machine: RewardMachine, path) -> None:
    Path(path).write_text(machine_to_text(machine))


# ---------------------------------------------------------------------------
# environments (.env)


def env_to_text(env: LabelledEnv) -> str:
    if isinstance(env, RestaurantEnv):
        cfg = env.config
        lines = ["version 1", "env restaurant", f"n_friends {cfg.n_friends}"]
        lines.append("types " + " ".join(cfg.restaurant_types))
        for i, pref in enumerate(cfg.preferred, start=1):
            lines.append(f"prefers {i} {pref}")
        return "\n".join(lines) + "\n"
    if isinstance(env, DeliveryGridEnv):
        cfg = env.config
        lines = ["version 1", "env delivery_grid", f"grid {cfg.width} {cfg.height}"]
        lines.append(f"start {cfg.start[0]} {cfg.start[1]}")
        for x, y in cfg.recipients:
            lines.append(f"recipient {x} {y}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"no text form for {type(env).__name__}")


def parse_env_text(text: str, path: str = None) -> LabelledEnv:
    lines = _logical_lines(text, path)
    if not lines or lines[0][1][0] != "env" or len(lines[0][1]) != 2:
        raise FormatError("first line must be `env restaurant` or `env delivery_grid`",
                          lines[0][0] if lines else None, path)
    lineno, (_, kind) = lines[0]
    if kind == "restaurant":
        return _parse_restaurant(lines[1:], path)
    if kind == "delivery_grid":
        return _parse_delivery(lines[1:], path)
    raise FormatError(f"unknown env kind '{kind}'", lineno, path)


def _parse_restaurant(body: list, path: str) -> RestaurantEnv:
    found = _directives(body, path, {"n_friends": "N", "types": "[TYPE...]", "prefers": "I TYPE"})
    n_line, (count,) = _once(found, "n_friends", path)
    n_friends = _parse_int(count, n_line, path)
    types_line, types = _once(found, "types", path)
    prefers = _indexed(found, "prefers", n_friends, path, every="friend")
    lines = {"n_friends": n_line, "restaurant_types": types_line}
    lines.update({("preferred", i - 1): lineno for i, (lineno, _) in prefers.items()})
    preferred = tuple(prefers[i][1][0] for i in range(1, n_friends + 1))
    return RestaurantEnv(_at(lines, path, RestaurantConfig, n_friends, tuple(types), preferred))


def _parse_delivery(body: list, path: str) -> DeliveryGridEnv:
    found = _directives(body, path, {"grid": "W H", "start": "X Y", "recipient": "X Y"})

    def pair(lineno, args):
        return lineno, tuple(_parse_int(a, lineno, path) for a in args)

    grid_line, (width, height) = pair(*_once(found, "grid", path))
    start_line, start = pair(*_once(found, "start", path))
    recipients = [pair(*entry) for entry in found["recipient"]]
    lines = {"grid": grid_line, "start": start_line}
    lines.update({("recipients", i): lineno for i, (lineno, _) in enumerate(recipients)})
    cells = tuple(cell for _, cell in recipients)
    return DeliveryGridEnv(_at(lines, path, DeliveryConfig, width, height, start, cells))


def load_env(path) -> LabelledEnv:
    path = Path(path)
    return parse_env_text(path.read_text(), str(path))


def save_env(env: LabelledEnv, path) -> None:
    Path(path).write_text(env_to_text(env))


# ---------------------------------------------------------------------------
# markov reward tables (.mt)


def markov_table_to_text(source: MarkovTableSource) -> str:
    lines = ["version 1", f"default {format_real(source.default)}"]
    for (s, a, s2), r in sorted(source.rewards.items()):
        lines.append(f"reward {s} {a} {s2} {format_real(r)}")
    return "\n".join(lines) + "\n"


def parse_markov_table_text(text: str, path: str = None) -> MarkovTableSource:
    found = _directives(_logical_lines(text, path), path, {"default": "R", "reward": "S A S2 R"})
    lineno, (token,) = _once(found, "default", path, ["0"])
    default = _parse_real(token, lineno, path)
    rewards: dict = {}
    for lineno, (s, a, s2, r) in found["reward"]:
        if (s, a, s2) in rewards:
            raise FormatError(f"duplicate reward entry for {(s, a, s2)}", lineno, path)
        rewards[(s, a, s2)] = _parse_real(r, lineno, path)
    return MarkovTableSource(rewards=rewards, default=default)


def load_markov_table(path) -> MarkovTableSource:
    path = Path(path)
    source = parse_markov_table_text(path.read_text(), str(path))
    return MarkovTableSource(rewards=source.rewards, default=source.default, path=path.name)


def save_markov_table(source: MarkovTableSource, path) -> None:
    Path(path).write_text(markov_table_to_text(source))


# ---------------------------------------------------------------------------
# schemes (.scheme)

_FILTER_NAMES = {
    LongTermFilter: "long_term",
    PeriodicFilter: "periodic",
    AnytimeFilter: "anytime",
    EventCountFilter: "event_count",
}


def scheme_to_text(scheme: Scheme) -> str:
    lines = ["version 1", f"n {scheme.status.n}"]
    for i, sk in enumerate(scheme.status.stakeholders, start=1):
        src = sk.source
        if isinstance(src, AtomCountSource):
            lines.append(f"source {i} count {src.atom}")
        elif isinstance(src, MachineSource):
            if src.path is None:
                raise ValueError(f"stakeholder {i}: machine source has no file reference")
            lines.append(f"source {i} machine {src.path}")
        else:
            if src.path is None:
                raise ValueError(f"stakeholder {i}: markov source has no file reference")
            lines.append(f"source {i} markov {src.path}")
    for i, sk in enumerate(scheme.status.stakeholders, start=1):
        lines.append(f"accumulation {i} {sk.accumulation}")
    for i, sk in enumerate(scheme.status.stakeholders, start=1):
        if sk.accumulation == "discounted":
            lines.append(f"gamma {i} {format_real(sk.gamma)}")
    agg = scheme.aggregation
    lines.append(f"aggregation.mode {agg.mode}")
    if agg.mode == "flattened":
        lines.append(f"aggregation.op {agg.op}")
    else:
        lines.append(f"aggregation.inner_op {agg.inner_op}")
        lines.append(f"aggregation.outer_op {agg.outer_op}")
    filt = scheme.filter
    lines.append(f"filter.kind {_FILTER_NAMES[type(filt)]}")
    if isinstance(filt, PeriodicFilter):
        lines.append(f"filter.p {filt.period}")
    elif isinstance(filt, EventCountFilter):
        lines.append(f"filter.atom {filt.atom}")
        lines.append(f"filter.k {filt.every}")
    lines.append(f"empty_filter {scheme.empty_filter}")
    return "\n".join(lines) + "\n"


_SCHEME_ARITY = {
    "n": "K", "source": "I KIND ARG", "accumulation": "I KIND", "gamma": "I G",
    "aggregation.mode": "MODE", "aggregation.op": "OP", "aggregation.inner_op": "OP",
    "aggregation.outer_op": "OP", "filter.kind": "KIND", "filter.p": "P",
    "filter.atom": "ATOM", "filter.k": "K", "empty_filter": "POLICY",
}


def parse_scheme_text(text: str, path: str = None, base_dir=None) -> Scheme:
    """Build a scheme, loading referenced machine/markov files.

    Relative references resolve against base_dir (the scheme file's own
    directory when loaded via load_scheme).  A line the scheme would not
    read (a `gamma` of an undiscounted stakeholder, a field of another
    aggregation mode or filter kind) is an error, not silently dropped.
    """
    base = Path(base_dir) if base_dir is not None else Path(".")
    found = _directives(_logical_lines(text, path), path, _SCHEME_ARITY)

    def field(key, default=None):
        lineno, (value,) = _once(found, key, path, [default])
        return lineno, value

    def integer(key):
        lineno, (token,) = _once(found, key, path)
        return lineno, _parse_int(token, lineno, path)

    n_line, n = integer("n")
    sources = _indexed(found, "source", n, path, every="stakeholder")
    accumulations = _indexed(found, "accumulation", n, path)
    gammas = _indexed(found, "gamma", n, path)
    stakeholders = []
    for i in range(1, n + 1):
        lineno, (kind, arg) = sources[i]
        if kind == "count":
            source = AtomCountSource(arg)
        elif kind == "machine":
            source = MachineSource(machine=load_machine(base / arg), path=arg)
        elif kind == "markov":
            table = load_markov_table(base / arg)
            source = MarkovTableSource(rewards=table.rewards, default=table.default, path=arg)
        else:
            raise FormatError(f"unknown source kind '{kind}'", lineno, path)
        acc_line, (accumulation,) = accumulations.get(i, (None, ["sum"]))
        if accumulation == "discounted" and i not in gammas:
            raise FormatError(f"stakeholder {i} is discounted but has no 'gamma {i}'",
                              acc_line, path)
        if accumulation != "discounted" and i in gammas:
            raise FormatError(f"'gamma {i}' is never read: stakeholder {i} is not discounted",
                              gammas[i][0], path)
        gamma_line, (gamma,) = gammas.get(i, (None, ["1"]))
        lines = {"accumulation": acc_line, "gamma": gamma_line}
        stakeholders.append(_at(lines, path, StakeholderStatus, source,
                                accumulation, _parse_real(gamma, gamma_line, path)))
    mode_line, mode = field("aggregation.mode", "flattened")
    ops = ("op",) if mode == "flattened" else ("inner_op", "outer_op")
    read = {op: field(f"aggregation.{op}") for op in ops}
    lines = {"mode": mode_line, **{op: line for op, (line, _) in read.items()}}
    aggregation = _at(lines, path, Aggregation, mode=mode,
                      **{op: value for op, (_, value) in read.items()})
    lineno, kind = field("filter.kind")
    if kind == "long_term":
        filt = LongTermFilter()
    elif kind == "anytime":
        filt = AnytimeFilter()
    elif kind == "periodic":
        lineno, period = integer("filter.p")
        filt = _at(lineno, path, PeriodicFilter, period)
    elif kind == "event_count":
        _, (atom,) = _once(found, "filter.atom", path)
        lineno, every = integer("filter.k")
        filt = _at(lineno, path, EventCountFilter, atom, every)
    else:
        raise FormatError(f"missing or unknown filter.kind '{kind}'", lineno, path)
    status = _at(n_line, path, StatusFunction, stakeholders)
    lineno, empty_filter = field("empty_filter", "error")
    scheme = _at(lineno, path, Scheme, status, aggregation, filt, empty_filter)
    unread = [(entries[0][0], key) for key, entries in found.items() if entries]
    if unread:
        lineno, key = min(unread)
        raise FormatError(f"'{key}' is not read under this aggregation.mode and filter.kind",
                          lineno, path)
    return scheme


def load_scheme(path) -> Scheme:
    path = Path(path)
    return parse_scheme_text(path.read_text(), str(path), base_dir=path.parent)


def save_scheme(scheme: Scheme, path) -> None:
    Path(path).write_text(scheme_to_text(scheme))


# ---------------------------------------------------------------------------
# trajectories (.traj)


def trajectory_to_text(traj: Trajectory) -> str:
    lines = ["version 1", f"init {traj.states[0]}"]
    for a, s2, lab in zip(traj.actions, traj.states[1:], traj.labels):
        atoms = ",".join(sorted(lab)) if lab else "-"
        lines.append(f"step {a} {s2} {atoms}")
    return "\n".join(lines) + "\n"


def parse_trajectory_text(text: str, path: str = None) -> Trajectory:
    lines = _logical_lines(text, path)
    if not lines or lines[0][1][0] != "init" or len(lines[0][1]) != 2:
        raise FormatError("first line must be `init STATE`", lines[0][0] if lines else None, path)
    found = _directives(lines[1:], path, {"step": "ACTION STATE ATOMS"})
    steps = [args for _, args in found["step"]]
    return Trajectory(
        states=(lines[0][1][1],) + tuple(state for _, state, _ in steps),
        actions=tuple(action for action, _, _ in steps),
        labels=tuple(frozenset() if atoms == "-" else frozenset(atoms.split(","))
                     for _, _, atoms in steps),
    )


def load_trajectory(path) -> Trajectory:
    path = Path(path)
    return parse_trajectory_text(path.read_text(), str(path))


def save_trajectory(traj: Trajectory, path) -> None:
    Path(path).write_text(trajectory_to_text(traj))


# ---------------------------------------------------------------------------
# optimizer results


def write_results(result: PolicyResult, scheme: Scheme, out_dir) -> None:
    """result.txt + statuses.csv + best.traj under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [
        "version 1",
        f"method {result.method}",
        f"horizon {result.trajectory.horizon}",
        f"score {format_real(result.score)}",
        f"evaluations {result.evaluations}",
    ]
    (out / "result.txt").write_text("\n".join(lines) + "\n")
    write_status_csv(scheme, result.trajectory, out / "statuses.csv")
    save_trajectory(result.trajectory, out / "best.traj")


def write_status_csv(scheme: Scheme, traj: Trajectory, path) -> None:
    """One row per filtered time: t, u_1, ..., u_n."""
    rows = status_table(scheme, traj)
    n = scheme.status.n
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t"] + [f"u_{j}" for j in range(1, n + 1)])
        for t, vec in rows:
            writer.writerow([t] + [format_real(x) for x in vec])
