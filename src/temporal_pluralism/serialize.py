"""Line-oriented text formats for machines, environments, schemes,
trajectories, and optimizer results.

Every format is diffable text: `#` starts a comment, blank lines are
ignored, tokens follow shell quoting rules (guards with spaces are
quoted).  Files may start with a `version 1` header; writers always emit
one.  Writers are canonical (fixed line order, fixed real formatting), so
save -> load -> save reproduces a file byte for byte.

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
    """Shortest exact decimal; integral doubles print as plain integers."""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _logical_lines(text: str, path: str = None) -> list:
    """[(line number, tokens)] with comments and blank lines dropped."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            tokens = shlex.split(raw, comments=True)
        except ValueError as err:
            raise FormatError(str(err), line=lineno, path=path)
        if tokens:
            out.append((lineno, tokens))
    return out


def _consume_version(lines: list, path: str = None) -> list:
    """Strip an optional `version 1` header; reject other versions."""
    if lines and lines[0][1][0] == "version":
        lineno, tokens = lines[0]
        if len(tokens) != 2:
            raise FormatError("version line needs exactly one argument", lineno, path)
        if tokens[1] != "1":
            raise SchemaVersionError(f"unsupported format version '{tokens[1]}'", lineno, path)
        return lines[1:]
    return lines


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
    lines = _consume_version(_logical_lines(text, path), path)
    alphabet = None
    states: list = []
    initial = None
    transitions: list = []
    for lineno, tokens in lines:
        kind = tokens[0]
        if kind == "alphabet":
            if alphabet is not None:
                raise FormatError("second alphabet line", lineno, path)
            alphabet = tuple(tokens[1:])
        elif kind == "state":
            if len(tokens) not in (2, 3) or (len(tokens) == 3 and tokens[2] != "init"):
                raise FormatError("expected `state NAME` or `state NAME init`", lineno, path)
            states.append(tokens[1])
            if len(tokens) == 3:
                if initial is not None:
                    raise FormatError("second init state", lineno, path)
                initial = tokens[1]
        elif kind == "trans":
            if len(tokens) != 5:
                raise FormatError("expected `trans SRC \"GUARD\" DST REWARD`", lineno, path)
            if alphabet is None:
                raise FormatError("alphabet must come before transitions", lineno, path)
            try:
                guard = parse_formula(tokens[2], alphabet)
            except PluralismError as err:
                raise FormatError(f"bad guard: {err}", lineno, path)
            reward = _parse_real(tokens[4], lineno, path)
            transitions.append(Transition(tokens[1], guard, tokens[3], reward))
        else:
            raise FormatError(f"unknown directive '{kind}'", lineno, path)
    if alphabet is None:
        raise FormatError("missing alphabet line", path=path)
    if initial is None:
        raise FormatError("no init state", path=path)
    try:
        return RewardMachine(
            states=tuple(states),
            initial=initial,
            alphabet=alphabet,
            transitions=tuple(transitions),
        )
    except ValueError as err:
        raise FormatError(str(err), path=path)


def load_machine(path) -> RewardMachine:
    """Parse and validate; invalid machines raise with the offending state named."""
    path = Path(path)
    machine = parse_machine_text(path.read_text(), str(path))
    return require_valid(machine)


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
    lines = _consume_version(_logical_lines(text, path), path)
    if not lines or lines[0][1][0] != "env" or len(lines[0][1]) != 2:
        raise FormatError("first line must be `env restaurant` or `env delivery_grid`", path=path)
    kind = lines[0][1][1]
    body = lines[1:]
    if kind == "restaurant":
        return _parse_restaurant(body, path)
    if kind == "delivery_grid":
        return _parse_delivery(body, path)
    raise FormatError(f"unknown env kind '{kind}'", lines[0][0], path)


def _parse_restaurant(body: list, path: str) -> RestaurantEnv:
    n_friends = None
    types = None
    prefers: dict = {}
    for lineno, tokens in body:
        if tokens[0] == "n_friends" and len(tokens) == 2:
            n_friends = _parse_int(tokens[1], lineno, path)
        elif tokens[0] == "types":
            types = tuple(tokens[1:])
        elif tokens[0] == "prefers" and len(tokens) == 3:
            prefers[_parse_int(tokens[1], lineno, path)] = tokens[2]
        else:
            raise FormatError(f"unknown directive '{tokens[0]}'", lineno, path)
    if n_friends is None or types is None:
        raise FormatError("restaurant env needs n_friends and types", path=path)
    missing = [i for i in range(1, n_friends + 1) if i not in prefers]
    if missing:
        raise FormatError(f"no preference for friend {missing[0]}", path=path)
    if len(prefers) != n_friends:
        raise FormatError("preference for an unknown friend index", path=path)
    try:
        config = RestaurantConfig(
            n_friends=n_friends,
            restaurant_types=types,
            preferred=tuple(prefers[i] for i in range(1, n_friends + 1)),
        )
    except ValueError as err:
        raise FormatError(str(err), path=path)
    return RestaurantEnv(config)


def _parse_delivery(body: list, path: str) -> DeliveryGridEnv:
    grid = None
    start = None
    recipients: list = []
    for lineno, tokens in body:
        if tokens[0] == "grid" and len(tokens) == 3:
            grid = (_parse_int(tokens[1], lineno, path), _parse_int(tokens[2], lineno, path))
        elif tokens[0] == "start" and len(tokens) == 3:
            start = (_parse_int(tokens[1], lineno, path), _parse_int(tokens[2], lineno, path))
        elif tokens[0] == "recipient" and len(tokens) == 3:
            recipients.append(
                (_parse_int(tokens[1], lineno, path), _parse_int(tokens[2], lineno, path))
            )
        else:
            raise FormatError(f"unknown directive '{tokens[0]}'", lineno, path)
    if grid is None or start is None:
        raise FormatError("delivery env needs grid and start", path=path)
    try:
        config = DeliveryConfig(
            width=grid[0], height=grid[1], start=start, recipients=tuple(recipients)
        )
    except ValueError as err:
        raise FormatError(str(err), path=path)
    return DeliveryGridEnv(config)


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
    lines = _consume_version(_logical_lines(text, path), path)
    default = 0.0
    rewards: dict = {}
    for lineno, tokens in lines:
        if tokens[0] == "default" and len(tokens) == 2:
            default = _parse_real(tokens[1], lineno, path)
        elif tokens[0] == "reward" and len(tokens) == 5:
            key = (tokens[1], tokens[2], tokens[3])
            if key in rewards:
                raise FormatError(f"duplicate reward entry for {key}", lineno, path)
            rewards[key] = _parse_real(tokens[4], lineno, path)
        else:
            raise FormatError(f"unknown directive '{tokens[0]}'", lineno, path)
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


def parse_scheme_text(text: str, path: str = None, base_dir=None) -> Scheme:
    """Build a scheme, loading referenced machine/markov files.

    Relative references resolve against base_dir (the scheme file's own
    directory when loaded via load_scheme).
    """
    base = Path(base_dir) if base_dir is not None else Path(".")
    lines = _consume_version(_logical_lines(text, path), path)
    n = None
    sources: dict = {}
    accumulations: dict = {}
    gammas: dict = {}
    fields: dict = {}
    for lineno, tokens in lines:
        key = tokens[0]
        if key == "n" and len(tokens) == 2:
            n = _parse_int(tokens[1], lineno, path)
        elif key == "source" and len(tokens) == 4:
            i = _parse_int(tokens[1], lineno, path)
            if i in sources:
                raise FormatError(f"second source for stakeholder {i}", lineno, path)
            kind, arg = tokens[2], tokens[3]
            if kind == "count":
                sources[i] = AtomCountSource(arg)
            elif kind == "machine":
                machine = load_machine(base / arg)
                sources[i] = MachineSource(machine=machine, path=arg)
            elif kind == "markov":
                table = load_markov_table(base / arg)
                sources[i] = MarkovTableSource(
                    rewards=table.rewards, default=table.default, path=arg
                )
            else:
                raise FormatError(f"unknown source kind '{kind}'", lineno, path)
        elif key == "accumulation" and len(tokens) == 3:
            accumulations[_parse_int(tokens[1], lineno, path)] = tokens[2]
        elif key == "gamma" and len(tokens) == 3:
            gammas[_parse_int(tokens[1], lineno, path)] = _parse_real(tokens[2], lineno, path)
        elif len(tokens) == 2 and key in (
            "aggregation.mode",
            "aggregation.op",
            "aggregation.inner_op",
            "aggregation.outer_op",
            "filter.kind",
            "filter.p",
            "filter.atom",
            "filter.k",
            "empty_filter",
        ):
            if key in fields:
                raise FormatError(f"duplicate '{key}'", lineno, path)
            fields[key] = tokens[1]
        else:
            raise FormatError(f"unknown directive '{key}'", lineno, path)
    if n is None:
        raise FormatError("missing stakeholder count `n`", path=path)
    missing = [i for i in range(1, n + 1) if i not in sources]
    if missing:
        raise FormatError(f"no source for stakeholder {missing[0]}", path=path)
    if len(sources) != n:
        raise FormatError("source for an out-of-range stakeholder index", path=path)
    try:
        stakeholders = tuple(
            StakeholderStatus(
                source=sources[i],
                accumulation=accumulations.get(i, "sum"),
                gamma=gammas.get(i, 1.0),
            )
            for i in range(1, n + 1)
        )
        status = StatusFunction(stakeholders)
        mode = fields.get("aggregation.mode", "flattened")
        if mode == "flattened":
            aggregation = Aggregation(mode=mode, op=fields.get("aggregation.op"))
        else:
            aggregation = Aggregation(
                mode=mode,
                inner_op=fields.get("aggregation.inner_op"),
                outer_op=fields.get("aggregation.outer_op"),
            )
        filt = _parse_filter_fields(fields, path)
        return Scheme(
            status=status,
            aggregation=aggregation,
            filter=filt,
            empty_filter=fields.get("empty_filter", "error"),
        )
    except ValueError as err:
        raise FormatError(str(err), path=path)


def _parse_filter_fields(fields: dict, path: str):
    kind = fields.get("filter.kind")
    if kind == "long_term":
        return LongTermFilter()
    if kind == "anytime":
        return AnytimeFilter()
    if kind == "periodic":
        if "filter.p" not in fields:
            raise FormatError("periodic filter needs filter.p", path=path)
        return PeriodicFilter(int(fields["filter.p"]))
    if kind == "event_count":
        if "filter.atom" not in fields or "filter.k" not in fields:
            raise FormatError("event_count filter needs filter.atom and filter.k", path=path)
        return EventCountFilter(fields["filter.atom"], int(fields["filter.k"]))
    raise FormatError(f"missing or unknown filter.kind '{kind}'", path=path)


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
    lines = _consume_version(_logical_lines(text, path), path)
    if not lines or lines[0][1][0] != "init" or len(lines[0][1]) != 2:
        raise FormatError("first line must be `init STATE`", path=path)
    states = [lines[0][1][1]]
    actions: list = []
    labels: list = []
    for lineno, tokens in lines[1:]:
        if tokens[0] != "step" or len(tokens) != 4:
            raise FormatError("expected `step ACTION STATE ATOMS`", lineno, path)
        actions.append(tokens[1])
        states.append(tokens[2])
        labels.append(frozenset() if tokens[3] == "-" else frozenset(tokens[3].split(",")))
    return Trajectory(states=tuple(states), actions=tuple(actions), labels=tuple(labels))


def load_trajectory(path) -> Trajectory:
    path = Path(path)
    return parse_trajectory_text(path.read_text(), str(path))


def save_trajectory(traj: Trajectory, path) -> None:
    Path(path).write_text(trajectory_to_text(traj))


# ---------------------------------------------------------------------------
# optimizer results


def write_results(result: PolicyResult, scheme: Scheme, out_dir) -> None:
    """result.txt + statuses.csv + best.traj under out_dir.

    Wall time stays out of result.txt on purpose: the files must be
    byte-identical across reruns with the same seed.
    """
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
