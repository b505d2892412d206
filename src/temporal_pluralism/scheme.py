"""Pluralism schemes: status functions, extended aggregation, and filters.

A scheme scores a whole trajectory against a group of stakeholders.  Three
parts compose:

  * a status function U mapping every trajectory prefix to an n-vector,
    one entry per stakeholder, built from per-stakeholder reward sources
    and one accumulation rule, `total += weight * r; weight *= gamma`
    (`sum` and `mean` are that rule at gamma 1, `mean` then divides by t);
  * a filter B selecting which prefix lengths of (1..T) count at all;
  * an extended aggregation W collapsing the selected status vectors into
    one real number.

The score of a trajectory is W applied to U at every filtered time.  The
length-0 prefix is never scored: filters draw from (1..T) only.

What a scheme remembers between steps is one flat, hashable status state
`(t, totals, weights, machine states)`: `StatusFunction.start` is the
empty prefix's, `StatusFunction.step` advances it by one transition, and
`state_vector` reads U off it.  Scoring folds that step along the
trajectory, and the memory_q learner keys its Q-table on it and scores its
episodes from it.

What is fixed per status function is decided once, not on every step.
`StatusFunction.step` is a function generated on first use with one line
per stakeholder, so no step tests a source's type (the way `dataclasses`
and `namedtuple` build their methods).  Its twin `StatusFunction.table`
runs the same lines down a whole trajectory.  Their text holds only
stakeholder indices, source kinds and which stakeholders average
(`StatusFunction.means`, which state_vector reads too), and every
constant is an argument, so status functions of one shape share one
compiled factory.

A label some machine stakeholder cannot read is refused by one rule,
`check_labels`, before anything steps over it: `status_table` and
`status_eval` call it on the labels they read, and the optimizers' search
graph on each label it steps.  So the generated kernels only step.

Scoring has two routes.  `pluralism_score` folds the status step down
the trajectory in one call of `StatusFunction.table`, which keeps the
state in locals and reads U off at each filtered time;
`pluralism_score_reference` recomputes every filtered prefix from
scratch.  Both run the same accumulation arithmetic in the same order, so
they agree bit for bit, and the test suite holds them to that.  The
optimizers, which step one edge at a time and key on the whole status
state, fold `StatusFunction.step` and score by `states_score`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping, Sequence, Union

from .environment import Trajectory
from .errors import FieldError, PluralismError
from .formula import is_proposition_name
from .machine import RewardMachine, run_machine, step_machine


class EmptyInputError(PluralismError):
    """aggregate was called with zero status vectors, or with vectors of
    zero entries."""


class EmptyFilterError(PluralismError):
    """No prefix passed the filter and the scheme's empty-filter policy is 'error'."""


class AlphabetMismatchError(PluralismError):
    """Trajectory labels (or an environment alphabet) fall outside what a source understands."""


# ---------------------------------------------------------------------------
# status sources


def _require_name(atom: str) -> None:
    """Refuse an `atom` no label can hold: one that is not a proposition
    name (a FieldError tagged `atom`)."""
    if not is_proposition_name(atom):
        raise FieldError(f"invalid proposition name '{atom}'", "atom")


@dataclass(frozen=True)
class AtomCountSource:
    """Reward 1 on every step whose label contains `atom`, else 0."""

    atom: str

    def __post_init__(self):
        _require_name(self.atom)


@dataclass(frozen=True)
class MachineSource:
    """Per-step reward emitted by a reward machine run over the labels.

    `path` remembers where the machine was loaded from so a scheme that
    references it by file can be written back verbatim; it carries no
    semantics.
    """

    machine: RewardMachine
    path: str = field(default=None, compare=False)


@dataclass(frozen=True)
class MarkovTableSource:
    """Classic per-transition table: reward of (s, a, s'), with a default."""

    rewards: Mapping
    default: float = 0.0
    path: str = field(default=None, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.default):
            raise ValueError(f"markov table default must be finite, got {self.default}")
        for key, r in self.rewards.items():
            if not math.isfinite(r):
                raise ValueError(f"markov reward of {key} must be finite, got {r}")

    def __hash__(self):  # the rewards are a dict
        return hash((frozenset(self.rewards.items()), self.default))


StatusSource = Union[AtomCountSource, MachineSource, MarkovTableSource]

_ACCUMULATIONS = ("sum", "discounted", "mean")


@dataclass(frozen=True)
class StakeholderStatus:
    """One stakeholder's reward source plus how per-step rewards accumulate.

    Every accumulation weights step t by gamma^(t-1).  `discounted` takes
    gamma in (0, 1]; `sum` and `mean` take only gamma 1, and `mean` divides
    the total by t.
    """

    source: StatusSource
    accumulation: str = "sum"
    gamma: float = 1.0

    def __post_init__(self):
        if self.accumulation not in _ACCUMULATIONS:
            raise FieldError(f"unknown accumulation '{self.accumulation}'", "accumulation")
        if self.accumulation != "discounted" and self.gamma != 1.0:
            raise FieldError(f"{self.accumulation} needs gamma 1, got {self.gamma}", "gamma")
        if not 0.0 < self.gamma <= 1.0:
            raise FieldError(f"gamma must be in (0, 1], got {self.gamma}", "gamma")


@dataclass(frozen=True)
class StatusFunction:
    """The stakeholders, and facts about them fixed at construction: does
    any read states and actions (`markov`: a Markov table does, so without
    one a score is a function of the labels alone); the (stakeholder
    number, alphabet atoms) of each machine stakeholder; `means`, the
    indices (from 0) of the stakeholders that average, which the kernel
    and state_vector both read; and `start`, the status state of the empty
    prefix.  `step`, the status step, and `table`, its fold down a
    trajectory, are built on first use, since building them at
    construction would cost every load."""

    stakeholders: tuple[StakeholderStatus, ...]
    markov: bool = field(init=False, repr=False, compare=False)
    machines: tuple = field(init=False, repr=False, compare=False)
    means: tuple = field(init=False, repr=False, compare=False)
    start: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "stakeholders", tuple(self.stakeholders))
        if not self.stakeholders:
            raise ValueError("need at least one stakeholder")
        sks, n = self.stakeholders, len(self.stakeholders)
        machines = [sk.source.machine if isinstance(sk.source, MachineSource) else None
                    for sk in sks]
        object.__setattr__(self, "markov",
                           any(isinstance(sk.source, MarkovTableSource) for sk in sks))
        object.__setattr__(self, "machines", tuple([
            (i, frozenset(m.alphabet)) for i, m in enumerate(machines, 1) if m is not None]))
        object.__setattr__(self, "means", tuple([
            i for i, sk in enumerate(sks) if sk.accumulation == "mean"]))
        object.__setattr__(self, "start", (0, (0.0,) * n, (1.0,) * n, tuple([
            None if m is None else m.initial for m in machines])))

    @property
    def n(self) -> int:
        return len(self.stakeholders)

    @cached_property
    def _kernel(self):
        """(step, table), from one call of the factory _step_text defines."""
        kinds, constants = [], []
        for sk in self.stakeholders:
            src = sk.source
            if isinstance(src, AtomCountSource):
                kinds.append("count")
                constants.append(src.atom)
            elif isinstance(src, MachineSource):
                kinds.append("machine")
                constants.append(src.machine)
            elif isinstance(src, MarkovTableSource):
                kinds.append("markov")
                constants += [src.rewards.get, src.default]
            else:
                raise TypeError(f"not a status source: {src!r}")
        discounts = any(sk.gamma != 1.0 for sk in self.stakeholders)
        if discounts:
            constants += [sk.gamma for sk in self.stakeholders]
        factory = _step_factory(_step_text(tuple(kinds), discounts, self.means),
                                f"<status step: {', '.join(kinds)}>")
        return factory(*constants)

    @cached_property
    def step(self):
        """The status step, `step(state, s, a, s2, label)`: the status
        state one transition (s, a, s2) with `label` later, so its fold
        from `start` is the status state of a prefix.  One generated
        function with a line per stakeholder (see _step_text), built on
        first use.  Every machine stakeholder must be able to read
        `label`: the callers refuse one it cannot (check_labels) before
        they step."""
        return self._kernel[0]

    @cached_property
    def table(self):
        """The status step folded in one generated call,
        `table(state, states, actions, labels, times)`: the status vectors
        at each of the increasing `times`, from `state` at time state[0]
        (see _step_text)."""
        return self._kernel[1]

    def __getstate__(self):  # closures do not pickle; they are rebuilt on use
        return {k: v for k, v in self.__dict__.items() if k not in ("_kernel", "step", "table")}


def _step_reward_stream(source: StatusSource, traj: Trajectory) -> list:
    """Raw per-step rewards of the source over the whole trajectory."""
    if isinstance(source, AtomCountSource):
        return [1.0 if source.atom in lab else 0.0 for lab in traj.labels]
    if isinstance(source, MachineSource):
        return list(run_machine(source.machine, traj.labels).rewards)
    if isinstance(source, MarkovTableSource):
        return [
            source.rewards.get((s, a, s2), source.default)
            for s, a, s2 in zip(traj.states, traj.actions, traj.states[1:])
        ]
    raise TypeError(f"not a status source: {source!r}")


def _accumulate(sk: StakeholderStatus, traj: Trajectory) -> float:
    """The stakeholder's status of the whole of `traj`, from scratch."""
    rewards = _step_reward_stream(sk.source, traj)
    total, weight = 0.0, 1.0
    for r in rewards:
        total += weight * r
        weight *= sk.gamma
    return total / len(rewards) if sk.accumulation == "mean" and rewards else total


def status_eval(status: StatusFunction, traj: Trajectory) -> tuple:
    """U(τ): the status vector of one prefix, computed from scratch."""
    check_labels(status, traj.labels)
    return tuple(_accumulate(sk, traj) for sk in status.stakeholders)


def _tuple(items) -> str:
    """The source of a tuple display of the expressions `items`."""
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _step_text(kinds: tuple, discounts: bool, means: tuple) -> str:
    """The source of the factory of a status kernel over stakeholders of
    source `kinds` ('count', 'machine' or 'markov'), where the stakeholders
    numbered (from 0) in `means` average; it takes each stakeholder's
    constants in order (an atom, a machine, or a table's `rewards.get` and
    default), then each gamma if the status discounts, and returns the
    pair (step, table).

    `step` advances a status state by one transition.  `table` runs the
    same reward, total and weight lines over the steps up to each of
    `times` in turn, keeping every part of the state in a local, and reads
    U off at each time as state_vector does (t >= 1 there).  It zips in
    the states and actions only when a Markov stakeholder reads them
    (StatusFunction.markov).

    The lines mirror _accumulate step for step: the same additions in the
    same order, so vectors read off the state match the scratch route
    exactly.  A zero reward keeps the total's float object, which is the
    same value: a total starts at +0.0, so it is never -0.0, and
    total + ±0.0 == total.  A count's reward is 1.0, so its new total is
    total + weight.  Parts no stakeholder can change stay the same tuple,
    so the states that memory_q keeps as Q-table keys share them.
    """
    params, rewards, totals = [], [], []
    for i, kind in enumerate(kinds):
        if kind == "count":
            params.append(f"atom_{i}")
            totals.append(f"total_{i} + weight_{i} if atom_{i} in label else total_{i}")
            continue
        if kind == "machine":
            params.append(f"machine_{i}")
            rewards.append(f"m_{i}, r_{i} = step_machine(machine_{i}, m_{i}, label)")
        else:
            params += [f"get_{i}", f"default_{i}"]
            rewards.append(f"r_{i} = get_{i}((s, a, s2), default_{i})")
        totals.append(f"total_{i} + weight_{i} * r_{i} if r_{i} else total_{i}")
    each = range(len(kinds))
    unpack = [f"t, {_tuple([f'total_{i}' for i in each])}, weights, machine_states = state",
              f"{_tuple([f'weight_{i}' for i in each])} = weights"]
    weights, machine_states, new_weights = "weights", "machine_states", []
    if discounts:
        params += [f"gamma_{i}" for i in each]
        new_weights = [f"weight_{i} * gamma_{i}" for i in each]
        weights = _tuple(new_weights)
    if "machine" in kinds:
        unpack.append(_tuple([f"m_{i}" if kind == "machine" else "_"
                              for i, kind in enumerate(kinds)]) + " = machine_states")
        machine_states = _tuple([f"m_{i}" if kind == "machine" else "None"
                                 for i, kind in enumerate(kinds)])
    fold = rewards + [f"total_{i} = {total}" for i, total in enumerate(totals)]
    fold += [f"weight_{i} = {weight}" for i, weight in enumerate(new_weights)]
    if "markov" in kinds:
        loop = ("for s, a, s2, label in zip(states[t:stop], actions[t:stop], "
                "states[t + 1:stop + 1], labels[t:stop]):")
    else:
        loop = "for label in labels[t:stop]:"
    vector = _tuple([f"total_{i} / t" if i in means else f"total_{i}" for i in each])

    def block(lines, depth):
        return "".join(f"{' ' * depth}{line}\n" for line in lines)

    return (f"def factory({', '.join(params)}):\n"
            f"    def step(state, s, a, s2, label):\n"
            f"{block(unpack + rewards, 8)}"
            f"        return (t + 1, (\n"
            f"{block([f'{total},' for total in totals], 12)}"
            f"        ), {weights}, {machine_states})\n"
            f"    def table(state, states, actions, labels, times):\n"
            f"{block(unpack, 8)}"
            f"        rows = []\n"
            f"        for stop in times:\n"
            f"            {loop}\n"
            f"{block(fold, 16)}"
            f"            t = stop\n"
            f"            rows.append({vector})\n"
            f"        return rows\n"
            f"    return step, table\n")


@lru_cache(maxsize=256)
def _step_factory(text: str, filename: str):
    """The factory `text` defines, compiled once per text, as `re` caches
    its patterns: the text depends only on the status's shape.  It runs in
    this module's globals, so a step looks up `step_machine` at call
    time."""
    namespace: dict = {}
    exec(compile(text, filename, "exec"), globals(), namespace)
    return namespace["factory"]


def state_vector(status: StatusFunction, state: tuple) -> tuple:
    """U(τ_t) of the prefix of t >= 1 steps the state has consumed."""
    t, totals, means = state[0], state[1], status.means
    if not means:
        return totals  # sum and discounted statuses are their running totals
    return tuple([total / t if i in means else total for i, total in enumerate(totals)])


# ---------------------------------------------------------------------------
# extended aggregation

_OPS = ("product", "sum", "min", "mean")
_NESTED = ("inner_op", "outer_op")
# aggregation mode -> the op fields of Aggregation it reads; it refuses the others
AGGREGATION_MODES = {"flattened": ("op",), "time_then_stakeholders": _NESTED,
                     "stakeholders_then_time": _NESTED}


def _reduce(op: str, values: Sequence[float]) -> float:
    # Reducing over sorted operands makes the result exactly invariant
    # under permutations of the inputs, not just up to rounding.
    ordered = sorted(values)
    if op == "min":
        return ordered[0]
    if op == "product":
        out = 1.0
        for v in ordered:
            out *= v
        return out
    out = 0.0
    for v in ordered:
        out += v
    if op == "mean":
        return out / len(ordered)
    return out


@dataclass(frozen=True)
class Aggregation:
    """How the filtered status vectors collapse to one number.

    `flattened` pools all k*n entries and applies `op` once; product is
    Nash welfare, sum utilitarian, min egalitarian.  The nested modes
    apply `inner_op` then `outer_op`: `time_then_stakeholders` reduces
    each stakeholder's history first, `stakeholders_then_time` reduces
    each time's vector first.
    """

    mode: str = "flattened"
    op: str = None
    inner_op: str = None
    outer_op: str = None

    def __post_init__(self):
        if self.mode not in AGGREGATION_MODES:
            raise FieldError(f"unknown aggregation mode '{self.mode}'", "mode")
        reads = AGGREGATION_MODES[self.mode]
        for name in reads:
            if getattr(self, name) not in _OPS:
                family = "nested" if reads is _NESTED else self.mode
                raise FieldError(f"{family} aggregation needs {' and '.join(reads)} in {_OPS}",
                                 name)
        for name in ("op", *_NESTED):
            if name not in reads and getattr(self, name) is not None:
                raise FieldError(f"{self.mode} aggregation reads no {name}", name)


def aggregate(agg: Aggregation, vectors: Sequence) -> float:
    """W(u_1..u_k) for k >= 1 status vectors of uniform length n >= 1.

    A NaN entry raises ValueError.
    """
    if not vectors or not vectors[0]:
        raise EmptyInputError("aggregate needs at least one status vector of at least one entry")
    n = len(vectors[0])
    for v in vectors:
        if len(v) != n:
            raise ValueError("status vectors of differing length")
    # sorted() cannot order a NaN, so _reduce would depend on entry order.
    # One C-level sum is NaN whenever an entry is; only then scan exactly.
    if math.isnan(sum(map(sum, vectors))) and any(math.isnan(x) for v in vectors for x in v):
        raise ValueError("status vectors hold a NaN entry")
    if agg.mode == "flattened":
        return _reduce(agg.op, [x for vec in vectors for x in vec])
    if agg.mode == "time_then_stakeholders":
        inner = [_reduce(agg.inner_op, [vec[j] for vec in vectors]) for j in range(n)]
        return _reduce(agg.outer_op, inner)
    inner = [_reduce(agg.inner_op, vec) for vec in vectors]
    return _reduce(agg.outer_op, inner)


# ---------------------------------------------------------------------------
# filters


@dataclass(frozen=True)
class LongTermFilter:
    """Only the full trajectory counts."""


@dataclass(frozen=True)
class PeriodicFilter:
    """Every multiple of the period counts."""

    period: int

    def __post_init__(self):
        if self.period < 1:
            raise FieldError("period must be >= 1", "period")


@dataclass(frozen=True)
class AnytimeFilter:
    """Every prefix counts; same times as a period-1 periodic filter."""


@dataclass(frozen=True)
class EventCountFilter:
    """Count steps whose label contains `atom`; pass each time the count
    reaches a fresh multiple of `every`.

    A time t passes exactly when the atom fires at t and the cumulative
    count at t is a multiple of `every`, so each multiple admits one time
    even if the atom then goes quiet.
    """

    atom: str
    every: int

    def __post_init__(self):
        _require_name(self.atom)
        if self.every < 1:
            raise FieldError("event count must be >= 1", "every")


FilterFunction = Union[LongTermFilter, PeriodicFilter, AnytimeFilter, EventCountFilter]


def filter_times(filt: FilterFunction, traj: Trajectory) -> tuple:
    """The increasing subsequence of (1..T) passing the filter."""
    return label_times(filt, traj.labels)


def label_times(filt: FilterFunction, labels: Sequence) -> tuple:
    """filter_times of the trajectory whose T = len(labels) steps carry
    `labels`: the filter reads nothing else."""
    horizon = len(labels)
    if isinstance(filt, LongTermFilter):
        return (horizon,) if horizon >= 1 else ()
    if isinstance(filt, PeriodicFilter):
        return tuple(range(filt.period, horizon + 1, filt.period))
    if isinstance(filt, AnytimeFilter):
        return tuple(range(1, horizon + 1))
    if isinstance(filt, EventCountFilter):
        out = []
        count = 0
        for t, lab in enumerate(labels, start=1):
            if filt.atom in lab:
                count += 1
                if count % filt.every == 0:
                    out.append(t)
        return tuple(out)
    raise TypeError(f"not a filter: {filt!r}")


# ---------------------------------------------------------------------------
# schemes and the score

_NEUTRAL = {"product": 1.0, "sum": 0.0}


@dataclass(frozen=True)
class Scheme:
    """The full triple: status function, aggregation, filter.

    `empty_filter` decides what happens when no prefix passes the filter:
    'error' (the default) raises EmptyFilterError; 'neutral' returns the
    op's identity and is only available for flattened product and sum,
    where an identity exists.
    """

    status: StatusFunction
    aggregation: Aggregation
    filter: FilterFunction
    empty_filter: str = "error"

    def __post_init__(self):
        if self.empty_filter not in ("error", "neutral"):
            raise ValueError(f"unknown empty-filter policy '{self.empty_filter}'")
        if self.empty_filter == "neutral":
            if self.aggregation.mode != "flattened" or self.aggregation.op not in _NEUTRAL:
                raise ValueError(
                    "neutral empty-filter policy needs flattened product or sum aggregation"
                )


def _empty_filter_result(scheme: Scheme, horizon: int) -> float:
    if scheme.empty_filter == "neutral":
        return _NEUTRAL[scheme.aggregation.op]
    raise EmptyFilterError(
        f"no prefix of the horizon-{horizon} trajectory passes the filter"
    )


def _filtered_score(scheme: Scheme, horizon: int, vectors: list) -> float:
    """W over the status vectors of a horizon-`horizon` trajectory's
    filtered times, or the scheme's empty-filter result when no time passes."""
    if not vectors:
        return _empty_filter_result(scheme, horizon)
    return aggregate(scheme.aggregation, vectors)


def states_score(scheme: Scheme, labels: Sequence, states: Sequence) -> float:
    """The score of the trajectory whose steps carry `labels`, read off its
    status states: states[t] is the fold of the status step over its first
    t steps (states[0] the start).

    The step runs the lines that status_table's kernel runs, so the
    score equals pluralism_score bit for bit.
    """
    status = scheme.status
    vectors = [state_vector(status, states[t]) for t in label_times(scheme.filter, labels)]
    return _filtered_score(scheme, len(labels), vectors)


def _table(scheme: Scheme, traj: Trajectory) -> tuple:
    """(the filtered times, U(τ_t) at each), from one call of the status's
    table kernel, which folds the status step up to each t in turn."""
    times = filter_times(scheme.filter, traj)
    if not times:
        return times, []
    status = scheme.status
    check_labels(status, traj.labels[:times[-1]])
    return times, status.table(status.start, traj.states, traj.actions, traj.labels, times)


def status_table(scheme: Scheme, traj: Trajectory) -> list:
    """[(t, U(τ_t)) for every filtered t]."""
    return list(zip(*_table(scheme, traj)))


def pluralism_score(scheme: Scheme, traj: Trajectory) -> float:
    """The scheme's score of the trajectory (incremental route)."""
    return _filtered_score(scheme, traj.horizon, _table(scheme, traj)[1])


def pluralism_score_reference(scheme: Scheme, traj: Trajectory) -> float:
    """Same score, recomputing every filtered prefix from scratch.

    Deliberately the slow literal reading of the definition; kept as a
    cross-check against the incremental route.
    """
    status = scheme.status
    vectors = [status_eval(status, traj.prefix(t)) for t in filter_times(scheme.filter, traj)]
    return _filtered_score(scheme, traj.horizon, vectors)


def log_pluralism_score(scheme: Scheme, traj: Trajectory) -> float:
    """log of the flattened-product score, summed in the log domain.

    Only defined when the aggregation is flattened product and every
    pooled status entry is strictly positive; long horizons underflow the
    plain product well before they trouble the log.
    """
    if scheme.aggregation.mode != "flattened" or scheme.aggregation.op != "product":
        raise PluralismError("log score needs flattened product aggregation")
    vectors = _table(scheme, traj)[1]
    if not vectors:
        return math.log(_empty_filter_result(scheme, traj.horizon))
    entries = [x for vec in vectors for x in vec]
    if any(x <= 0.0 for x in entries):
        raise PluralismError("log score undefined: some status entry is <= 0")
    # _reduce's sorted sequential fold, not the builtin sum, whose
    # compensated summation (Python >= 3.12) would round differently.
    return _reduce("sum", [math.log(x) for x in entries])


def check_labels(status: StatusFunction, labels: Sequence) -> None:
    """Refuse the first of `labels` that some machine stakeholder cannot
    read, naming the first such stakeholder."""
    machines = status.machines
    if not machines:
        return
    for label in labels:
        for i, atoms in machines:
            if not label <= atoms:
                raise AlphabetMismatchError(
                    f"stakeholder {i}: label atoms outside the machine alphabet: "
                    + ", ".join(sorted(label - atoms))
                )


def check_alphabet_compatibility(scheme: Scheme, alphabet) -> None:
    """Fail fast when a scheme cannot understand an environment's labels."""
    alpha = set(alphabet)
    for i, sk in enumerate(scheme.status.stakeholders, start=1):
        src = sk.source
        if isinstance(src, MachineSource):
            extra = alpha - set(src.machine.alphabet)
            if extra:
                raise AlphabetMismatchError(
                    f"stakeholder {i}: machine alphabet is missing " + ", ".join(sorted(extra))
                )
        elif isinstance(src, AtomCountSource):
            if src.atom not in alpha:
                raise AlphabetMismatchError(
                    f"stakeholder {i}: counted atom '{src.atom}' is not in the alphabet"
                )
    if isinstance(scheme.filter, EventCountFilter) and scheme.filter.atom not in alpha:
        raise AlphabetMismatchError(
            f"filter atom '{scheme.filter.atom}' is not in the alphabet"
        )
