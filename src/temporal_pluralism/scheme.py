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
empty prefix's, `step_state` advances it by one transition, and
`state_vector` reads U off it.  Scoring folds that step along the
trajectory, and the memory_q learner keys its Q-table on it and scores its
episodes from it.

A label some machine stakeholder cannot read is refused by one rule,
`check_labels`, before anything steps over it: `status_table` and
`status_eval` call it on the labels they read, and the optimizers' search
graph on each label it steps.  So `step_state` only steps.

Scoring has two routes.  `pluralism_score` folds `step_state` down the
trajectory; `pluralism_score_reference` recomputes every filtered prefix
from scratch.  Both run the same accumulation arithmetic in the same
order, so they agree bit for bit, and the test suite holds them to that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    any discount (gamma < 1) or average; the (stakeholder number, alphabet
    atoms) of each machine stakeholder; and `start`, the status state of
    the empty prefix."""

    stakeholders: tuple[StakeholderStatus, ...]
    discounts: bool = field(init=False, repr=False, compare=False)
    machines: tuple = field(init=False, repr=False, compare=False)
    averages: bool = field(init=False, repr=False, compare=False)
    start: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "stakeholders", tuple(self.stakeholders))
        if not self.stakeholders:
            raise ValueError("need at least one stakeholder")
        sks, n = self.stakeholders, len(self.stakeholders)
        machines = [sk.source.machine if isinstance(sk.source, MachineSource) else None
                    for sk in sks]
        object.__setattr__(self, "discounts", any(sk.gamma != 1.0 for sk in sks))
        object.__setattr__(self, "machines", tuple([
            (i, frozenset(m.alphabet)) for i, m in enumerate(machines, 1) if m is not None]))
        object.__setattr__(self, "averages", any(sk.accumulation == "mean" for sk in sks))
        object.__setattr__(self, "start", (0, (0.0,) * n, (1.0,) * n, tuple([
            None if m is None else m.initial for m in machines])))

    @property
    def n(self) -> int:
        return len(self.stakeholders)


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


def step_state(status: StatusFunction, state: tuple, s: str, a: str, s2: str, label) -> tuple:
    """The status state one transition (s, a, s2) with `label` later; the
    fold of it from `status.start` is the status state of a prefix.

    Mirrors _accumulate step for step: the same additions in the same
    order, so vectors read off the state match the scratch route exactly.
    A zero reward keeps the total's float object, which is the same value:
    a total starts at +0.0, so it is never -0.0, and total + ±0.0 == total.
    Every machine stakeholder must be able to read `label`: the callers
    refuse one it cannot (check_labels) before they step.
    """
    t, totals, weights, machine_states = state
    new_totals, new_machine_states = [], []
    for sk, total, weight, mstate in zip(status.stakeholders, totals, weights, machine_states):
        src = sk.source
        if isinstance(src, AtomCountSource):
            r = 1.0 if src.atom in label else 0.0
        elif isinstance(src, MachineSource):
            mstate, r = step_machine(src.machine, mstate, label)
        else:
            r = src.rewards.get((s, a, s2), src.default)
        new_totals.append(total + weight * r if r else total)
        new_machine_states.append(mstate)
    # Parts no stakeholder can change stay the same tuple, so the states
    # that memory_q keeps as Q-table keys share them.
    if status.discounts:
        weights = tuple([weight * sk.gamma for sk, weight in zip(status.stakeholders, weights)])
    return (t + 1, tuple(new_totals), weights,
            tuple(new_machine_states) if status.machines else machine_states)


def state_vector(status: StatusFunction, state: tuple) -> tuple:
    """U(τ_t) of the prefix the state has consumed."""
    t, totals = state[0], state[1]
    if not status.averages:
        return totals  # sum and discounted statuses are their running totals
    return tuple([
        (total / t if t else 0.0) if sk.accumulation == "mean" else total
        for sk, total in zip(status.stakeholders, totals)
    ])


# ---------------------------------------------------------------------------
# extended aggregation

_OPS = ("product", "sum", "min", "mean")
_MODES = ("flattened", "time_then_stakeholders", "stakeholders_then_time")


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
        if self.mode not in _MODES:
            raise FieldError(f"unknown aggregation mode '{self.mode}'", "mode")
        if self.mode == "flattened":
            if self.op not in _OPS:
                raise FieldError(f"flattened aggregation needs op in {_OPS}", "op")
            if self.inner_op is not None or self.outer_op is not None:
                raise ValueError("inner_op/outer_op are for the nested modes")
        else:
            for name in ("inner_op", "outer_op"):
                if getattr(self, name) not in _OPS:
                    raise FieldError(
                        f"nested aggregation needs inner_op and outer_op in {_OPS}", name
                    )
            if self.op is not None:
                raise ValueError("op is for flattened mode")


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
    status states: states[t] is the fold of step_state over its first t
    steps (states[0] the start).

    The same fold that status_table runs, so the score equals
    pluralism_score bit for bit.
    """
    status = scheme.status
    vectors = [state_vector(status, states[t]) for t in label_times(scheme.filter, labels)]
    return _filtered_score(scheme, len(labels), vectors)


def status_table(scheme: Scheme, traj: Trajectory) -> list:
    """[(t, U(τ_t)) for every filtered t], folding step_state up to each t."""
    times = filter_times(scheme.filter, traj)
    if not times:
        return []
    status = scheme.status
    states, actions, labels = traj.states, traj.actions, traj.labels
    check_labels(status, labels[:times[-1]])
    state = status.start
    rows = []
    for t in times:
        for i in range(state[0], t):
            state = step_state(status, state, states[i], actions[i], states[i + 1], labels[i])
        rows.append((t, state_vector(status, state)))
    return rows


def pluralism_score(scheme: Scheme, traj: Trajectory) -> float:
    """The scheme's score of the trajectory (incremental route)."""
    return _filtered_score(scheme, traj.horizon, [vec for _, vec in status_table(scheme, traj)])


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
    rows = status_table(scheme, traj)
    if not rows:
        return math.log(_empty_filter_result(scheme, traj.horizon))
    entries = [x for _, vec in rows for x in vec]
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
