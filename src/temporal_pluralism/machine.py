"""Reward machines: guarded automata that emit a reward on every transition.

A machine reads one valuation (the set of atoms true at that step) per
transition and moves along the unique edge whose guard is satisfied.  The
reward of a label sequence is the sum of the rewards emitted along the run,
which lets a machine express history-dependent preferences that no per-step
table can.

Machines are required to be deterministic and total: for every state and
every valuation over the alphabet, exactly one outgoing guard holds.  This
is checked by exhaustive enumeration, which is exact but visits all
2^|alphabet| valuations for every state: its cost doubles with each atom.
`pluralism validate` of a one-state machine took 0.18 s, 0.21 s and 0.42 s
at 12, 14 and 16 atoms (process start included; a shared 2-CPU Xeon host,
Python 3.11.7); see docs/formats.md.

A step tries the state's outgoing guards in declaration order, one
`eval_formula` call each; a guard is compiled to a test on its first
evaluation (see formula), so neither a step nor validation walks a guard's
tree again.  A guard that is a conjunction of literals, as each leaf of a
decision tree over the atoms is, is tested by one `issubset` or
`isdisjoint` call on the valuation, or by a closure of the two when it
both requires and negates atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .errors import FieldError, PluralismError
from .formula import (
    PropFormula,
    all_valuations,
    check_alphabet,
    eval_formula,
    format_valuation,
    formula_atoms,
    print_formula,
)


class InvalidStateError(PluralismError):
    """A step was attempted from a state the machine does not have."""


class NoEnabledTransitionError(PluralismError):
    """No outgoing guard held; the machine is not total at this valuation."""


class MachineValidationError(PluralismError):
    """Raised by require_valid when a machine fails the determinism/totality check."""

    def __init__(self, report: "MachineValidation", path: str = None):
        where = "" if path is None else f"{path}: "
        problems = "".join(f"\n  {p.describe()}" for p in report.problems)
        super().__init__(f"{where}not a valid machine{problems}")
        self.report = report


@dataclass(frozen=True)
class Transition:
    source: str
    guard: PropFormula
    target: str
    reward: float

    def __post_init__(self):
        if not math.isfinite(self.reward):
            raise ValueError(f"transition reward must be finite, got {self.reward}")


@dataclass(frozen=True)
class NondeterministicGuards:
    state: str
    valuation: frozenset
    transition_indices: tuple[int, ...]

    def describe(self) -> str:
        idx = ", ".join(str(i) for i in self.transition_indices)
        return (
            f"state {self.state}: guards of transitions {idx} overlap on "
            f"{format_valuation(self.valuation)}"
        )


@dataclass(frozen=True)
class NotTotal:
    state: str
    valuation: frozenset

    def describe(self) -> str:
        return f"state {self.state}: no guard holds on {format_valuation(self.valuation)}"


# What validate_machine reports of a valid machine.
VALID_MACHINE = "deterministic, total"


@dataclass(frozen=True)
class MachineValidation:
    problems: tuple

    @property
    def ok(self) -> bool:
        return not self.problems

    def describe(self) -> str:
        if self.ok:
            return VALID_MACHINE
        return "; ".join(p.describe() for p in self.problems)


@dataclass(frozen=True)
class RewardMachine:
    """A guarded automaton over a fixed alphabet of atomic propositions.

    `states` keeps declaration order; `initial` must be one of them.  Guards
    may only mention atoms from `alphabet`.  Construction normalizes the
    field types and checks referential integrity, but determinism and
    totality are a separate (exhaustive) check, see validate_machine.
    """

    states: tuple[str, ...]
    initial: str
    alphabet: tuple[str, ...]
    transitions: tuple[Transition, ...]
    _by_source: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        try:
            object.__setattr__(self, "alphabet", check_alphabet(self.alphabet))
        except ValueError as err:
            raise FieldError(str(err), "alphabet") from None
        object.__setattr__(self, "transitions", tuple(self.transitions))
        for i, state in enumerate(self.states):
            if state in self.states[:i]:
                raise FieldError("duplicate state names", ("states", i))
        if self.initial not in self.states:
            raise FieldError(f"initial state '{self.initial}' not among states", "initial")
        known = set(self.states)
        atoms = set(self.alphabet)
        by_source: dict = {s: [] for s in self.states}
        for i, t in enumerate(self.transitions):
            if t.source not in known:
                raise FieldError(f"transition {i}: unknown source state '{t.source}'",
                                 ("transitions", i))
            if t.target not in known:
                raise FieldError(f"transition {i}: unknown target state '{t.target}'",
                                 ("transitions", i))
            extra = formula_atoms(t.guard) - atoms
            if extra:
                raise FieldError(
                    f"transition {i}: guard mentions atoms outside the alphabet: "
                    + ", ".join(sorted(extra)), ("transitions", i)
                )
            by_source[t.source].append((i, t))
        object.__setattr__(self, "_by_source", by_source)


def validate_machine(machine: RewardMachine) -> MachineValidation:
    """Exhaustively check determinism and totality.

    Every (state, valuation) pair is enumerated; a valuation enabling more
    than one guard is reported as NondeterministicGuards, one enabling none
    as NotTotal.  Problems are collected in state order, then valuation
    order, so reports are stable.
    """
    problems: list = []
    for state in machine.states:
        outgoing = machine._by_source[state]
        for valuation in all_valuations(machine.alphabet):
            enabled = [i for i, t in outgoing if eval_formula(t.guard, valuation)]
            if len(enabled) > 1:
                problems.append(NondeterministicGuards(state, valuation, tuple(enabled)))
            elif not enabled:
                problems.append(NotTotal(state, valuation))
    return MachineValidation(tuple(problems))


def require_valid(machine: RewardMachine, path: str = None) -> RewardMachine:
    """The machine, or a MachineValidationError naming `path` and each problem."""
    report = validate_machine(machine)
    if not report.ok:
        raise MachineValidationError(report, path)
    return machine


def step_machine(machine: RewardMachine, state: str, valuation) -> tuple[str, float]:
    """One transition: returns (next state, emitted reward).

    Takes the first enabled transition in declaration order, which on a
    valid machine is also the only one.
    """
    outgoing = machine._by_source.get(state)
    if outgoing is None:
        raise InvalidStateError(f"machine has no state '{state}'")
    for _, t in outgoing:
        if eval_formula(t.guard, valuation):
            return t.target, t.reward
    raise NoEnabledTransitionError(
        f"no guard holds in state {state} on {format_valuation(valuation)}"
    )


@dataclass(frozen=True)
class MachineRun:
    visited: tuple[str, ...]
    rewards: tuple[float, ...]

    @property
    def total(self) -> float:
        """The rewards added in step order, as a `sum` status adds them
        (the builtin sum rounds otherwise from Python 3.12 on)."""
        total = 0.0
        for reward in self.rewards:
            total += reward
        return total


def run_machine(machine: RewardMachine, labels: Iterable[frozenset]) -> MachineRun:
    """Run the machine over a label sequence from its initial state.

    `visited` has one more entry than `rewards`: the state before each
    transition plus the final state.
    """
    state = machine.initial
    visited = [state]
    rewards: list[float] = []
    for valuation in labels:
        state, reward = step_machine(machine, state, valuation)
        visited.append(state)
        rewards.append(reward)
    return MachineRun(visited=tuple(visited), rewards=tuple(rewards))
