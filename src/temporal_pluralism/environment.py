"""Labelled sequential environments and the trajectories they produce.

An environment steps through states under chosen actions and labels each
transition with the set of atomic propositions that hold on it.  Two
places step one: `replay`, through a given action sequence, and the
search graph that greedy and memory_q share (optimize._Graph), one edge
at a time from the env states it keeps, each edge once.  Neither hands
the environment randomness, so a trajectory is a function of its action
sequence and exhaustive search is an exact oracle.
Stochasticity enters only through the seeded stream `rollout` hands to
policies.

Because a step is a pure function of (state, action), an environment may
compute each transition once: `RestaurantEnv` builds its labels at
construction, and `DeliveryGridEnv` records each (state, action) it is
asked for, and each state id, the first time, so the many replays of
an exhaustive search compute no transition twice.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import FieldError, PluralismError
from .formula import check_alphabet


class InvalidActionError(PluralismError):
    """An action outside the environment's action set was attempted."""


@dataclass(frozen=True)
class Trajectory:
    """A finite run: T actions, T labels, T+1 states (strings identify both).

    The trajectory of horizon 0 is just the initial state.  Prefixes are
    themselves trajectories, which is what filtered scoring relies on.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    labels: tuple[frozenset, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "labels", tuple(frozenset(l) for l in self.labels))
        if len(self.states) != len(self.actions) + 1:
            raise ValueError(
                f"{len(self.states)} states do not fit {len(self.actions)} actions"
            )
        if len(self.labels) != len(self.actions):
            raise ValueError(
                f"{len(self.labels)} labels do not fit {len(self.actions)} actions"
            )

    @property
    def horizon(self) -> int:
        return len(self.actions)

    def prefix(self, i: int) -> "Trajectory":
        """The first i steps, 0 <= i <= horizon."""
        if not 0 <= i <= self.horizon:
            raise ValueError(f"prefix length {i} outside [0, {self.horizon}]")
        return Trajectory(
            states=self.states[: i + 1],
            actions=self.actions[:i],
            labels=self.labels[:i],
        )


class LabelledEnv:
    """Base class; subclasses fill in alphabet, actions, reset, step, state_id.

    State objects are internal to the environment; `state_id` renders them as
    the strings stored in trajectories.
    """

    alphabet: tuple[str, ...] = ()
    actions: tuple[str, ...] = ()

    def reset(self, seed: int):
        """The initial state.  `seed` is never read; like `step`'s `rng`, it
        stays only until perfbench's call sites drop it."""
        raise NotImplementedError

    def step(self, state, action: str, rng: None):
        """Returns (next_state, valuation).  `rng` is always None: replay
        hands an environment no randomness."""
        raise NotImplementedError

    def state_id(self, state) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class RestaurantConfig:
    """A group of friends and the restaurant types they favor.

    `preferred[i]` is the type friend i+1 wants; distinct friends may share
    a favorite.  Every step visits one restaurant.
    """

    n_friends: int
    restaurant_types: tuple[str, ...]
    preferred: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "restaurant_types", tuple(self.restaurant_types))
        object.__setattr__(self, "preferred", tuple(self.preferred))
        if self.n_friends < 1:
            raise FieldError("need at least one friend", "n_friends")
        if len(self.preferred) != self.n_friends:
            raise ValueError("one preferred type per friend")
        for i, t in enumerate(self.preferred):
            if t not in self.restaurant_types:
                raise FieldError(f"preferred type '{t}' not offered", ("preferred", i))
        if len(set(self.restaurant_types)) != len(self.restaurant_types):
            raise FieldError("duplicate restaurant types", "restaurant_types")


class RestaurantEnv(LabelledEnv):
    """One restaurant booking per step for a group of friends.

    The label of a step contains `served_i` for every friend i whose
    preferred type was chosen, plus the atom `visit` on every step, so
    "every k-th restaurant" is expressible as an event-count filter without
    special-casing.  A label depends on the action alone, so each type's
    label is built once, at construction, and a step looks it up.
    """

    def __init__(self, config: RestaurantConfig):
        self.config = config
        self.actions = tuple(config.restaurant_types)
        self.alphabet = check_alphabet(
            [f"served_{i + 1}" for i in range(config.n_friends)] + ["visit"]
        )
        self._labels = {
            action: frozenset(
                [f"served_{i + 1}" for i, pref in enumerate(config.preferred) if pref == action]
                + ["visit"]
            )
            for action in self.actions
        }

    def reset(self, seed: int) -> int:
        return 0

    def step(self, state: int, action: str, rng: None):
        try:
            return state + 1, self._labels[action]
        except (KeyError, TypeError):  # TypeError: an unhashable action
            raise InvalidActionError(f"unknown restaurant type '{action}'") from None

    def state_id(self, state: int) -> str:
        return f"v{state}"


@dataclass(frozen=True)
class DeliveryConfig:
    """A grid, a start cell, and recipients each expecting goods every round."""

    width: int
    height: int
    start: tuple[int, int]
    recipients: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "start", tuple(self.start))
        object.__setattr__(
            self, "recipients", tuple(tuple(r) for r in self.recipients)
        )
        if self.width < 1 or self.height < 1:
            raise FieldError("grid must be at least 1x1", "grid")
        for i, cell in enumerate(self.recipients):
            if not self._in_bounds(cell):
                raise FieldError(f"recipient cell {cell} outside the grid", ("recipients", i))
        if not self._in_bounds(self.start):
            raise FieldError(f"start {self.start} outside the grid", "start")
        if not self.recipients:
            raise ValueError("need at least one recipient")
        for i, cell in enumerate(self.recipients):
            if cell in self.recipients[:i]:
                raise FieldError("recipients must occupy distinct cells", ("recipients", i))

    def _in_bounds(self, cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height


_MOVES = {"north": (0, 1), "south": (0, -1), "east": (1, 0), "west": (-1, 0)}


class DeliveryGridEnv(LabelledEnv):
    """A robot distributing goods on a grid, one item per recipient per round.

    State is (x, y, delivered flags for the current round).  `deliver` on a
    recipient's cell who has not yet received this round's good labels the
    step `delivered_i`; when that delivery is the round's last, the label
    also contains `round_complete` and the flags reset.  Moves off the edge
    clamp in place; `deliver` elsewhere (or a repeat delivery) is a legal
    no-op step with an empty label.

    Each transition is computed once per instance: the first `step(state,
    action)` runs the rule and records (next state, label), and every later
    call with that pair looks it up; `state_id` records each state's id the
    same way.  The tables hold at most one entry per distinct pair (or
    state) taken, no more than 110 on the benchmark's grids.  An unknown
    action is refused on every call and never recorded.
    """

    def __init__(self, config: DeliveryConfig):
        self.config = config
        self.actions = ("north", "south", "east", "west", "deliver")
        self.alphabet = check_alphabet(
            [f"delivered_{i + 1}" for i in range(len(config.recipients))]
            + ["round_complete"]
        )
        self._recipient_at = {cell: i for i, cell in enumerate(config.recipients)}
        self._steps: dict = {}  # (state, action) -> (next state, label)
        self._ids: dict = {}  # state -> state_id(state)

    def reset(self, seed: int):
        x, y = self.config.start
        return (x, y, (False,) * len(self.config.recipients))

    def step(self, state, action: str, rng: None):
        try:
            return self._steps[state, action]
        except KeyError:
            pass
        except TypeError:  # unhashable: run the rule uncached, which refuses the action
            return self._transition(state, action)
        result = self._steps[state, action] = self._transition(state, action)
        return result

    def _transition(self, state, action: str):
        """The step rule itself; `step` runs it once per (state, action)."""
        if action not in self.actions:
            raise InvalidActionError(f"unknown action '{action}'")
        x, y, done = state
        if action in _MOVES:
            dx, dy = _MOVES[action]
            nx = min(max(x + dx, 0), self.config.width - 1)
            ny = min(max(y + dy, 0), self.config.height - 1)
            return (nx, ny, done), frozenset()
        i = self._recipient_at.get((x, y))  # deliver
        if i is None or done[i]:
            return state, frozenset()
        done = done[:i] + (True,) + done[i + 1:]
        if all(done):
            label = frozenset([f"delivered_{i + 1}", "round_complete"])
            return (x, y, (False,) * len(done)), label
        return (x, y, done), frozenset([f"delivered_{i + 1}"])

    def state_id(self, state) -> str:
        try:
            return self._ids[state]
        except KeyError:
            x, y, done = state
            flags = "".join("1" if d else "0" for d in done)
            text = self._ids[state] = f"x{x}y{y}d{flags}"
            return text


def replay(env: LabelledEnv, actions: Iterable[str], seed: int = 0) -> Trajectory:
    """The trajectory of `actions` from a fresh reset.

    Each action is read just before its own step, so a lazy stream (see
    rollout) picks it with every earlier step already taken.  The env is
    handed no randomness: `step` always receives None.
    """
    state = env.reset(seed)
    states = [env.state_id(state)]
    acts: list[str] = []
    labels: list[frozenset] = []
    for action in actions:
        state, valuation = env.step(state, action, None)
        states.append(env.state_id(state))
        acts.append(action)
        labels.append(valuation)
    return Trajectory(states=tuple(states), actions=tuple(acts), labels=tuple(labels))


def rollout(
    env: LabelledEnv,
    policy: Callable,
    horizon: int,
    seed: int = 0,
) -> Trajectory:
    """Replay the actions `policy(t, rng)` picks for t = 1..horizon.

    The rng is a single random.Random(seed) shared across steps, so the
    whole episode is a deterministic function of (seed, policy).
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    rng = random.Random(seed)
    return replay(env, map(policy, range(1, horizon + 1), itertools.repeat(rng)), seed)


def cycle_policy(order: Sequence[str]) -> Callable:
    """Round-robin through `order`, restarting after the last entry."""
    order = tuple(order)
    if not order:
        raise ValueError("cycle needs at least one action")

    def policy(t, rng):
        return order[(t - 1) % len(order)]

    return policy


def sequence_policy(seq: Sequence[str]) -> Callable:
    """Play a fixed finite sequence; stepping past its end is an error."""
    seq = tuple(seq)

    def policy(t, rng):
        if t > len(seq):
            raise InvalidActionError(f"sequence policy exhausted at step {t}")
        return seq[t - 1]

    return policy


def random_policy(actions: Sequence[str]) -> Callable:
    actions = tuple(actions)

    def policy(t, rng):
        return rng.choice(actions)

    return policy
