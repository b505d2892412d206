"""Search for action sequences that maximize a scheme's pluralism score.

Three methods, one contract: the returned score is always recomputed by an
independent pluralism_score call on the returned trajectory (see _result),
and every tie anywhere breaks lexicographically in the environment's
declared action order, which keeps golden results stable across platforms.

optimize_exhaustive is the exact oracle (every action sequence within a
budget).  optimize_greedy commits one action at a time after scoring
d-step extensions.  Both run the one scan _best_extension, from
different prefixes to different depths, and use no randomness: each
candidate is a `replay` of its action sequence, and `evaluations` is the
number of candidates, computed rather than counted.  optimize_memory_q
learns a tabular policy over the environment state augmented with the
scheme's status state (see scheme.step_state), with the whole-trajectory
score granted as a terminal reward; its seed drives exploration only.
It takes every scheme the scorer scores, and its table needs no cap: it
gains at most one key per step of each episode.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .environment import LabelledEnv, Trajectory, replay
from .errors import PluralismError
from .scheme import (
    EmptyFilterError,
    Scheme,
    aggregate,
    check_alphabet_compatibility,
    pluralism_score,
    start_state,
    status_eval,
    step_state,
)


class BudgetExceededError(PluralismError):
    """The instance has more action sequences than the enumeration budget."""


@dataclass(frozen=True)
class PolicyResult:
    trajectory: Trajectory
    score: float
    method: str
    evaluations: int


DEFAULT_BUDGET = 10_000_000


def _result(scheme: Scheme, traj: Trajectory, method: str, evaluations: int) -> PolicyResult:
    """Every optimizer's result: the trajectory rescored."""
    return PolicyResult(traj, pluralism_score(scheme, traj), method, evaluations)


def _best_extension(
    env: LabelledEnv, scheme: Scheme, prefix: tuple, depth: int, full: bool
) -> tuple:
    """The best `depth`-action extension of `prefix`.

    Every extension is replayed from reset.  When it reaches the full
    horizon it is keyed by the scheme's score, and skipped if the filter
    selects no prefix (as an event-count filter may).  A shorter one is
    keyed by a surrogate: the aggregation applied to its status vector
    alone, ties broken by the sorted vector (worst entry first).  The first
    strictly larger key wins, so ties keep declared action order.  If
    nothing is scorable the last EmptyFilterError surfaces.
    """
    best_key = best_ext = skip_error = None
    for ext in itertools.product(env.actions, repeat=depth):
        traj = replay(env, prefix + ext)
        if full:
            try:
                key = (pluralism_score(scheme, traj),)
            except EmptyFilterError as err:
                skip_error = err
                continue
        else:
            vec = status_eval(scheme.status, traj)
            key = (aggregate(scheme.aggregation, [vec]), tuple(sorted(vec)))
        if best_key is None or key > best_key:
            best_key, best_ext = key, ext
    if best_ext is None:
        raise skip_error or EmptyFilterError("no scorable action sequence")
    return best_ext


def _exceeds(k: int, horizon: int, budget: int) -> bool:
    """k**horizon > budget, without building k**horizon when it is huge."""
    if k > 1 and horizon > budget.bit_length():
        return True  # k**horizon >= 2**horizon > budget
    return k**horizon > budget


def optimize_exhaustive(
    env: LabelledEnv,
    scheme: Scheme,
    horizon: int,
    budget: int = DEFAULT_BUDGET,
) -> PolicyResult:
    """Enumerate every action sequence of the given length; exact maximum.

    Candidates the scheme cannot score (the filter selects no prefix, as
    an event-count filter may) are skipped; if nothing at all is scorable
    the EmptyFilterError surfaces.  Ties keep the lexicographically first
    sequence in declared action order.
    """
    check_alphabet_compatibility(scheme, env.alphabet)
    k = len(env.actions)
    if _exceeds(k, horizon, budget):
        raise BudgetExceededError(f"{k}^{horizon} sequences exceed the budget {budget}")
    best = _best_extension(env, scheme, (), horizon, full=True)
    return _result(scheme, replay(env, best), "exhaustive", k**horizon)


def optimize_greedy(
    env: LabelledEnv,
    scheme: Scheme,
    horizon: int,
    lookahead: int = 1,
) -> PolicyResult:
    """Commit one action at a time, scoring every d-step extension.

    Extensions that reach the full horizon are compared by the actual
    scheme; shorter ones by the surrogate of _best_extension, which steers
    early play toward balance instead of letting declared action order
    pick a favorite stakeholder forever.  Final ties keep declared action
    order, so lookahead == horizon reproduces the exhaustive result.
    """
    if lookahead < 1:
        raise ValueError("lookahead must be >= 1")
    check_alphabet_compatibility(scheme, env.alphabet)
    chosen: tuple = ()
    evaluations = 0
    while len(chosen) < horizon:
        depth = min(lookahead, horizon - len(chosen))
        full = len(chosen) + depth == horizon
        chosen += _best_extension(env, scheme, chosen, depth, full)[:1]
        evaluations += len(env.actions) ** depth
    return _result(scheme, replay(env, chosen), "greedy", evaluations)


def optimize_memory_q(
    env: LabelledEnv,
    scheme: Scheme,
    horizon: int,
    episodes: int = 5000,
    epsilon: float = 0.3,
    seed: int = 0,
) -> PolicyResult:
    """Episodic tabular Q-learning over (env state, status state).

    The status state (scheme.step_state) holds all the scorer steps: the
    step index, each stakeholder's running status and discount weight, and
    each machine's state.  The whole-trajectory score arrives as a
    terminal reward and is swept backwards through the episode: the entry
    taken at each step is set to the best value of the row after it (no
    learning rate: on a deterministic environment each target is exact).
    Under a long-term filter the status state determines the reward, so on
    a deterministic environment the policy converges to the optimum for
    every source and accumulation.  Periodic, anytime and event-count
    filters bank contributions (and events) the state does not hold, so
    there learning is best-effort.  An episode whose filter passes no time
    updates nothing.

    Reproducible per seed; zero episodes yield the policy that always
    takes the first declared action (empty table, lexicographic ties).
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if episodes < 0:
        raise ValueError("episodes must be >= 0")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    check_alphabet_compatibility(scheme, env.alphabet)
    status = scheme.status
    actions = env.actions
    rng = random.Random(seed)
    q: dict = {}

    def run_episode(explore: bool):
        state = env.reset(seed)
        memory = start_state(status)
        states = [env.state_id(state)]
        acts: list = []
        labels: list = []
        path: list = []
        for _ in range(horizon):
            key = (states[-1], memory)
            row = q.setdefault(key, [0.0] * len(actions))
            if explore and rng.random() < epsilon:
                ai = rng.randrange(len(actions))
            else:
                ai = row.index(max(row))
            state, label = env.step(state, actions[ai], None)
            states.append(env.state_id(state))
            memory = step_state(status, memory, states[-2], actions[ai], states[-1], label)
            acts.append(actions[ai])
            labels.append(label)
            path.append((key, ai))
        return Trajectory(tuple(states), tuple(acts), tuple(labels)), path

    for _ in range(episodes):
        traj, path = run_episode(explore=True)
        try:
            bootstrap = pluralism_score(scheme, traj)
        except EmptyFilterError:
            continue
        for key, ai in reversed(path):
            row = q[key]
            row[ai] = bootstrap
            bootstrap = max(row)

    best_traj, _ = run_episode(explore=False)
    return _result(scheme, best_traj, "memory_q", episodes + 1)

