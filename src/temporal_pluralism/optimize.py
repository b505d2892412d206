"""Search for action sequences that maximize a scheme's pluralism score.

Three methods, one contract: the returned score is always recomputed by an
independent pluralism_score call on the returned trajectory, and every
tie anywhere breaks lexicographically in the environment's declared action
order, which keeps golden results stable across platforms.

optimize_exhaustive is the exact oracle (every action sequence within a
budget).  optimize_greedy commits one action at a time after scoring
d-step extensions.  optimize_memory_q learns a tabular policy over the
environment state augmented with the scheme's status state (see
scheme.step_state), with the whole-trajectory score granted as a terminal
reward.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from .environment import LabelledEnv, Trajectory, replay
from .errors import PluralismError
from .scheme import (
    AtomCountSource,
    EmptyFilterError,
    EventCountFilter,
    MachineSource,
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


class MemoryCapExceededError(PluralismError):
    """A stakeholder's integer status outgrew the learner's memory cap."""


class UnsupportedSchemeError(PluralismError):
    """The learner only handles integer-status schemes with time-based filters."""


@dataclass(frozen=True)
class PolicyResult:
    trajectory: Trajectory
    score: float
    method: str
    evaluations: int
    wall_time: float


DEFAULT_BUDGET = 10_000_000


def optimize_exhaustive(
    env: LabelledEnv,
    scheme: Scheme,
    horizon: int,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> PolicyResult:
    """Enumerate every action sequence of the given length; exact maximum.

    Candidates the scheme cannot score (the filter selects no prefix, as
    an event-count filter may) are skipped; if nothing at all is scorable
    the EmptyFilterError surfaces.  Ties keep the lexicographically first
    sequence in declared action order.
    """
    check_alphabet_compatibility(scheme, env.alphabet)
    n_candidates = len(env.actions) ** horizon
    if n_candidates > budget:
        raise BudgetExceededError(
            f"{len(env.actions)}^{horizon} = {n_candidates} sequences exceed the budget {budget}"
        )
    started = time.perf_counter()
    best_seq = None
    best_score = None
    evaluations = 0
    skip_error = None
    for seq in itertools.product(env.actions, repeat=horizon):
        traj = replay(env, seq, seed)
        evaluations += 1
        try:
            score = pluralism_score(scheme, traj)
        except EmptyFilterError as err:
            skip_error = err
            continue
        if best_score is None or score > best_score:
            best_score = score
            best_seq = seq
    if best_seq is None:
        raise skip_error if skip_error is not None else EmptyFilterError(
            "no scorable action sequence"
        )
    best_traj = replay(env, best_seq, seed)
    return PolicyResult(
        trajectory=best_traj,
        score=pluralism_score(scheme, best_traj),
        method="exhaustive",
        evaluations=evaluations,
        wall_time=time.perf_counter() - started,
    )


def optimize_greedy(
    env: LabelledEnv,
    scheme: Scheme,
    horizon: int,
    lookahead: int = 1,
    seed: int = 0,
) -> PolicyResult:
    """Commit one action at a time, scoring every d-step extension.

    Extensions that reach the full horizon are compared by the actual
    scheme.  Shorter ones cannot be, so they get a surrogate: the
    aggregation applied to the prefix's status vector alone, with ties
    broken by the sorted status vector (worst entry first), which steers
    early play toward balance instead of letting declared action order
    pick a favorite stakeholder forever.  Final ties keep declared action
    order, so lookahead == horizon reproduces the exhaustive result.
    """
    if lookahead < 1:
        raise ValueError("lookahead must be >= 1")
    check_alphabet_compatibility(scheme, env.alphabet)
    started = time.perf_counter()
    chosen: list = []
    evaluations = 0
    while len(chosen) < horizon:
        depth = min(lookahead, horizon - len(chosen))
        full = len(chosen) + depth == horizon
        best_key = None
        best_action = None
        for ext in itertools.product(env.actions, repeat=depth):
            seq = tuple(chosen) + ext
            traj = replay(env, seq, seed)
            evaluations += 1
            if full:
                try:
                    key = (pluralism_score(scheme, traj),)
                except EmptyFilterError:
                    continue
            else:
                vec = status_eval(scheme.status, traj)
                key = (aggregate(scheme.aggregation, [vec]), tuple(sorted(vec)))
            if best_key is None or key > best_key:
                best_key = key
                best_action = ext[0]
        if best_action is None:
            raise EmptyFilterError("no scorable extension at step " + str(len(chosen) + 1))
        chosen.append(best_action)
    best_traj = replay(env, chosen, seed)
    return PolicyResult(
        trajectory=best_traj,
        score=pluralism_score(scheme, best_traj),
        method="greedy",
        evaluations=evaluations,
        wall_time=time.perf_counter() - started,
    )


def _check_learnable(scheme: Scheme) -> None:
    for i, sk in enumerate(scheme.status.stakeholders, start=1):
        if sk.accumulation != "sum":
            raise UnsupportedSchemeError(
                f"stakeholder {i}: the learner needs sum accumulation, not {sk.accumulation}"
            )
        if isinstance(sk.source, AtomCountSource):
            continue
        if isinstance(sk.source, MachineSource):
            if all(t.reward == int(t.reward) for t in sk.source.machine.transitions):
                continue
            raise UnsupportedSchemeError(
                f"stakeholder {i}: machine emits non-integer rewards"
            )
        raise UnsupportedSchemeError(
            f"stakeholder {i}: the learner needs atom-count or machine sources"
        )
    if isinstance(scheme.filter, EventCountFilter):
        raise UnsupportedSchemeError(
            "the learner needs a long-term, periodic, or anytime filter"
        )


def optimize_memory_q(
    env: LabelledEnv,
    scheme: Scheme,
    horizon: int,
    episodes: int = 5000,
    alpha: float = 1.0,
    epsilon: float = 0.3,
    seed: int = 0,
    memory_cap: int = None,
) -> PolicyResult:
    """Episodic tabular Q-learning over (env state, status state).

    The status state (scheme.step_state) holds the step index, each
    stakeholder's integer status and each machine's state; statuses are
    capped at `memory_cap` (default: the horizon, which is exact for
    atom counts).  The whole-trajectory score arrives as a terminal reward
    and is swept backwards through the episode.  For a long-term filter
    the status state determines that reward, so on a deterministic
    environment the learned policy converges to the optimum; for periodic
    and anytime filters contributions already banked at earlier filtered
    times are not part of the state, so learning is approximate there.

    Reproducible per seed; zero episodes yield the policy that always
    takes the first declared action (empty table, lexicographic ties).
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if episodes < 0:
        raise ValueError("episodes must be >= 0")
    check_alphabet_compatibility(scheme, env.alphabet)
    _check_learnable(scheme)
    started = time.perf_counter()
    cap = horizon if memory_cap is None else memory_cap
    status = scheme.status
    actions = env.actions
    rng = random.Random(seed)
    q: dict = {}
    evaluations = 0

    def greedy_index(row) -> int:
        best = 0
        for i in range(1, len(row)):
            if row[i] > row[best]:
                best = i
        return best

    def run_episode(explore: bool):
        nonlocal evaluations
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
                ai = greedy_index(row)
            state, label = env.step(state, actions[ai], rng)
            states.append(env.state_id(state))
            memory = step_state(status, memory, states[-2], actions[ai], states[-1], label)
            for total in memory[1]:
                if total > cap:
                    raise MemoryCapExceededError(
                        f"status {int(total)} exceeds the memory cap {cap}"
                    )
            acts.append(actions[ai])
            labels.append(label)
            path.append((key, ai))
        traj = Trajectory(tuple(states), tuple(acts), tuple(labels))
        evaluations += 1
        return traj, path

    for _ in range(episodes):
        traj, path = run_episode(explore=True)
        bootstrap = pluralism_score(scheme, traj)
        for key, ai in reversed(path):
            row = q[key]
            row[ai] += alpha * (bootstrap - row[ai])
            bootstrap = max(row)

    best_traj, _ = run_episode(explore=False)
    return PolicyResult(
        trajectory=best_traj,
        score=pluralism_score(scheme, best_traj),
        method="memory_q",
        evaluations=evaluations,
        wall_time=time.perf_counter() - started,
    )


def score_policy_average(
    env: LabelledEnv,
    scheme: Scheme,
    policy,
    horizon: int,
    n_seeds: int = 32,
    base_seed: int = 0,
) -> float:
    """Sample-average score of a (possibly random) policy over a seed batch.

    An estimator, not an optimum: both bundled environments are
    deterministic, so this matters only for policies that draw on the rng.
    """
    from .environment import rollout

    total = 0.0
    for s in range(base_seed, base_seed + n_seeds):
        total += pluralism_score(scheme, rollout(env, policy, horizon, seed=s))
    return total / n_seeds
