"""Search for action sequences that maximize a scheme's pluralism score.

Three methods, one contract: the returned score is always recomputed by an
independent pluralism_score call on the returned trajectory (see _result),
and every tie anywhere breaks lexicographically in the environment's
declared action order, which keeps golden results stable across platforms.

optimize_exhaustive is the exact oracle (every action sequence within a
budget).  optimize_greedy commits one action at a time after scoring
d-step extensions.  Neither uses randomness, and `evaluations` is the
number of candidates, computed rather than counted.  Every scan that
reaches the full horizon runs _best_extension, which replays each
candidate from reset and scores it; greedy's shorter scans walk the tree
of extensions from its committed prefix instead (_surrogate_step), so
each edge of that tree is stepped once.  optimize_memory_q learns a
tabular policy over the environment state augmented with the scheme's
status state (see scheme.step_state), with the whole-trajectory score
granted as a terminal reward.  Its Q-keys are the nodes of a graph whose
edges are stepped once, the first time an episode takes them; later
episodes follow the stored links.  The reward is read off the status
states of the nodes an episode passes, so each transition is folded
once; its seed drives exploration only.  It takes every scheme the
scorer scores, and its table needs no cap: it gains at most one node per
step of each episode.
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
    state_vector,
    states_score,
    status_eval,  # not called: perfbench's tracer wraps optimize.status_eval
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


def _best_extension(env: LabelledEnv, scheme: Scheme, prefix: tuple, depth: int) -> tuple:
    """The best `depth`-action extension of `prefix` to the full horizon.

    Every extension is replayed from reset and keyed by the scheme's score,
    and skipped if the filter selects no prefix (as an event-count filter
    may).  The first strictly larger score wins, so ties keep declared
    action order.  If nothing is scorable the last EmptyFilterError
    surfaces.
    """
    best_key = best_ext = skip_error = None
    for ext in itertools.product(env.actions, repeat=depth):
        try:
            key = pluralism_score(scheme, replay(env, prefix + ext))
        except EmptyFilterError as err:
            skip_error = err
            continue
        if best_key is None or key > best_key:
            best_key, best_ext = key, ext
    if best_ext is None:
        raise skip_error or EmptyFilterError("no scorable action sequence")
    return best_ext


def _children(env: LabelledEnv, status, node: tuple):
    """(action, child) for each action in declared order, where a node is
    (env state, state id, status state) and a child is one step later."""
    state, sid, memory = node
    for action in env.actions:
        nxt, label = env.step(state, action, None)
        nsid = env.state_id(nxt)
        yield action, (nxt, nsid, step_state(status, memory, sid, action, nsid, label))


def _surrogate_step(env: LabelledEnv, scheme: Scheme, node: tuple, depth: int) -> tuple:
    """(action, child) of the first action of the best `depth`-action
    extension from `node`, an extension ending before the horizon.

    A depth-first walk in declared action order steps each edge of the
    extension tree once.  An extension is keyed by a surrogate: the
    aggregation applied to the status vector it reaches alone, ties broken
    by the sorted vector (worst entry first).  That vector is bit for bit
    status_eval of the replayed sequence (see scheme.step_state).  The
    first strictly larger key wins, so ties keep declared action order.
    """
    status = scheme.status

    def leaves(node, left):
        if not left:
            yield node[2]
            return
        for _, child in _children(env, status, node):
            yield from leaves(child, left - 1)

    best_key = best = None
    for action, child in _children(env, status, node):
        for memory in leaves(child, depth - 1):
            vec = state_vector(status, memory)
            key = (aggregate(scheme.aggregation, [vec]), tuple(sorted(vec)))
            if best_key is None or key > best_key:
                best_key, best = key, (action, child)
    return best


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
    best = _best_extension(env, scheme, (), horizon)
    return _result(scheme, replay(env, best), "exhaustive", k**horizon)


def optimize_greedy(
    env: LabelledEnv,
    scheme: Scheme,
    horizon: int,
    lookahead: int = 1,
) -> PolicyResult:
    """Commit one action at a time, scoring every d-step extension.

    Extensions that reach the full horizon are compared by the actual
    scheme (_best_extension); shorter ones by the surrogate of
    _surrogate_step, which steers early play toward balance instead of
    letting declared action order pick a favorite stakeholder forever.
    The surrogate scans walk from the committed prefix's node, so no
    prefix is stepped twice.  Final ties keep declared action order, so
    lookahead == horizon reproduces the exhaustive result.
    """
    if lookahead < 1:
        raise ValueError("lookahead must be >= 1")
    check_alphabet_compatibility(scheme, env.alphabet)
    chosen: tuple = ()
    evaluations = 0
    state = env.reset(0)
    # The node `chosen` reaches, advanced by each surrogate scan.
    node = (state, env.state_id(state), start_state(scheme.status))
    while len(chosen) < horizon:
        depth = min(lookahead, horizon - len(chosen))
        if len(chosen) + depth < horizon:
            action, node = _surrogate_step(env, scheme, node, depth)
            chosen += (action,)
        else:
            chosen += _best_extension(env, scheme, chosen, depth)[:1]
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
    each machine's state.  Each key is a node of a graph: env.step,
    state_id and step_state run once per edge, the first time an episode
    takes it, which is exact because the environment is deterministic and
    step_state pure.  The whole-trajectory score arrives as a terminal
    reward, read off the status states of the episode's nodes
    (scheme.states_score, bit for bit the pluralism_score of the
    episode), and is swept backwards through the episode: the entry taken
    at each step is set to the best value of the row after it (no
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
    k = len(actions)
    rng = random.Random(seed)
    # Node i is the i-th Q-key (state id, status state) reached, with its
    # Q row and env state.  Edge i * k + a holds node i's successor under
    # action a and that step's label, or None until an episode takes it.
    node_of: dict = {}
    keys: list = []
    env_states: list = []
    rows: list = []
    succ: list = []
    edge_labels: list = []
    state_ids: dict = {}  # one string object per state id

    def node(state, sid: str, memory) -> int:
        key = (state_ids.setdefault(sid, sid), memory)
        i = node_of.get(key)
        if i is None:
            i = node_of[key] = len(keys)
            keys.append(key)
            env_states.append(state)
            rows.append([0.0] * k)
            succ.extend([None] * k)
            edge_labels.extend([None] * k)
        return i

    def take(edge: int) -> int:
        """Step an edge for the first time: store its label, return its successor."""
        i, ai = divmod(edge, k)
        sid, memory = keys[i]
        state, label = env.step(env_states[i], actions[ai], None)
        edge_labels[edge] = label
        sid2 = env.state_id(state)
        return node(state, sid2, step_state(status, memory, sid, actions[ai], sid2, label))

    def run_episode(explore: bool):
        """The nodes and edges of one episode from the root."""
        i, nodes, edges = root, [root], []
        for _ in range(horizon):
            if explore and rng.random() < epsilon:
                ai = rng.randrange(k)
            else:
                row = rows[i]
                ai = row.index(max(row))
            edge = i * k + ai
            i = succ[edge]
            if i is None:
                i = succ[edge] = take(edge)
            nodes.append(i)
            edges.append(edge)
        return nodes, edges

    state = env.reset(0)
    root = node(state, env.state_id(state), start_state(status))
    for _ in range(episodes):
        nodes, edges = run_episode(explore=True)
        try:
            bootstrap = states_score(
                scheme, [edge_labels[e] for e in edges], [keys[i][1] for i in nodes])
        except EmptyFilterError:
            continue
        for edge in reversed(edges):
            row = rows[edge // k]
            row[edge % k] = bootstrap
            bootstrap = max(row)

    nodes, edges = run_episode(explore=False)
    best_traj = Trajectory(
        tuple(keys[i][0] for i in nodes),
        tuple(actions[e % k] for e in edges),
        tuple(edge_labels[e] for e in edges),
    )
    return _result(scheme, best_traj, "memory_q", episodes + 1)
