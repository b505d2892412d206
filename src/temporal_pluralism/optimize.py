"""Search for action sequences that maximize a scheme's pluralism score.

Three methods, one contract: the returned score is always recomputed by an
independent pluralism_score call on the returned trajectory (see _result),
and every tie anywhere breaks lexicographically in the environment's
declared action order, which keeps golden results stable across platforms.

optimize_exhaustive is the exact oracle (every action sequence within a
budget); it is the one method that replays, each candidate from reset.
Unless a stakeholder reads states or actions (a Markov table), a score is
a function of the labels alone, so it scores each distinct label sequence
once and looks the rest up (_replay_score).  optimize_greedy commits one
action at a time after scoring d-step extensions.  Neither uses
randomness, and `evaluations` is the number of candidates, computed
rather than counted; it is known before the first step, so a search of
more than its budget is refused at once.  _best is the one loop over
candidates for both.  optimize_memory_q learns a tabular policy over the
environment state augmented with the scheme's status state (see
StatusFunction.step), with the whole-trajectory score granted as a
terminal reward; its seed drives exploration only.  It takes every
scheme the scorer scores, and its table needs no cap: it gains at most
one node per step of each episode.  Its (episodes + 1) * horizon steps
are bounded by DEFAULT_BUDGET in the same way.

Both heuristics search _Graph, whose nodes are the keys (state id,
status state) and whose edges are stepped once, the first time a scan or
an episode takes them.  A path of the graph is scored from the status
states of its nodes (scheme.states_score), so each transition is folded
once, and its Trajectory is read off the graph without a replay.
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
    check_labels,
    pluralism_score,
    state_vector,
    states_score,
    status_eval,  # not called: perfbench's tracer wraps optimize.status_eval
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
EPSILON = 0.3  # memory_q's exploration rate
_MEMO_BOUND = 1 << 16  # label sequences exhaustive search keeps the score of, at most


def _result(scheme: Scheme, traj: Trajectory, method: str, evaluations: int) -> PolicyResult:
    """Every optimizer's result: the trajectory rescored."""
    return PolicyResult(traj, pluralism_score(scheme, traj), method, evaluations)


def _best(extensions, key):
    """The first extension with the strictly largest key, so ties keep
    declared action order.

    An extension the scheme cannot score (the filter selects no prefix, as
    an event-count filter may) is skipped; if nothing is scorable the last
    EmptyFilterError surfaces.
    """
    best_key = best = skip_error = None
    for ext in extensions:
        try:
            value = key(ext)
        except EmptyFilterError as err:
            skip_error = err
            continue
        if best_key is None or value > best_key:
            best_key, best = value, ext
    if best is None:
        raise skip_error or EmptyFilterError("no scorable action sequence")
    return best


class _Graph:
    """The heuristics' search graph, each edge stepped once.

    Node i is the i-th key (state id, status state) reached, kept with its
    env state.  Edge i * k + a holds node i's successor under action a and
    that step's label, or None until it is first taken (child), when its
    label is checked (scheme.check_labels).  Stepping once is exact because
    the environment is deterministic and the status step pure.  A path is its
    nodes from the root and the edges between them.
    """

    def __init__(self, env: LabelledEnv, status):
        self.env, self.status, self.k = env, status, len(env.actions)
        self.node_of, self.state_ids = {}, {}  # key -> i; one string object per state id
        self.keys, self.env_states, self.succ, self.labels = [], [], [], []
        state = env.reset(0)
        self.root = self.node(state, env.state_id(state), status.start)

    def node(self, state, sid: str, memory) -> int:
        key = (self.state_ids.setdefault(sid, sid), memory)
        i = self.node_of.get(key)
        if i is None:
            i = self.node_of[key] = len(self.keys)
            self.keys.append(key)
            self.env_states.append(state)
            self.succ.extend([None] * self.k)
            self.labels.extend([None] * self.k)
        return i

    def child(self, edge: int) -> int:
        """The node `edge` leads to, stepped the first time it is taken."""
        if self.succ[edge] is None:
            i, a = divmod(edge, self.k)
            sid, memory = self.keys[i]
            action = self.env.actions[a]
            state, label = self.env.step(self.env_states[i], action, None)
            check_labels(self.status, (label,))
            self.labels[edge] = label
            sid2 = self.env.state_id(state)
            self.succ[edge] = self.node(
                state, sid2, self.status.step(memory, sid, action, sid2, label))
        return self.succ[edge]

    def walk(self, nodes: list, edges: list, actions) -> tuple:
        """The path (nodes, edges), extended in place through the action
        indices `actions`."""
        for a in actions:
            edges.append(nodes[-1] * self.k + a)
            nodes.append(self.child(edges[-1]))
        return nodes, edges

    def score(self, scheme: Scheme, nodes: list, edges: list) -> float:
        """The path's pluralism_score, bit for bit (see scheme.states_score)."""
        labels, keys = self.labels, self.keys
        return states_score(scheme, [labels[e] for e in edges], [keys[i][1] for i in nodes])

    def trajectory(self, nodes: list, edges: list) -> Trajectory:
        return Trajectory(
            tuple(self.keys[i][0] for i in nodes),
            tuple(self.env.actions[e % self.k] for e in edges),
            tuple(self.labels[e] for e in edges),
        )


def _check(env: LabelledEnv, scheme: Scheme, horizon: int) -> None:
    """The checks every optimizer makes before it searches."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    check_alphabet_compatibility(scheme, env.alphabet)


def _exceeds(k: int, horizon: int, budget: int) -> bool:
    """k**horizon > budget, without building k**horizon when it is huge."""
    if k > 1 and horizon > budget.bit_length():
        return True  # k**horizon >= 2**horizon > budget
    return k**horizon > budget


def _replay_score(env: LabelledEnv, scheme: Scheme):
    """Exhaustive search's key: the score of an action sequence's replay.

    Without a Markov stakeholder (StatusFunction.markov) a score, or its
    EmptyFilterError, is a function of the labels alone, so it is kept
    under the replay's label sequence, for the first _MEMO_BOUND
    sequences, and a replay whose labels were scored before is not scored
    again.  An unscorable sequence keeps its error's message, not the
    error: raising one object twice would chain its tracebacks, whose
    frames hold the memo.
    """
    if scheme.status.markov:
        return lambda seq: pluralism_score(scheme, replay(env, seq))
    memo = {}

    def score(seq):
        traj = replay(env, seq)
        value = memo.get(traj.labels)
        if value is None:
            try:
                value = pluralism_score(scheme, traj)
            except EmptyFilterError as err:
                value = str(err)
            if len(memo) < _MEMO_BOUND:
                memo[traj.labels] = value
        if value.__class__ is str:
            raise EmptyFilterError(value)
        return value

    return score


def optimize_exhaustive(
    env: LabelledEnv,
    scheme: Scheme,
    horizon: int,
    budget: int = DEFAULT_BUDGET,
) -> PolicyResult:
    """Enumerate every action sequence of the given length; exact maximum.

    Each candidate is replayed from reset and scored, each distinct label
    sequence once unless a stakeholder reads states or actions (see
    _replay_score).  Candidates the scheme cannot score (the filter
    selects no prefix, as an event-count filter may) are skipped; if
    nothing at all is scorable the EmptyFilterError surfaces.  Ties keep
    the lexicographically first sequence in declared action order.
    """
    _check(env, scheme, horizon)
    k = len(env.actions)
    if _exceeds(k, horizon, budget):
        raise BudgetExceededError(f"{k}^{horizon} sequences exceed the budget {budget}")
    best = _best(itertools.product(env.actions, repeat=horizon), _replay_score(env, scheme))
    return _result(scheme, replay(env, best), "exhaustive", k**horizon)


def optimize_greedy(
    env: LabelledEnv,
    scheme: Scheme,
    horizon: int,
    lookahead: int = 1,
) -> PolicyResult:
    """Commit one action at a time, scoring every d-step extension.

    The committed prefix is a path of the graph, and each scan walks its
    extensions from the path's last node.  Extensions that reach the full
    horizon are compared by the actual scheme, read off the status states
    of the whole path.  Shorter ones are keyed by a surrogate: the
    aggregation applied to the status vector the extension reaches alone,
    ties broken by the sorted vector (worst entry first), which steers
    early play toward balance instead of letting declared action order
    pick a favorite stakeholder forever.  That vector is bit for bit
    status_eval of the replayed sequence (see StatusFunction.step).  Ties
    keep declared action order, so lookahead == horizon reproduces the
    exhaustive result.  A scan of more than DEFAULT_BUDGET extensions,
    or more than DEFAULT_BUDGET extensions in all, is refused before the
    first step, as exhaustive search refuses one.
    """
    if lookahead < 1:
        raise ValueError("lookahead must be >= 1")
    _check(env, scheme, horizon)
    k, scan = len(env.actions), min(lookahead, horizon)
    if _exceeds(k, scan, DEFAULT_BUDGET):
        raise BudgetExceededError(
            f"{k}^{scan} extensions per scan exceed the budget {DEFAULT_BUDGET}")
    # k**scan for each commit while scan steps remain, then k**d for each
    # shorter scan d: (horizon - scan) * k**scan + the sum of k**d, 0 < d <= scan
    evaluations = (horizon - scan) * k**scan + (
        (k**(scan + 1) - k) // (k - 1) if k > 1 else k * scan)
    if evaluations > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"{horizon} scans of up to {k}^{scan} extensions exceed the budget {DEFAULT_BUDGET}")
    graph = _Graph(env, scheme.status)
    nodes, edges = [graph.root], []
    while len(edges) < horizon:
        depth = min(lookahead, horizon - len(edges))
        if len(edges) + depth < horizon:
            def key(ext):
                leaf = graph.walk([nodes[-1]], [], ext)[0][-1]
                vec = state_vector(scheme.status, graph.keys[leaf][1])
                return aggregate(scheme.aggregation, [vec]), tuple(sorted(vec))
        else:
            def key(ext):
                return graph.score(scheme, *graph.walk(nodes[:], edges[:], ext))
        graph.walk(nodes, edges, _best(itertools.product(range(k), repeat=depth), key)[:1])
    return _result(scheme, graph.trajectory(nodes, edges), "greedy", evaluations)


def optimize_memory_q(
    env: LabelledEnv,
    scheme: Scheme,
    horizon: int,
    episodes: int = 5000,
    seed: int = 0,
) -> PolicyResult:
    """Episodic tabular Q-learning over (env state, status state).

    The status state (StatusFunction.step) holds all the scorer steps: the
    step index, each stakeholder's running status and discount weight, and
    each machine's state.  Each key is a node of the graph, and an episode
    follows its stored edges, stepping only those no episode took before.
    The whole-trajectory score arrives as a terminal reward, read off the
    status states of the episode's nodes (scheme.states_score, bit for bit
    the pluralism_score of the episode), and is swept backwards through the
    episode: the entry taken at each step is set to the best value of the
    row after it (no learning rate: on a deterministic environment each
    target is exact).  Under a long-term filter the status state
    determines the reward, so on a deterministic environment the policy
    converges to the optimum for every source and accumulation.  Periodic,
    anytime and event-count filters bank contributions (and events) the
    state does not hold, so there learning is best-effort.  An episode
    whose filter passes no time updates nothing.

    Each step of an episode takes a uniformly random action with
    probability EPSILON (0.3, fixed), else the first best of its row.
    Reproducible per seed; zero episodes yield the policy that always
    takes the first declared action (empty table, lexicographic ties).
    More than DEFAULT_BUDGET steps in all, (episodes + 1) * horizon, are
    refused before the first step.
    """
    _check(env, scheme, horizon)
    if episodes < 0:
        raise ValueError("episodes must be >= 0")
    if (episodes + 1) * horizon > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"{episodes + 1} episodes of {horizon} steps exceed the budget {DEFAULT_BUDGET}")
    graph = _Graph(env, scheme.status)
    k, root, succ, child = graph.k, graph.root, graph.succ, graph.child
    rows = [[0.0] * k]  # node i's Q row
    rng, epsilon = random.Random(seed), EPSILON

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
                i = child(edge)
                if i == len(rows):
                    rows.append([0.0] * k)
            nodes.append(i)
            edges.append(edge)
        return nodes, edges

    for _ in range(episodes):
        nodes, edges = run_episode(explore=True)
        try:
            bootstrap = graph.score(scheme, nodes, edges)
        except EmptyFilterError:
            continue
        for edge in reversed(edges):
            row = rows[edge // k]
            row[edge % k] = bootstrap
            bootstrap = max(row)

    best_traj = graph.trajectory(*run_episode(explore=False))
    return _result(scheme, best_traj, "memory_q", episodes + 1)
