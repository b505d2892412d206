"""Seeded instance generators for the benchmark's four workloads.

Each workload is a fixed table of instance shapes: sizes, horizon, filter,
aggregation, accumulation and search settings.  The seed fills in the
contents: restaurant names and preferences, grid layouts, machine guards,
targets and rewards, Markov tables, policies and rollout seeds.  Fixed
shapes keep the amount of work in a batch nearly the same from seed to
seed, so the spread between seeds measures the program, not the draw.

Files are written through the package's own `save_*` writers, and every
instance carries the answer the oracle expects (see oracle.py).  An
instance the oracle cannot score, because no sequence of the horizon
passes the filter or the score is not finite, is drawn again and the
reason is logged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from temporal_pluralism.environment import (
    DeliveryConfig,
    DeliveryGridEnv,
    RestaurantConfig,
    RestaurantEnv,
)
from temporal_pluralism.formula import TRUE, And, Atom, Not
from temporal_pluralism.machine import RewardMachine, Transition, validate_machine
from temporal_pluralism.scheme import (
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
)
from temporal_pluralism.serialize import (
    save_env,
    save_machine,
    save_markov_table,
    save_scheme,
)

import oracle

WORKLOADS = ("exact-counts", "exact-machines", "heuristics-long", "score-long")

RESTAURANT_NAMES = ("italian", "sushi", "taco", "indian", "bistro", "thai", "diner", "ramen")
GAMMAS = (0.5, 0.75, 0.9)
LONG_GAMMAS = (0.99, 0.995, 0.999)
MAX_ATTEMPTS = 20


# ---------------------------------------------------------------------------
# shapes
#
# Filters are ("long_term",), ("anytime",), ("periodic", p) or
# ("event", atom, k); aggregations are ("flattened", op) or
# (nested mode, inner op, outer op).

# Shapes come in cost classes of several instances each, so that the
# median and the tail percentile of per-command times fall inside a class
# and not in the gap between two: a run's batch count then moves them by
# noise only.

# friends, types, horizon, filter, aggregation, accumulation.  5^5-5^7
# sequences per instance would leave room for one or two batches in a run,
# so the classes here search 1296, 3125 and 4096 sequences.
EXACT_COUNTS = (
    (3, 6, 4, ("long_term",), ("flattened", "sum"), "discounted"),
    (3, 6, 4, ("periodic", 2), ("flattened", "min"), "mean"),
    (3, 6, 4, ("anytime",), ("time_then_stakeholders", "sum", "product"), "sum"),
    (3, 6, 4, ("periodic", 2), ("stakeholders_then_time", "min", "sum"), "discounted"),
    (5, 5, 5, ("anytime",), ("flattened", "product"), "sum"),
    (5, 5, 5, ("long_term",), ("flattened", "product"), "sum"),
    (5, 5, 5, ("periodic", 2), ("flattened", "mean"), "mean"),
    (5, 5, 5, ("periodic", 3), ("time_then_stakeholders", "mean", "min"), "discounted"),
    (5, 5, 5, ("anytime",), ("stakeholders_then_time", "product", "mean"), "mean"),
    (4, 4, 6, ("anytime",), ("flattened", "product"), "discounted"),
    (4, 4, 6, ("long_term",), ("stakeholders_then_time", "sum", "min"), "sum"),
    (4, 4, 6, ("periodic", 2), ("flattened", "min"), "sum"),
    (4, 4, 6, ("periodic", 3), ("time_then_stakeholders", "sum", "product"), "mean"),
)

# recipients, grid (w, h), horizon, machines, states per machine, guard
# tree depth, filter, aggregation.  Event-count filters need a completed
# round, so they only appear at horizon 5; most sequences complete none
# and are skipped before any machine runs, hence their middle class.
EXACT_MACHINES = (
    (2, (3, 2), 4, 2, 3, 3, ("long_term",), ("flattened", "product")),
    (3, (2, 2), 4, 2, 4, 3, ("long_term",), ("flattened", "product")),
    (2, (2, 2), 4, 2, 5, 3, ("long_term",), ("flattened", "product")),
    (2, (2, 2), 5, 3, 3, 2, ("event", "round_complete", 1),
     ("time_then_stakeholders", "sum", "product")),
    (3, (3, 1), 5, 3, 5, 2, ("event", "round_complete", 1),
     ("stakeholders_then_time", "min", "sum")),
    (3, (2, 2), 5, 3, 4, 2, ("event", "round_complete", 1),
     ("time_then_stakeholders", "mean", "sum")),
    (2, (3, 1), 5, 3, 4, 2, ("long_term",), ("flattened", "product")),
    (3, (3, 2), 5, 3, 3, 2, ("long_term",), ("flattened", "product")),
    (2, (2, 2), 5, 3, 5, 2, ("long_term",), ("flattened", "product")),
)

# friends, types, horizon, filter, greedy lookahead, memory_q episodes.
# Preferences are distinct and periodic filters have p >= friends, so the
# optimum has a closed form (oracle.balanced_optimum) and is never 0.
# Greedy and memory_q times interleave, and three memory_q commands at
# horizon 30 make the slowest class.
HEURISTICS_LONG = (
    (3, 4, 12, ("periodic", 4), 3, 1000),
    (4, 5, 20, ("long_term",), 3, 1000),
    (5, 5, 20, ("periodic", 5), 3, 1000),
    (3, 5, 24, ("periodic", 4), 3, 1000),
    (4, 6, 30, ("long_term",), 2, 1000),
    (5, 6, 30, ("periodic", 6), 2, 1000),
    (4, 4, 30, ("periodic", 5), 3, 1000),
)

# env, horizon, policy, filter, aggregation, sources, accumulation.
# Flattened product only meets mean accumulation over rewards in [0, 1],
# which keeps the product of thousands of entries finite.  Each shape is
# drawn SCORE_LONG_COPIES times: one pass over nine evaluations takes about
# 0.2 s, shorter than the spells in which a shared host runs slow, so the
# median of such passes jumped between a fast and a slow value from run to
# run.  Eight copies make a pass of about 1.5 s and average the draws.
SCORE_LONG_COPIES = 8
SCORE_LONG = (
    ("restaurant", 2000, "random", ("periodic", 100), ("flattened", "sum"),
     ("count", "count", "markov"), "discounted"),
    ("restaurant", 500, "cycle", ("anytime",), ("flattened", "product"),
     ("count", "machine", "count"), "mean"),
    ("delivery", 2000, "random", ("event", "round_complete", 2),
     ("time_then_stakeholders", "sum", "min"), ("count", "machine", "markov"), "sum"),
    ("delivery", 1000, "cycle", ("periodic", 50),
     ("stakeholders_then_time", "product", "sum"), ("count", "count", "markov"), "mean"),
    ("restaurant", 2000, "cycle", ("event", "visit", 100), ("flattened", "min"),
     ("machine", "count", "count"), "discounted"),
    ("restaurant", 500, "random", ("anytime",), ("flattened", "mean"),
     ("markov", "count", "machine"), "mean"),
    ("delivery", 500, "random", ("anytime",), ("time_then_stakeholders", "mean", "product"),
     ("machine", "count"), "discounted"),
    ("restaurant", 1000, "random", ("periodic", 25), ("flattened", "product"),
     ("count", "count", "count", "count"), "mean"),
    ("delivery", 1500, "random", ("periodic", 30), ("flattened", "sum"),
     ("markov", "machine", "count"), "sum"),
)


@dataclass
class Draft:
    """One generated instance before its files are written."""

    name: str
    kind: str  # exhaustive | heuristic | evaluate
    env: object
    scheme: Scheme
    horizon: int
    seed: int  # the command's --seed
    options: list
    machines: dict
    tables: dict


# ---------------------------------------------------------------------------
# building blocks


def _filter(spec):
    if spec[0] == "long_term":
        return LongTermFilter()
    if spec[0] == "anytime":
        return AnytimeFilter()
    if spec[0] == "periodic":
        return PeriodicFilter(spec[1])
    return EventCountFilter(spec[1], spec[2])


def _aggregation(spec):
    if spec[0] == "flattened":
        return Aggregation(mode="flattened", op=spec[1])
    return Aggregation(mode=spec[0], inner_op=spec[1], outer_op=spec[2])


def _stakeholder(source, accumulation, rng, gammas=GAMMAS):
    if accumulation == "discounted":
        return StakeholderStatus(source, "discounted", rng.choice(gammas))
    return StakeholderStatus(source, accumulation)


def _restaurant(rng, friends, types, distinct=False):
    names = tuple(rng.sample(RESTAURANT_NAMES, types))
    if distinct:
        preferred = tuple(rng.sample(names, friends))
    else:
        preferred = tuple(rng.choice(names) for _ in range(friends))
    return RestaurantEnv(RestaurantConfig(friends, names, preferred))


def _delivery(rng, recipients, width, height):
    cells = [(x, y) for x in range(width) for y in range(height)]
    chosen = rng.sample(cells, recipients)
    return DeliveryGridEnv(DeliveryConfig(width, height, rng.choice(cells), tuple(chosen)))


def _tree_guards(rng, atoms, depth):
    """Guards of the leaves of a random decision tree over `atoms`.

    The leaves partition the valuations, so one state's guards are
    deterministic and total by construction.  Positive branches come
    first, so the empty label, the commonest, tries every guard.
    """
    if depth == 0 or not atoms:
        return [()]
    atom = rng.choice(atoms)
    rest = [a for a in atoms if a != atom]
    out = []
    for positive in (True, False):
        literal = Atom(atom) if positive else Not(Atom(atom))
        out += [(literal,) + tail for tail in _tree_guards(rng, rest, depth - 1)]
    return out


def _conjunction(literals):
    if not literals:
        return TRUE
    guard = literals[0]
    for lit in literals[1:]:
        guard = And(guard, lit)
    return guard


def random_machine(rng, alphabet, n_states, depth, rewards) -> RewardMachine:
    """A reward machine whose every state branches on a decision tree."""
    states = tuple(f"q{i}" for i in range(n_states))
    transitions = []
    for state in states:
        for literals in _tree_guards(rng, list(alphabet), depth):
            transitions.append(
                Transition(state, _conjunction(literals), rng.choice(states), rng.choice(rewards))
            )
    machine = RewardMachine(states, states[0], tuple(alphabet), tuple(transitions))
    report = validate_machine(machine)
    if not report.ok:
        raise RuntimeError(f"generated machine is invalid: {report.describe()}")
    return machine


def _markov_table(rng, env, horizon) -> MarkovTableSource:
    """Rewards on a fixed share of transitions: 2 actions at a quarter of
    the restaurant's steps, or 30% of every (cell, round, action) of a grid."""
    if isinstance(env, RestaurantEnv):
        triples = [(f"v{t}", a, f"v{t + 1}")
                   for t in rng.sample(range(horizon), horizon // 4)
                   for a in rng.sample(env.actions, 2)]
    else:
        cfg = env.config
        flags = [tuple(bool(b >> i & 1) for i in range(len(cfg.recipients)))
                 for b in range(2 ** len(cfg.recipients) - 1)]
        states = [(x, y, done) for x in range(cfg.width) for y in range(cfg.height)
                  for done in flags]
        moves = [(s, a) for s in states for a in env.actions]
        triples = [(env.state_id(s), a, env.state_id(env.step(s, a, None)[0]))
                   for s, a in rng.sample(moves, len(moves) * 3 // 10)]
    values = (0.25, 0.5, 0.75, 1.0)
    return MarkovTableSource(rewards={k: rng.choice(values) for k in triples}, default=0.0)


def _route(cfg) -> list:
    """Moves and deliveries that serve every recipient and return to start."""
    out = []
    x, y = cfg.start
    for tx, ty in list(cfg.recipients) + [cfg.start]:
        out += ["east" if tx > x else "west"] * abs(tx - x)
        out += ["north" if ty > y else "south"] * abs(ty - y)
        out.append("deliver")
        x, y = tx, ty
    return out[:-1]


# ---------------------------------------------------------------------------
# per-workload drafts


def _exact_counts(rng, name, shape, slot):
    friends, types, horizon, filt, agg, acc = shape
    env = _restaurant(rng, friends, types)
    sources = [AtomCountSource(f"served_{i + 1}") for i in range(friends)]
    scheme = Scheme(
        StatusFunction(tuple(_stakeholder(s, acc, rng) for s in sources)),
        _aggregation(agg), _filter(filt),
    )
    return Draft(name, "exhaustive", env, scheme, horizon, slot, [], {}, {})


def _exact_machines(rng, name, shape, slot):
    recipients, (w, h), horizon, n_machines, n_states, depth, filt, agg = shape
    env = _delivery(rng, recipients, w, h)
    machines = {
        f"{name}_m{i + 1}.rm": random_machine(rng, env.alphabet, n_states, depth, (0.0, 1.0, 2.0))
        for i in range(n_machines)
    }
    stakeholders = tuple(StakeholderStatus(MachineSource(m, path=p)) for p, m in machines.items())
    scheme = Scheme(StatusFunction(stakeholders), _aggregation(agg), _filter(filt))
    return Draft(name, "exhaustive", env, scheme, horizon, slot, [], machines, {})


def _heuristics_long(rng, name, shape, slot):
    friends, types, horizon, filt, lookahead, episodes = shape
    env = _restaurant(rng, friends, types, distinct=True)
    scheme = Scheme(
        StatusFunction(tuple(StakeholderStatus(AtomCountSource(f"served_{i + 1}"))
                             for i in range(friends))),
        Aggregation(mode="flattened", op="product"), _filter(filt),
    )
    options = [["--method", "greedy", "--lookahead", str(lookahead)],
               ["--method", "memory_q", "--episodes", str(episodes)]]
    # The learner's seed stays fixed per slot: drawn per run, it alone moved
    # the largest Q-table by up to a third between workload seeds.
    return Draft(name, "heuristic", env, scheme, horizon, slot, options, {}, {})


def _score_long(rng, name, shape, slot):
    kind, horizon, policy, filt, agg, source_kinds, acc = shape
    if kind == "restaurant":
        env = _restaurant(rng, 4, 5)
    else:
        env = _delivery(rng, 2, 3, 2)
    # Rewards in [0, 1] keep a flattened product of means finite.
    rewards = (0.0, 0.5, 1.0) if acc == "mean" else (0.0, 0.5, 1.0, 2.0)
    machines, tables, stakeholders = {}, {}, []
    counted = [a for a in env.alphabet if a not in ("visit", "round_complete")]
    for j, src in enumerate(source_kinds, start=1):
        if src == "count":
            source = AtomCountSource(counted[(j - 1) % len(counted)])
        elif src == "machine":
            path = f"{name}_m{j}.rm"
            machines[path] = random_machine(rng, env.alphabet, 4, 2, rewards)
            source = MachineSource(machines[path], path=path)
        else:
            path = f"{name}_t{j}.mt"
            table = _markov_table(rng, env, horizon)
            tables[path] = table
            source = MarkovTableSource(table.rewards, table.default, path=path)
        stakeholders.append(_stakeholder(source, acc, rng, LONG_GAMMAS))
    scheme = Scheme(StatusFunction(tuple(stakeholders)), _aggregation(agg), _filter(filt))
    if policy == "random":
        policy_text = "random"
    elif kind == "restaurant":
        order = rng.sample(env.actions, rng.randint(2, len(env.actions)))
        policy_text = "cycle:" + ",".join(order)
    else:
        policy_text = "cycle:" + ",".join(_route(env.config))
    seed = rng.randrange(1 << 30)
    return Draft(name, "evaluate", env, scheme, horizon, seed, [policy_text], machines, tables)


_TABLES = {
    "exact-counts": ("c", EXACT_COUNTS, _exact_counts),
    "exact-machines": ("m", EXACT_MACHINES, _exact_machines),
    "heuristics-long": ("h", HEURISTICS_LONG, _heuristics_long),
    "score-long": ("s", SCORE_LONG * SCORE_LONG_COPIES, _score_long),
}


# ---------------------------------------------------------------------------
# instances with their oracle answers


def _write(draft: Draft, directory: Path) -> dict:
    env_file, scheme_file = f"{draft.name}.env", f"{draft.name}.scheme"
    save_env(draft.env, directory / env_file)
    for path, machine in draft.machines.items():
        save_machine(machine, directory / path)
    for path, table in draft.tables.items():
        save_markov_table(table, directory / path)
    save_scheme(draft.scheme, directory / scheme_file)
    return {"env": env_file, "scheme": scheme_file}


def _commands(draft: Draft, files: dict, expect: dict) -> list:
    common = ["--horizon", str(draft.horizon), "--seed", str(draft.seed)]
    if draft.kind == "evaluate":
        return [{"name": draft.name, "kind": "evaluate", **files, "horizon": draft.horizon,
                 "seed": draft.seed, "args": ["--policy", draft.options[0]] + common,
                 "expect": expect}]
    option_sets = draft.options or [["--method", "exhaustive"]]
    return [{"name": f"{draft.name}-{opts[1]}", "kind": opts[1], **files,
             "horizon": draft.horizon, "seed": draft.seed, "args": opts + common,
             "expect": expect}
            for opts in option_sets]


def _oracle(draft: Draft) -> dict:
    """The expected answer, or raise oracle.Rejected."""
    if draft.kind == "exhaustive":
        return oracle.exhaustive_answer(draft.env, draft.scheme, draft.horizon, draft.seed)
    if draft.kind == "heuristic":
        return oracle.balanced_answer(draft.scheme, draft.horizon)
    return oracle.evaluation_answer(
        draft.env, draft.scheme, draft.options[0], draft.horizon, draft.seed
    )


def build(workload: str, seed: int, directory: Path, log) -> list:
    """Generate the workload's instances for `seed` into `directory`.

    Returns one command record per CLI invocation, each with the oracle's
    expected answer.  `log` receives one line per rejected draw.
    """
    prefix, shapes, make = _TABLES[workload]
    commands = []
    for slot, shape in enumerate(shapes, start=1):
        name = f"{prefix}{slot:02d}"
        for attempt in range(MAX_ATTEMPTS):
            rng = random.Random(f"{workload}:{seed}:{slot}:{attempt}")
            draft = make(rng, name, shape, slot)
            try:
                expect = _oracle(draft)
            except oracle.Rejected as why:
                log(f"{workload} seed {seed} {name} draw {attempt} rejected: {why}")
                continue
            commands += _commands(draft, _write(draft, directory), expect)
            break
        else:
            raise RuntimeError(f"{name}: no acceptable draw in {MAX_ATTEMPTS} attempts")
    return commands
