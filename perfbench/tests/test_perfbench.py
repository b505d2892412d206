"""Tests of the benchmark's generator, oracle and tracer.

Run with: python3 -m pytest perfbench/tests
"""

import random

import pytest

import temporal_pluralism
import temporal_pluralism.cli
from temporal_pluralism.environment import (
    LabelledEnv,
    RestaurantConfig,
    RestaurantEnv,
    replay,
)
from temporal_pluralism.formula import parse_formula
from temporal_pluralism.machine import RewardMachine, Transition, validate_machine
from temporal_pluralism.optimize import optimize_exhaustive
from temporal_pluralism.scheme import (
    Aggregation,
    AtomCountSource,
    LongTermFilter,
    MachineSource,
    PeriodicFilter,
    Scheme,
    StakeholderStatus,
    StatusFunction,
)
from temporal_pluralism.serialize import load_env, load_scheme, save_env, save_machine, save_scheme

import checkout
import oracle
import workloads
from run import tail
from tracer import ENV_METHODS, PATCHES, Tracer

FIXTURES = checkout.ROOT / "fixtures"
NASH = Aggregation(mode="flattened", op="product")


def drafts(workload, seeds=range(4)):
    _, shapes, make = workloads._TABLES[workload]
    for seed in seeds:
        for slot, shape in enumerate(shapes, start=1):
            rng = random.Random(f"test:{seed}:{slot}")
            yield make(rng, f"x{slot:02d}", shape, seed)


@pytest.mark.parametrize("workload", ["exact-machines", "score-long"])
def test_generated_machines_are_valid(workload):
    machines = [m for d in drafts(workload) for m in d.machines.values()]
    assert machines
    for machine in machines:
        assert validate_machine(machine).ok
        assert 3 <= len(machine.states) <= 5


def test_generated_files_load_back(tmp_path):
    draft = next(drafts("exact-machines", seeds=[0]))
    files = workloads._write(draft, tmp_path)
    assert load_scheme(tmp_path / files["scheme"]) == draft.scheme
    assert load_env(tmp_path / files["env"]).config == draft.env.config


def _same_as_exhaustive(env, scheme, horizon):
    score, seq = oracle.exhaustive_search(env, scheme, horizon)
    result = optimize_exhaustive(env, scheme, horizon)
    assert score == result.score
    assert seq == result.trajectory.actions
    return score


def test_oracle_matches_optimize_exhaustive_on_tiny_instances():
    shape = (2, (2, 2), 3, 2, 3, 2, ("long_term",), ("flattened", "product"))
    for seed in range(5):
        draft = workloads._exact_machines(random.Random(seed), "t", shape, 0)
        _same_as_exhaustive(draft.env, draft.scheme, 3)
    shape = (3, 3, 3, ("anytime",), ("time_then_stakeholders", "sum", "min"), "discounted")
    for seed in range(5):
        draft = workloads._exact_counts(random.Random(seed), "t", shape, 0)
        _same_as_exhaustive(draft.env, draft.scheme, 3)


def test_oracle_matches_restaurant3_golden():
    env = load_env(FIXTURES / "restaurant3.env")
    scheme = load_scheme(FIXTURES / "restaurant3_longterm_nash.scheme")
    assert _same_as_exhaustive(env, scheme, 6) == 8


def test_balanced_optimum_matches_exhaustive_search():
    types = ("italian", "sushi", "taco")
    env = RestaurantEnv(RestaurantConfig(2, types, types[:2]))
    status = StatusFunction(tuple(StakeholderStatus(AtomCountSource(f"served_{i}"))
                                  for i in (1, 2)))
    for filt, horizon in ((LongTermFilter(), 5), (PeriodicFilter(2), 6)):
        scheme = Scheme(status, NASH, filt)
        score, _ = oracle.exhaustive_search(env, scheme, horizon)
        assert oracle.balanced_answer(scheme, horizon)["optimum"] == score


def test_tail_has_ten_samples_beyond_it():
    assert tail(range(1, 101)) == (90, 90.0)
    assert tail(range(20)) == (9, 50.0)


def _hand_countable(tmp_path):
    """One friend who likes 'a'; a machine paying 1 per visit to 'a'."""
    env = RestaurantEnv(RestaurantConfig(1, ("a", "b"), ("a",)))
    alphabet = env.alphabet
    machine = RewardMachine(("q0",), "q0", alphabet, (
        Transition("q0", parse_formula("served_1", alphabet), "q0", 1.0),
        Transition("q0", parse_formula("!served_1", alphabet), "q0", 0.0),
    ))
    save_env(env, tmp_path / "i.env")
    save_machine(machine, tmp_path / "i.rm")
    status = StatusFunction((
        StakeholderStatus(AtomCountSource("served_1")),
        StakeholderStatus(MachineSource(machine, path="i.rm")),
    ))
    save_scheme(Scheme(status, NASH, LongTermFilter()), tmp_path / "i.scheme")
    return ["optimize", "--env", str(tmp_path / "i.env"), "--scheme", str(tmp_path / "i.scheme"),
            "--method", "exhaustive", "--horizon", "2", "--seed", "0",
            "--out", str(tmp_path / "out")]


def _attributes():
    out = {}
    for module_name, attr, _ in PATCHES:
        module = getattr(temporal_pluralism, module_name)
        out[module_name, attr] = getattr(module, attr)
    for cls in (LabelledEnv, RestaurantEnv):
        for method, _ in ENV_METHODS:
            out[cls.__name__, method] = cls.__dict__.get(method)
    return out


def test_tracer_counts_are_exact_and_the_package_is_restored(tmp_path, capsys):
    argv = _hand_countable(tmp_path)
    before = _attributes()
    tracer = Tracer(temporal_pluralism, full=True)
    with tracer:
        assert tracer.wrap("cli", temporal_pluralism.cli.main)(argv) == 0
    assert _attributes() == before
    assert "score 4" in capsys.readouterr().out

    calls, own = tracer.self_times()
    # 4 sequences of 2 steps, plus the winner replayed and scored once more.
    assert {name: n for name, n in calls.items() if n} == {
        "cli": 1,
        "serialize.load": 2,
        "machine.validate": 1,
        "formula.eval": 24,
        "optimize": 1,
        "environment.replay": 5,
        "environment.reset": 5,
        "environment.step": 10,
        "environment.state_id": 15,
        "scheme.score": 6,  # 5 in the search, 1 for the status CSV
        "scheme.aggregate": 5,
        "machine.step": 12,
        "serialize.write": 1,
    }
    assert tracer.aggregate_entries == 10
    # Validation evaluates both guards on each of 4 valuations; a step
    # evaluates 1 guard on 'a' and 2 on 'b' (aa, ab, ba, bb, then aa twice).
    assert tracer.child_count("formula.eval", "machine.validate") == 8
    assert tracer.child_count("formula.eval", "machine.step") == 16
    assert all(t >= 0.0 for t in own.values())
    (wall, setup, solve), = tracer.per_command()
    assert 0.0 < setup < wall and 0.0 < solve < wall


def test_check_rejects_a_wrong_trajectory(tmp_path, capsys):
    argv = _hand_countable(tmp_path)
    env = load_env(tmp_path / "i.env")
    scheme = load_scheme(tmp_path / "i.scheme")
    command = {"name": "i", "kind": "exhaustive", "horizon": 2, "seed": 0,
               "expect": oracle.exhaustive_answer(env, scheme, 2, 0)}
    assert temporal_pluralism.cli.main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "out"
    assert oracle.check(command, stdout, out) is None
    (out / "best.traj").write_text(
        temporal_pluralism.serialize.trajectory_to_text(replay(env, ("a", "b")))
    )
    assert "best.traj" in oracle.check(command, stdout, out)
    assert "score" in oracle.check(command, stdout.replace("score 4", "score 1"), out)
