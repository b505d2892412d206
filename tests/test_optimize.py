import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporal_pluralism import optimize as optimize_module
from temporal_pluralism import scheme as scheme_module
from temporal_pluralism.environment import (
    LabelledEnv,
    RestaurantConfig,
    RestaurantEnv,
    random_policy,
    replay,
    rollout,
)
from temporal_pluralism.formula import parse_formula
from temporal_pluralism.machine import RewardMachine, Transition
from temporal_pluralism.optimize import (
    BudgetExceededError,
    _exceeds,
    optimize_exhaustive,
    optimize_greedy,
    optimize_memory_q,
)
from temporal_pluralism.scheme import (
    Aggregation,
    AlphabetMismatchError,
    AtomCountSource,
    EmptyFilterError,
    EventCountFilter,
    LongTermFilter,
    MachineSource,
    MarkovTableSource,
    PeriodicFilter,
    Scheme,
    StakeholderStatus,
    StatusFunction,
    pluralism_score,
    status_eval,
)
from temporal_pluralism.serialize import load_env, load_scheme

NASH = Aggregation(mode="flattened", op="product")
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def distinct_env(n):
    types = ("italian", "sushi", "taco", "indian")[:n]
    return RestaurantEnv(RestaurantConfig(n_friends=n, restaurant_types=types, preferred=types))


def count_scheme(n, filt=None, aggregation=NASH):
    return Scheme(
        status=StatusFunction(
            tuple(StakeholderStatus(AtomCountSource(f"served_{i + 1}")) for i in range(n))
        ),
        aggregation=aggregation,
        filter=filt if filt is not None else LongTermFilter(),
    )


class TestExhaustive:
    def test_two_friends_two_steps(self):
        result = optimize_exhaustive(distinct_env(2), count_scheme(2), horizon=2)
        assert result.score == 1.0
        # first maximizer in declared action order
        assert result.trajectory.actions == ("italian", "sushi")
        assert result.evaluations == 4
        assert result.method == "exhaustive"

    def test_score_is_recomputable(self):
        scheme = count_scheme(2)
        result = optimize_exhaustive(distinct_env(2), scheme, horizon=3)
        assert result.score == pluralism_score(scheme, result.trajectory)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            optimize_exhaustive(distinct_env(3), count_scheme(3), horizon=6, budget=100)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_budget_check_is_exact(self, k):
        for horizon in range(13):
            count = k**horizon
            for budget in (0, count - 1, count, count + 1):
                assert _exceeds(k, horizon, budget) == (count > budget)

    def test_a_huge_horizon_is_refused_at_once(self, fixtures_dir):
        env = load_env(fixtures_dir / "restaurant5.env")
        scheme = load_scheme(fixtures_dir / "restaurant5_longterm_nash.scheme")
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=r"5\^10000000 sequences"):
            optimize_exhaustive(env, scheme, horizon=10**7)
        assert time.perf_counter() - started < 1.0

    def test_zero_horizon_has_no_scorable_prefix(self):
        with pytest.raises(EmptyFilterError):
            optimize_exhaustive(distinct_env(2), count_scheme(2), horizon=0)

    def test_skips_unscorable_candidates(self):
        # 4 of the 8 sequences serve friend 1 fewer than twice and cannot be
        # scored; they are skipped, not fatal, and still counted in k**H
        env, scheme = distinct_env(2), count_scheme(2, filt=EventCountFilter("served_1", 2))
        with pytest.raises(EmptyFilterError):
            pluralism_score(scheme, replay(env, ("italian", "sushi", "sushi")))
        result = optimize_exhaustive(env, scheme, horizon=3)
        assert result.trajectory.actions == ("italian", "sushi", "italian")
        assert result.score == 2.0
        assert result.evaluations == 8

    def test_action_relabeling_gives_the_same_score(self):
        base = optimize_exhaustive(distinct_env(2), count_scheme(2), horizon=4)
        flipped_env = RestaurantEnv(
            RestaurantConfig(
                n_friends=2,
                restaurant_types=("sushi", "italian"),
                preferred=("italian", "sushi"),
            )
        )
        flipped = optimize_exhaustive(flipped_env, count_scheme(2), horizon=4)
        assert flipped.score == base.score


class TestGreedy:
    def test_balanced_play_on_the_distinct_instance(self):
        result = optimize_greedy(distinct_env(3), count_scheme(3), horizon=6, lookahead=1)
        assert result.score == 8.0

    def test_full_depth_equals_exhaustive(self):
        env, scheme = distinct_env(2), count_scheme(2)
        full = optimize_greedy(env, scheme, horizon=4, lookahead=4)
        oracle = optimize_exhaustive(env, scheme, horizon=4)
        assert full.score == oracle.score
        assert full.trajectory == oracle.trajectory

    def test_lookahead_validation(self):
        with pytest.raises(ValueError):
            optimize_greedy(distinct_env(2), count_scheme(2), horizon=2, lookahead=0)

    def test_a_scan_over_the_budget_is_refused_at_once(self, fixtures_dir):
        env = load_env(fixtures_dir / "restaurant5.env")
        scheme = load_scheme(fixtures_dir / "restaurant5_longterm_nash.scheme")
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=r"5\^12 extensions per scan"):
            optimize_greedy(env, scheme, horizon=12, lookahead=12)
        assert time.perf_counter() - started < 1.0

    def test_trap_fixture_fools_one_step_lookahead(self, fixtures_dir):
        env = load_env(fixtures_dir / "greedy_trap.env")
        scheme = load_scheme(fixtures_dir / "greedy_trap.scheme")
        oracle = optimize_exhaustive(env, scheme, horizon=2)
        greedy = optimize_greedy(env, scheme, horizon=2, lookahead=1)
        assert oracle.score == 5.0
        assert greedy.score == 1.0

    def test_two_step_lookahead_escapes_the_trap(self, fixtures_dir):
        env = load_env(fixtures_dir / "greedy_trap.env")
        scheme = load_scheme(fixtures_dir / "greedy_trap.scheme")
        assert optimize_greedy(env, scheme, horizon=2, lookahead=2).score == 5.0

    @pytest.mark.parametrize(
        "env_name, scheme_name",
        [
            ("delivery2.env", "delivery2_roundly_nash.scheme"),
            ("restaurant5.env", "restaurant5_nash_every10.scheme"),
        ],
    )
    def test_unscorable_last_step_raises_the_scheme_error(
        self, fixtures_dir, env_name, scheme_name
    ):
        # no 3-step sequence reaches the filter's first time, so the final
        # scan has nothing to score and the scheme's own error surfaces
        env = load_env(fixtures_dir / env_name)
        scheme = load_scheme(fixtures_dir / scheme_name)
        message = "no prefix of the horizon-3 trajectory passes the filter"
        with pytest.raises(EmptyFilterError, match=message):
            optimize_greedy(env, scheme, horizon=3, lookahead=2)


class TestMemoryQ:
    def test_matches_the_oracle_on_the_distinct_instance(self):
        env, scheme = distinct_env(3), count_scheme(3)
        result = optimize_memory_q(env, scheme, horizon=6, episodes=5000, seed=0)
        assert result.score == 8.0

    def test_same_seed_same_result(self):
        env, scheme = distinct_env(2), count_scheme(2)
        a = optimize_memory_q(env, scheme, horizon=4, episodes=400, seed=3)
        b = optimize_memory_q(env, scheme, horizon=4, episodes=400, seed=3)
        assert a.trajectory == b.trajectory
        assert a.score == b.score

    def test_episodes_must_not_be_negative(self):
        env, scheme = distinct_env(2), count_scheme(2)
        with pytest.raises(ValueError, match="episodes must be >= 0"):
            optimize_memory_q(env, scheme, horizon=2, episodes=-1)

    def test_zero_episodes_take_the_first_action_forever(self):
        env, scheme = distinct_env(2), count_scheme(2)
        result = optimize_memory_q(env, scheme, horizon=3, episodes=0, seed=0)
        assert result.trajectory.actions == ("italian",) * 3
        assert result.score == 0.0

    def test_periodic_filter_accepted(self):
        env, scheme = distinct_env(2), count_scheme(2, filt=PeriodicFilter(2))
        result = optimize_memory_q(env, scheme, horizon=4, episodes=800, seed=0)
        oracle = optimize_exhaustive(env, scheme, horizon=4)
        assert result.score <= oracle.score + 1e-12

    def test_periodic_filter_golden(self):
        # Pins how the Q-table is keyed: the optimum is 36, and this run
        # learns a non-trivial 24 that a differently keyed table would move.
        env, scheme = distinct_env(3), count_scheme(3, filt=PeriodicFilter(4))
        result = optimize_memory_q(env, scheme, horizon=8, episodes=500, seed=0)
        assert result.trajectory.actions == (
            "italian", "sushi", "sushi", "taco", "taco", "sushi", "sushi", "taco",
        )
        assert result.score == 24.0
        assert result.evaluations == 501

    @pytest.mark.parametrize(
        "filt, horizon",
        [(PeriodicFilter(5), 4), (LongTermFilter(), 0), (EventCountFilter("visit", 5), 4)],
    )
    def test_filter_passing_no_time_is_an_empty_filter_error(self, filt, horizon):
        scheme = count_scheme(2, filt=filt)
        for episodes in (0, 10):
            with pytest.raises(EmptyFilterError):
                optimize_memory_q(distinct_env(2), scheme, horizon, episodes=episodes, seed=0)

    def test_memory_cap(self):
        alpha = ("served_1", "visit")
        double = RewardMachine(
            states=("s",),
            initial="s",
            alphabet=alpha,
            transitions=(Transition("s", parse_formula("true", alpha), "s", 2.0),),
        )
        env = RestaurantEnv(
            RestaurantConfig(n_friends=1, restaurant_types=("italian",), preferred=("italian",))
        )
        scheme = Scheme(
            status=StatusFunction((StakeholderStatus(MachineSource(double)),)),
            aggregation=NASH,
            filter=LongTermFilter(),
        )
        # statuses above the horizon need no cap: a reward-2 machine learns 8
        result = optimize_memory_q(env, scheme, horizon=4, episodes=50, seed=0)
        assert result.score == 8.0

    def test_machine_statuses_enter_the_memory(self, fixtures_dir):
        env = load_env(fixtures_dir / "greedy_trap.env")
        scheme = load_scheme(fixtures_dir / "greedy_trap.scheme")
        result = optimize_memory_q(env, scheme, horizon=2, episodes=500, seed=1)
        assert result.score == 5.0


@pytest.mark.parametrize("horizon", [1, 4])
def test_memory_q_steps_each_status_state_once(monkeypatch, horizon):
    """step_state runs once per distinct (node, action) link taken, plus H
    times in _result's rescoring of the returned run."""
    stepped = []
    real_step_state = scheme_module.step_state

    def recording(status, state, s, a, s2, label):
        stepped.append((s, state, a))
        return real_step_state(status, state, s, a, s2, label)

    monkeypatch.setattr(optimize_module, "step_state", recording)
    monkeypatch.setattr(scheme_module, "step_state", recording)
    monkeypatch.setattr(optimize_module, "EPSILON", 1.0)
    optimize_memory_q(distinct_env(2), count_scheme(2), horizon, episodes=200, seed=0)
    learned = stepped[:-horizon]
    assert len(set(learned)) == len(learned)
    # A node at depth t is (v_t, the counts of t visits): t + 1 nodes with
    # 2 links each, all taken by 200 random episodes: H(H + 1) links.
    assert len(learned) == horizon * (horizon + 1)


def test_memory_q_resets_the_env_as_replay_does(monkeypatch):
    """The seed drives exploration only; the env is reset once, with reset(0)."""
    env = distinct_env(2)
    seeds = []
    real_reset = env.reset
    monkeypatch.setattr(env, "reset", lambda seed: seeds.append(seed) or real_reset(seed))
    optimize_memory_q(env, count_scheme(2), 3, episodes=5, seed=7)
    assert seeds == [0]


@pytest.mark.parametrize("lookahead, links", [(1, 8), (2, 14), (4, 20)])
def test_greedy_steps_each_edge_once(monkeypatch, lookahead, links):
    """step_state and env.step run once per distinct (node, action) link
    the scans walk, plus H step_state calls in _result's rescoring."""
    env, horizon = distinct_env(2), 4
    stepped, env_steps = [], []
    real_step_state, real_env_step = scheme_module.step_state, env.step

    def recording(status, state, s, a, s2, label):
        stepped.append((s, state, a))
        return real_step_state(status, state, s, a, s2, label)

    monkeypatch.setattr(optimize_module, "step_state", recording)
    monkeypatch.setattr(scheme_module, "step_state", recording)
    monkeypatch.setattr(env, "step", lambda *args: env_steps.append(args) or real_env_step(*args))
    optimize_greedy(env, count_scheme(2), horizon, lookahead)
    learned = stepped[:-horizon]
    assert len(set(learned)) == len(learned) == len(env_steps)
    # A node at depth t is (v_t, the counts of t visits).  Lookahead 1 walks
    # the 2 links of each committed node; lookahead 4 walks all t + 1 nodes
    # of depths 0-3, H(H + 1) links; lookahead 2 walks the 6 links below the
    # root, then 4 below (v1, (1, 0)) and 4 below (v2, (2, 0)).
    assert len(learned) == links


@pytest.mark.parametrize("env_name", sorted(p.name for p in FIXTURES.glob("*.env")))
def test_greedy_surrogate_vector_is_status_eval_of_the_replay(monkeypatch, env_name):
    """Each vector greedy's surrogate scans key an extension by is
    status_eval of the replayed prefix + extension, bit for bit, and each
    scan commits the first action of the first extension with the largest
    key."""
    keyed = []
    real_aggregate = optimize_module.aggregate
    monkeypatch.setattr(optimize_module, "aggregate",
                        lambda agg, vectors: keyed.append(vectors[0]) or real_aggregate(agg, vectors))
    env = load_env(FIXTURES / env_name)
    for scheme_path in sorted(FIXTURES.glob("*.scheme")):
        scheme = load_scheme(scheme_path)
        for horizon, lookahead in itertools.product(range(6), (1, 2)):
            keyed.clear()
            try:
                optimize_greedy(env, scheme, horizon, lookahead)
            except AlphabetMismatchError:
                break
            except EmptyFilterError:
                pass  # raised by a full-horizon scan, after every surrogate scan
            extensions = list(itertools.product(env.actions, repeat=lookahead))
            expected, committed = [], ()
            for _ in range(max(0, horizon - lookahead)):
                vectors = [status_eval(scheme.status, replay(env, committed + ext))
                           for ext in extensions]
                keys = [(real_aggregate(scheme.aggregation, [v]), tuple(sorted(v))) for v in vectors]
                committed += extensions[keys.index(max(keys))][:1]
                expected += vectors
            assert repr(keyed) == repr(expected)


def _first_then(atom, first, later):
    """A machine rewarding `first` the first time `atom` holds, `later` after."""
    alpha = ("served_1", "served_2", "visit")
    hit, miss = parse_formula(atom, alpha), parse_formula(f"!{atom}", alpha)
    return MachineSource(RewardMachine(("a", "b"), "a", alpha, (
        Transition("a", hit, "b", first), Transition("a", miss, "a", 0.0),
        Transition("b", hit, "b", later), Transition("b", miss, "b", 0.0),
    )))


TABLE = MarkovTableSource({("v0", "italian", "v1"): 3.0, ("v1", "sushi", "v2"): 2.0}, default=1.0)
LONG_TERM = {
    "discounted": ((StakeholderStatus(AtomCountSource("served_1"), "discounted", 0.9),
                    StakeholderStatus(AtomCountSource("served_2"), "discounted", 0.5)), NASH, 5),
    "mean": ((StakeholderStatus(AtomCountSource("served_1"), "mean"),
              StakeholderStatus(AtomCountSource("served_2"), "mean")), Aggregation(op="min"), 5),
    "markov-table": ((StakeholderStatus(TABLE), StakeholderStatus(AtomCountSource("served_2"))),
                     NASH, 4),
    "non-integer-machine": ((StakeholderStatus(_first_then("served_1", 0.5, 0.25)),
                             StakeholderStatus(_first_then("served_2", 0.5, 0.25))), NASH, 5),
}


@pytest.mark.parametrize("name", LONG_TERM)
def test_memory_q_is_exact_on_long_term_filters(name):
    stakeholders, aggregation, horizon = LONG_TERM[name]
    scheme = Scheme(StatusFunction(stakeholders), aggregation, LongTermFilter())
    env = distinct_env(2)
    oracle = optimize_exhaustive(env, scheme, horizon)
    learner = optimize_memory_q(env, scheme, horizon, episodes=1000, seed=0)
    assert learner.score == oracle.score


@pytest.mark.parametrize(
    "atom, every, horizon", [("served_1", 2, 4), ("served_2", 3, 5), ("visit", 2, 5)]
)
def test_memory_q_on_event_count_filters_never_beats_the_oracle(atom, every, horizon):
    scheme = count_scheme(2, filt=EventCountFilter(atom, every))
    oracle = optimize_exhaustive(distinct_env(2), scheme, horizon)
    for seed in range(3):
        learner = optimize_memory_q(distinct_env(2), scheme, horizon, episodes=100, seed=seed)
        assert learner.score <= oracle.score


def random_instance(rng, horizon=None):
    n = rng.randint(2, 3)
    per_type = ("italian", "sushi", "taco")[: rng.randint(2, n)]
    preferred = tuple(rng.choice(per_type) for _ in range(n))
    env = RestaurantEnv(
        RestaurantConfig(n_friends=n, restaurant_types=per_type, preferred=preferred)
    )
    if horizon is None:
        horizon = rng.randint(2, 5)
    filt = rng.choice([LongTermFilter(), PeriodicFilter(rng.randint(1, horizon))])
    op = rng.choice(["product", "sum", "min", "mean"])
    scheme = count_scheme(n, filt=filt, aggregation=Aggregation(op=op))
    return env, scheme, horizon


def test_heuristics_never_beat_the_oracle():
    rng = random.Random(20240817)
    for _ in range(25):
        env, scheme, horizon = random_instance(rng)
        oracle = optimize_exhaustive(env, scheme, horizon)
        greedy = optimize_greedy(env, scheme, horizon, lookahead=rng.randint(1, 2))
        learner = optimize_memory_q(env, scheme, horizon, episodes=150, seed=rng.randint(0, 99))
        assert greedy.score <= oracle.score + 1e-12
        assert learner.score <= oracle.score + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(0, 20))
def test_full_lookahead_matches_exhaustive_everywhere(horizon, seed):
    rng = random.Random(seed)
    env, scheme, _ = random_instance(rng, horizon=horizon)
    oracle = optimize_exhaustive(env, scheme, horizon)
    full = optimize_greedy(env, scheme, horizon, lookahead=horizon)
    assert full.trajectory == oracle.trajectory
    assert full.score == oracle.score


def _outcome(optimize, *args):
    """(score, trajectory) of a run, or the message of its EmptyFilterError."""
    try:
        result = optimize(*args)
    except EmptyFilterError as err:
        return str(err)
    return result.score, result.trajectory


@pytest.mark.parametrize("env_name", sorted(p.name for p in FIXTURES.glob("*.env")))
def test_full_lookahead_matches_exhaustive_on_every_fixture(env_name):
    """Machines, Markov tables, mean and discounted accumulation, event-count
    filters and the delivery grid, on greedy's full-horizon route."""
    env = load_env(FIXTURES / env_name)
    compared = 0
    for scheme_path in sorted(FIXTURES.glob("*.scheme")):
        scheme = load_scheme(scheme_path)
        for horizon in range(5):
            try:
                oracle = _outcome(optimize_exhaustive, env, scheme, horizon)
            except AlphabetMismatchError:
                break
            assert _outcome(optimize_greedy, env, scheme, horizon, max(horizon, 1)) == oracle
            compared += 1
    assert compared


@pytest.mark.parametrize("optimize", [optimize_exhaustive, optimize_greedy, optimize_memory_q])
def test_a_negative_horizon_is_refused(optimize):
    with pytest.raises(ValueError, match="horizon must be >= 0"):
        optimize(distinct_env(2), count_scheme(2), -1)


class LeakyEnv(LabelledEnv):
    alphabet, actions = ("a",), ("go",)
    def reset(self, seed): return 0
    def step(self, state, action, rng): return state + 1, frozenset({"a", "z"})
    def state_id(self, state): return f"s{state}"


@pytest.mark.parametrize("optimize", [optimize_exhaustive, optimize_greedy, optimize_memory_q])
def test_a_label_outside_the_declared_alphabet_is_refused_on_every_route(optimize):
    """The env declares (a,) but labels every step {a, z}: the machine's
    alphabet passes check_alphabet_compatibility, and each stepped label
    is still refused."""
    alpha = ("a",)
    machine = RewardMachine(("s",), "s", alpha,
                            (Transition("s", parse_formula("true", alpha), "s", 1.0),))
    scheme = Scheme(StatusFunction((StakeholderStatus(MachineSource(machine)),)),
                    Aggregation(op="sum"), LongTermFilter())
    with pytest.raises(AlphabetMismatchError,
                       match="^stakeholder 1: label atoms outside the machine alphabet: z$"):
        optimize(LeakyEnv(), scheme, 2)


class RecordingEnv(RestaurantEnv):
    """A restaurant env that records the `rng` each step is handed."""

    def __init__(self, config):
        super().__init__(config)
        self.handed = set()

    def step(self, state, action, rng):
        self.handed.add(rng)
        return super().step(state, action, rng)


def test_no_randomness_reaches_the_environment():
    env = RecordingEnv(RestaurantConfig(2, ("italian", "sushi"), ("italian", "sushi")))
    scheme = count_scheme(2)
    replay(env, ("italian", "sushi"), seed=3)
    rollout(env, random_policy(env.actions), horizon=4, seed=3)
    optimize_exhaustive(env, scheme, horizon=3)
    optimize_greedy(env, scheme, horizon=3, lookahead=2)
    optimize_memory_q(env, scheme, horizon=3, episodes=50, seed=3)
    assert env.handed == {None}
