import pytest
from hypothesis import given
from hypothesis import strategies as st

from temporal_pluralism.environment import Trajectory
from temporal_pluralism.formula import parse_formula
from temporal_pluralism.machine import (
    InvalidStateError,
    MachineValidation,
    GuardProblem,
    MachineValidationError,
    NoEnabledTransitionError,
    RewardMachine,
    Transition,
    require_valid,
    run_machine,
    step_machine,
    validate_machine,
)
from temporal_pluralism.scheme import MachineSource, StakeholderStatus, StatusFunction, status_eval

ALPHA = ("pasta", "cake")


def g(text, alphabet=ALPHA):
    return parse_formula(text, alphabet)


@pytest.fixture
def dinner():
    """Reward 1 exactly when pasta is eaten strictly before the first cake."""
    return RewardMachine(
        states=("u0", "u1", "u2"),
        initial="u0",
        alphabet=ALPHA,
        transitions=(
            Transition("u0", g("pasta & !cake"), "u1", 0.0),
            Transition("u0", g("!pasta & !cake"), "u0", 0.0),
            Transition("u0", g("cake"), "u2", 0.0),
            Transition("u1", g("cake"), "u2", 1.0),
            Transition("u1", g("!cake"), "u1", 0.0),
            Transition("u2", g("true"), "u2", 0.0),
        ),
    )


def labels(*steps):
    return [frozenset(s) for s in steps]


class TestDinnerMachine:
    def test_is_deterministic_and_total(self, dinner):
        report = validate_machine(dinner)
        assert report.ok
        assert report.describe() == "deterministic, total"

    def test_pasta_then_cake_pays(self, dinner):
        run = run_machine(dinner, labels({"pasta"}, {"cake"}))
        assert run.total == 1.0
        assert run.visited == ("u0", "u1", "u2")

    def test_cake_first_pays_nothing(self, dinner):
        assert run_machine(dinner, labels({"cake"}, {"pasta"})).total == 0.0

    def test_waiting_before_pasta_still_pays(self, dinner):
        assert run_machine(dinner, labels({}, {"pasta"}, {}, {"cake"})).total == 1.0

    def test_pasta_and_cake_together_is_cake_first(self, dinner):
        assert run_machine(dinner, labels({"pasta", "cake"}, {"cake"})).total == 0.0

    def test_no_cake_at_all(self, dinner):
        assert run_machine(dinner, labels({"pasta"}, {"pasta"})).total == 0.0

    def test_empty_sequence(self, dinner):
        run = run_machine(dinner, [])
        assert run.total == 0.0
        assert run.visited == ("u0",)

    def test_visited_one_longer_than_rewards(self, dinner):
        run = run_machine(dinner, labels({}, {}, {"cake"}))
        assert len(run.visited) == len(run.rewards) + 1


class TestValidation:
    def test_overlapping_guards_reported(self):
        m = RewardMachine(
            states=("q",),
            initial="q",
            alphabet=("pasta",),
            transitions=(
                Transition("q", g("pasta", ("pasta",)), "q", 0.0),
                Transition("q", g("true", ("pasta",)), "q", 1.0),
            ),
        )
        report = validate_machine(m)
        assert not report.ok
        assert report.problems == (
            GuardProblem("q", frozenset({"pasta"}), (0, 1)),
        )
        assert "q" in report.describe() and "{pasta}" in report.describe()

    def test_gap_reported(self):
        m = RewardMachine(
            states=("q",),
            initial="q",
            alphabet=("pasta",),
            transitions=(Transition("q", g("pasta", ("pasta",)), "q", 0.0),),
        )
        report = validate_machine(m)
        assert report.problems == (GuardProblem("q", frozenset(), ()),)
        assert "{}" in report.describe()

    def test_a_mixed_report_keeps_state_then_valuation_order(self):
        """Gaps and overlaps are one kind of problem, listed by state, then
        by valuation, and each keeps its own message."""
        alphabet = ("pasta", "cake")
        m = RewardMachine(
            states=("q", "r"),
            initial="q",
            alphabet=alphabet,
            transitions=(
                Transition("r", g("cake", alphabet), "q", 0.0),
                Transition("q", g("pasta", alphabet), "r", 1.0),
                Transition("q", g("cake", alphabet), "q", 0.0),
                Transition("r", g("true", alphabet), "r", 2.0),
            ),
        )
        report = validate_machine(m)
        assert report.problems == (
            GuardProblem("q", frozenset(), ()),
            GuardProblem("q", frozenset({"pasta", "cake"}), (1, 2)),
            GuardProblem("r", frozenset({"cake"}), (0, 3)),
            GuardProblem("r", frozenset({"pasta", "cake"}), (0, 3)),
        )
        assert report.describe() == (
            "state q: no guard holds on {}; "
            "state q: guards of transitions 1, 2 overlap on {cake,pasta}; "
            "state r: guards of transitions 0, 3 overlap on {cake}; "
            "state r: guards of transitions 0, 3 overlap on {cake,pasta}"
        )
        with pytest.raises(MachineValidationError) as exc:
            require_valid(m, "mixed.rm")
        assert str(exc.value) == (
            "mixed.rm: not a valid machine\n"
            "  state q: no guard holds on {}\n"
            "  state q: guards of transitions 1, 2 overlap on {cake,pasta}\n"
            "  state r: guards of transitions 0, 3 overlap on {cake}\n"
            "  state r: guards of transitions 0, 3 overlap on {cake,pasta}"
        )

    def test_require_valid_passes_through(self, dinner):
        assert require_valid(dinner) is dinner

    def test_require_valid_raises_with_report(self):
        m = RewardMachine(
            states=("q",),
            initial="q",
            alphabet=(),
            transitions=(),
        )
        with pytest.raises(MachineValidationError) as exc:
            require_valid(m)
        assert not exc.value.report.ok

    def test_ok_is_read_from_the_problems(self):
        """A report cannot say ok while it lists a problem."""
        assert MachineValidation(()).ok
        assert not MachineValidation((GuardProblem("q", frozenset(), ()),)).ok
        with pytest.raises(TypeError):
            MachineValidation(ok=True, problems=(GuardProblem("q", frozenset(), ()),))


class TestConstruction:
    def test_unknown_target_state(self):
        with pytest.raises(ValueError, match="unknown target"):
            RewardMachine(
                states=("q",),
                initial="q",
                alphabet=ALPHA,
                transitions=(Transition("q", g("true"), "nowhere", 0.0),),
            )

    def test_unknown_source_state(self):
        with pytest.raises(ValueError, match="unknown source"):
            RewardMachine(
                states=("q",),
                initial="q",
                alphabet=ALPHA,
                transitions=(Transition("ghost", g("true"), "q", 0.0),),
            )

    def test_initial_must_be_a_state(self):
        with pytest.raises(ValueError, match="initial"):
            RewardMachine(states=("q",), initial="r", alphabet=ALPHA, transitions=())

    def test_by_source_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            RewardMachine(("q",), "q", ALPHA, (), {"bogus": 1})

    def test_duplicate_states(self):
        with pytest.raises(ValueError, match="duplicate"):
            RewardMachine(states=("q", "q"), initial="q", alphabet=ALPHA, transitions=())

    def test_guard_atoms_must_be_declared(self):
        with pytest.raises(ValueError, match="outside the alphabet"):
            RewardMachine(
                states=("q",),
                initial="q",
                alphabet=("pasta",),
                transitions=(Transition("q", g("cake"), "q", 0.0),),
            )

    @pytest.mark.parametrize("reward", [float("nan"), float("inf"), float("-inf")])
    def test_reward_must_be_finite(self, reward):
        with pytest.raises(ValueError, match="must be finite"):
            Transition("q", g("true"), "q", reward)


class TestStepping:
    def test_step_from_unknown_state(self, dinner):
        with pytest.raises(InvalidStateError):
            step_machine(dinner, "u9", frozenset())

    def test_step_on_gap(self):
        m = RewardMachine(
            states=("q",),
            initial="q",
            alphabet=("pasta",),
            transitions=(Transition("q", g("pasta", ("pasta",)), "q", 0.0),),
        )
        with pytest.raises(NoEnabledTransitionError):
            step_machine(m, "q", frozenset())

    def test_step_returns_target_and_reward(self, dinner):
        assert step_machine(dinner, "u1", frozenset({"cake"})) == ("u2", 1.0)


def test_the_total_adds_in_step_order_as_a_sum_status_does():
    # The builtin sum gives 0.6 here from Python 3.12 on; a left-to-right
    # fold, as a status accumulates, gives 0.6000000000000001.
    m = RewardMachine(
        states=("q0", "q1", "q2"),
        initial="q0",
        alphabet=(),
        transitions=(Transition("q0", g("true", ()), "q1", 0.1),
                     Transition("q1", g("true", ()), "q2", 0.2),
                     Transition("q2", g("true", ()), "q0", 0.3)),
    )
    traj = Trajectory(states=("s",) * 4, actions=("a",) * 3, labels=(frozenset(),) * 3)
    status = StatusFunction((StakeholderStatus(MachineSource(m)),))
    assert run_machine(m, traj.labels).total == status_eval(status, traj)[0] == 0.1 + 0.2 + 0.3


label_seqs = st.lists(st.frozensets(st.sampled_from(ALPHA)), max_size=8)


@given(label_seqs)
def test_total_is_the_sum_of_emitted_rewards(seq):
    dinner_machine = RewardMachine(
        states=("u0", "u1", "u2"),
        initial="u0",
        alphabet=ALPHA,
        transitions=(
            Transition("u0", g("pasta & !cake"), "u1", 0.0),
            Transition("u0", g("!pasta & !cake"), "u0", 0.0),
            Transition("u0", g("cake"), "u2", 0.0),
            Transition("u1", g("cake"), "u2", 1.0),
            Transition("u1", g("!cake"), "u1", 0.0),
            Transition("u2", g("true"), "u2", 0.0),
        ),
    )
    run = run_machine(dinner_machine, seq)
    assert run.total == sum(run.rewards)
    assert len(run.visited) == len(seq) + 1
    assert run.total in (0.0, 1.0)
