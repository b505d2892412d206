import itertools
import math
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporal_pluralism.environment import RestaurantConfig, RestaurantEnv, Trajectory, replay
from temporal_pluralism.errors import FieldError, PluralismError
from temporal_pluralism.formula import parse_formula
from temporal_pluralism import scheme as scheme_module
from temporal_pluralism.machine import RewardMachine, Transition
from temporal_pluralism.scheme import (
    AGGREGATION_MODES,
    Aggregation,
    AlphabetMismatchError,
    AnytimeFilter,
    AtomCountSource,
    EmptyFilterError,
    EmptyInputError,
    EventCountFilter,
    LongTermFilter,
    MachineSource,
    MarkovTableSource,
    PeriodicFilter,
    Scheme,
    StakeholderStatus,
    StatusFunction,
    aggregate,
    check_alphabet_compatibility,
    filter_times,
    log_pluralism_score,
    pluralism_score,
    pluralism_score_reference,
    state_vector,
    states_score,
    status_eval,
    status_table,
    _step_text,
)

ALPHA = ("pasta", "cake")


def g(text, alphabet=ALPHA):
    return parse_formula(text, alphabet)


def dinner_machine():
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


def tick_machine(alphabet=("tick",)):
    """Emits reward 1 on every step, whatever the label."""
    return RewardMachine(
        states=("s",),
        initial="s",
        alphabet=alphabet,
        transitions=(Transition("s", g("true", alphabet), "s", 1.0),),
    )


def traj_from_labels(labels, action="go"):
    n = len(labels)
    return Trajectory(
        states=tuple(f"s{i}" for i in range(n + 1)),
        actions=(action,) * n,
        labels=tuple(frozenset(l) for l in labels),
    )


NASH = Aggregation(mode="flattened", op="product")


class TestMarkovTableSource:
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_default_must_be_finite(self, x):
        with pytest.raises(ValueError, match="default must be finite"):
            MarkovTableSource(rewards={}, default=x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rewards_must_be_finite(self, x):
        with pytest.raises(ValueError, match="must be finite"):
            MarkovTableSource(rewards={("v0", "italian", "v1"): 1.0, ("v1", "sushi", "v2"): x})


class TestSourceEquality:
    """A source equals another by its contents; `path` only names the file
    a scheme refers to it by."""

    def test_machine_sources_of_one_machine(self):
        a = MachineSource(dinner_machine(), path="fig2.rm")
        b = MachineSource(dinner_machine(), path="elsewhere/dinner.rm")
        assert a == b and hash(a) == hash(b)
        assert a != MachineSource(tick_machine(ALPHA), path="fig2.rm")

    def test_markov_tables_of_one_table(self):
        rewards = {("s0", "go", "s1"): 2.0}
        a = MarkovTableSource(rewards, -1.0, path="a.mt")
        b = MarkovTableSource(dict(rewards), -1.0, path="b.mt")
        assert a == b and hash(a) == hash(b)
        assert a != MarkovTableSource(rewards, 0.0, path="a.mt")
        assert a != MarkovTableSource({("s0", "go", "s1"): 3.0}, -1.0, path="a.mt")


class TestStatusFunction:
    @pytest.mark.parametrize("accumulation", ["sum", "mean"])
    def test_only_discounting_takes_a_gamma_other_than_one(self, accumulation):
        with pytest.raises(FieldError, match="needs gamma 1, got 0.5") as err:
            StakeholderStatus(AtomCountSource("pasta"), accumulation, 0.5)
        assert err.value.field == "gamma"

    def test_its_facts_are_fixed_at_construction(self):
        count = StakeholderStatus(AtomCountSource("pasta"))
        machine_mean = StakeholderStatus(MachineSource(dinner_machine()), "mean")
        discounted = StakeholderStatus(AtomCountSource("cake"), "discounted", 0.5)
        status = StatusFunction((count, machine_mean))
        assert status.means == (1,)
        assert status.machines == ((2, frozenset(ALPHA)),)
        assert status.start == (0, (0.0, 0.0), (1.0, 1.0), (None, "u0"))
        status = StatusFunction((count, discounted))
        assert (status.machines, status.means) == ((), ())
        assert status.start == (0, (0.0, 0.0), (1.0, 1.0), (None, None))
        assert status == StatusFunction(list(status.stakeholders))
        with pytest.raises(TypeError):
            StatusFunction((count,), means=(0,))

    def test_a_step_shares_the_parts_no_stakeholder_changes(self):
        status = StatusFunction((
            StakeholderStatus(AtomCountSource("pasta")),
            StakeholderStatus(AtomCountSource("cake"), "mean"),
        ))
        start = status.start
        state = status.step(start, "s0", "go", "s1", frozenset({"pasta"}))
        assert state[:2] == (1, (1.0, 0.0))
        assert state[2] is start[2] and state[3] is start[3]


STEP_TEXT = """\
def factory(atom_0, machine_1, get_2, default_2, gamma_0, gamma_1, gamma_2):
    def step(state, s, a, s2, label):
        t, (total_0, total_1, total_2), weights, machine_states = state
        (weight_0, weight_1, weight_2) = weights
        (_, m_1, _) = machine_states
        m_1, r_1 = step_machine(machine_1, m_1, label)
        r_2 = get_2((s, a, s2), default_2)
        return (t + 1, (
            total_0 + weight_0 if atom_0 in label else total_0,
            total_1 + weight_1 * r_1 if r_1 else total_1,
            total_2 + weight_2 * r_2 if r_2 else total_2,
        ), (weight_0 * gamma_0, weight_1 * gamma_1, weight_2 * gamma_2), (None, m_1, None))
    def table(state, states, actions, labels, times):
        t, (total_0, total_1, total_2), weights, machine_states = state
        (weight_0, weight_1, weight_2) = weights
        (_, m_1, _) = machine_states
        rows = []
        for stop in times:
            for s, a, s2, label in zip(states[t:stop], actions[t:stop], states[t + 1:stop + 1], labels[t:stop]):
                m_1, r_1 = step_machine(machine_1, m_1, label)
                r_2 = get_2((s, a, s2), default_2)
                total_0 = total_0 + weight_0 if atom_0 in label else total_0
                total_1 = total_1 + weight_1 * r_1 if r_1 else total_1
                total_2 = total_2 + weight_2 * r_2 if r_2 else total_2
                weight_0 = weight_0 * gamma_0
                weight_1 = weight_1 * gamma_1
                weight_2 = weight_2 * gamma_2
            t = stop
            rows.append((total_0, total_1 / t, total_2))
        return rows
    return step, table
"""

# Without a Markov stakeholder the table reads only the labels.
COUNT_TEXT = """\
def factory(atom_0):
    def step(state, s, a, s2, label):
        t, (total_0,), weights, machine_states = state
        (weight_0,) = weights
        return (t + 1, (
            total_0 + weight_0 if atom_0 in label else total_0,
        ), weights, machine_states)
    def table(state, states, actions, labels, times):
        t, (total_0,), weights, machine_states = state
        (weight_0,) = weights
        rows = []
        for stop in times:
            for label in labels[t:stop]:
                total_0 = total_0 + weight_0 if atom_0 in label else total_0
            t = stop
            rows.append((total_0,))
        return rows
    return step, table
"""


class TestStepKernel:
    def status(self, atom="pasta", gamma=0.5):
        return StatusFunction((
            StakeholderStatus(AtomCountSource(atom)),
            StakeholderStatus(MachineSource(dinner_machine()), "mean"),
            StakeholderStatus(MarkovTableSource({("s0", "go", "s1"): 2.0}), "discounted", gamma),
        ))

    def test_the_generated_source_is_pinned(self):
        assert _step_text(("count", "machine", "markov"), True, (1,)) == STEP_TEXT
        assert _step_text(("count",), False, ()) == COUNT_TEXT

    def test_the_code_names_the_kernel(self):
        status = self.status()
        for kernel, name in ((status.step, "step"), (status.table, "table")):
            assert kernel.__code__.co_filename == "<status step: count, machine, markov>"
            assert kernel.__code__.co_name == name

    def test_one_shape_shares_one_factory_and_keeps_its_own_constants(self):
        first, second = self.status(), self.status(atom="cake", gamma=0.25)
        assert first.step is first.step  # built once
        assert first.table is first.table
        assert first.step is not second.step
        assert first.step.__code__ is second.step.__code__
        assert first.table.__code__ is second.table.__code__
        state = second.step(second.start, "s0", "go", "s1", frozenset({"cake"}))
        assert state == (1, (1.0, 0.0, 2.0), (1.0, 1.0, 0.25), (None, "u2", None))
        state = first.step(first.start, "s0", "go", "s1", frozenset({"cake"}))
        assert state == (1, (0.0, 0.0, 2.0), (1.0, 1.0, 0.5), (None, "u2", None))

    def test_the_table_reads_each_time_off_the_fold_of_the_step(self):
        status = self.status()
        traj = traj_from_labels([{"pasta"}, set(), {"cake"}, {"pasta"}, set()])
        times = (2, 3, 5)
        rows = status.table(status.start, traj.states, traj.actions, traj.labels, times)
        folded = [status.start]  # folded[t]: the state after t steps
        for s, a, s2, label in zip(traj.states, traj.actions, traj.states[1:], traj.labels):
            folded.append(status.step(folded[-1], s, a, s2, label))
        expected = [state_vector(status, folded[t]) for t in times]
        assert rows == expected == [(1.0, 0.0, 2.0), (1.0, 1 / 3, 2.0), (2.0, 0.2, 2.0)]
        # From a later state, the table steps on from that state's time.
        rows = status.table(folded[3], traj.states, traj.actions, traj.labels, (5,))
        assert rows == expected[-1:]

    def test_a_used_status_function_pickles_and_steps_alike(self):
        status = self.status()
        label = frozenset({"pasta"})
        traj = traj_from_labels([{"pasta"}, {"cake"}])
        state = status.step(status.start, "s0", "go", "s1", label)
        rows = status.table(status.start, traj.states, traj.actions, traj.labels, (1, 2))
        assert set(status.__dict__) >= {"_kernel", "step", "table"}
        fields = set(status.__getstate__())
        assert fields == {"stakeholders", "markov", "machines", "means", "start"}
        copy = pickle.loads(pickle.dumps(status))
        assert copy == status
        assert copy.step(copy.start, "s0", "go", "s1", label) == state
        assert copy.table(copy.start, traj.states, traj.actions, traj.labels, (1, 2)) == rows

    def test_a_machine_step_is_looked_up_when_the_kernel_runs(self, monkeypatch):
        status = self.status()
        traj = traj_from_labels([set(), set()])
        status.step(status.start, "s0", "go", "s1", frozenset())
        status.table(status.start, traj.states, traj.actions, traj.labels, (1, 2))
        calls = []
        monkeypatch.setattr(scheme_module, "step_machine",
                            lambda *args: calls.append(args) or ("u1", 0.0))
        state = status.step(status.start, "s0", "go", "s1", frozenset())
        machine = status.stakeholders[1].source.machine
        assert calls == [(machine, "u0", frozenset())]
        assert state[3] == (None, "u1", None)
        calls.clear()
        status.table(status.start, traj.states, traj.actions, traj.labels, (1, 2))
        assert calls == [(machine, "u0", frozenset()), (machine, "u1", frozenset())]


class TestStatusEval:
    def test_machine_source_sums_emitted_rewards(self):
        status = StatusFunction((StakeholderStatus(MachineSource(dinner_machine())),))
        t = traj_from_labels([{"pasta"}, {"cake"}])
        assert status_eval(status, t) == (1.0,)

    def test_atom_count(self):
        status = StatusFunction((StakeholderStatus(AtomCountSource("pasta")),))
        t = traj_from_labels([{"pasta"}, {"cake"}, {"pasta"}])
        assert status_eval(status, t) == (2.0,)

    def test_discounted_half(self):
        status = StatusFunction(
            (StakeholderStatus(MachineSource(tick_machine()), "discounted", 0.5),)
        )
        t = traj_from_labels([{"tick"}, {"tick"}])
        assert status_eval(status, t) == (1.5,)

    def test_mean(self):
        status = StatusFunction((StakeholderStatus(AtomCountSource("pasta"), "mean"),))
        t = traj_from_labels([{"pasta"}, {}, {}, {"pasta"}])
        assert status_eval(status, t) == (0.5,)

    def test_mean_of_the_empty_prefix_is_zero(self):
        status = StatusFunction((StakeholderStatus(AtomCountSource("pasta"), "mean"),))
        assert status_eval(status, traj_from_labels([])) == (0.0,)

    def test_markov_table_with_default(self):
        table = MarkovTableSource(
            rewards={("s0", "go", "s1"): 2.0}, default=-1.0
        )
        status = StatusFunction((StakeholderStatus(table),))
        t = traj_from_labels([{}, {}])
        assert status_eval(status, t) == (1.0,)  # 2.0 then the -1.0 default

    def test_vector_has_one_entry_per_stakeholder(self):
        status = StatusFunction(
            (
                StakeholderStatus(AtomCountSource("pasta")),
                StakeholderStatus(AtomCountSource("cake")),
            )
        )
        t = traj_from_labels([{"pasta"}, {"cake"}, {"cake"}])
        assert status_eval(status, t) == (1.0, 2.0)

    def test_machine_source_rejects_foreign_atoms(self):
        status = StatusFunction((StakeholderStatus(MachineSource(dinner_machine())),))
        t = traj_from_labels([{"wine"}])
        with pytest.raises(AlphabetMismatchError, match="wine"):
            status_eval(status, t)

    def test_foreign_atoms_name_the_stakeholder_on_both_routes(self):
        status = StatusFunction((StakeholderStatus(AtomCountSource("wine")),
                                 StakeholderStatus(MachineSource(dinner_machine()))))
        scheme = Scheme(status, Aggregation(op="sum"), AnytimeFilter())
        t = traj_from_labels([{"pasta"}, {"wine", "beer"}])
        message = "^stakeholder 2: label atoms outside the machine alphabet: beer, wine$"
        for score in (pluralism_score, pluralism_score_reference):
            with pytest.raises(AlphabetMismatchError, match=message):
                score(scheme, t)
        # Step order first, then stakeholder order: {a} is step 1, and only
        # stakeholder 2's machine cannot read it.
        status = StatusFunction((StakeholderStatus(MachineSource(tick_machine(("a",)))),
                                 StakeholderStatus(MachineSource(tick_machine(("b",))))))
        scheme = Scheme(status, Aggregation(op="sum"), LongTermFilter())
        t = traj_from_labels([{"a"}, {"b"}])
        message = "^stakeholder 2: label atoms outside the machine alphabet: a$"
        for score in (pluralism_score, pluralism_score_reference):
            with pytest.raises(AlphabetMismatchError, match=message):
                score(scheme, t)

    def test_gamma_bounds(self):
        with pytest.raises(ValueError):
            StakeholderStatus(AtomCountSource("pasta"), "discounted", 0.0)
        with pytest.raises(ValueError):
            StakeholderStatus(AtomCountSource("pasta"), "discounted", 1.5)
        StakeholderStatus(AtomCountSource("pasta"), "discounted", 1.0)

    def test_count_sum_monotone_over_prefixes(self):
        status = StatusFunction((StakeholderStatus(AtomCountSource("pasta")),))
        t = traj_from_labels([{"pasta"}, {}, {"pasta"}, {"pasta"}, {}])
        values = [status_eval(status, t.prefix(i))[0] for i in range(t.horizon + 1)]
        assert values == sorted(values)


class TestFilters:
    def test_periodic_two(self):
        assert filter_times(PeriodicFilter(2), traj_from_labels([{}] * 5)) == (2, 4)

    def test_long_term(self):
        assert filter_times(LongTermFilter(), traj_from_labels([{}] * 5)) == (5,)

    def test_long_term_empty_horizon(self):
        assert filter_times(LongTermFilter(), traj_from_labels([])) == ()

    def test_anytime(self):
        assert filter_times(AnytimeFilter(), traj_from_labels([{}] * 3)) == (1, 2, 3)

    def test_event_count_fires_at_crossings(self):
        t = traj_from_labels([{"pasta"}, {}, {"pasta"}, {"pasta"}, {}])
        assert filter_times(EventCountFilter("pasta", 2), t) == (3,)

    def test_event_count_every_occurrence(self):
        t = traj_from_labels([{"pasta"}, {}, {"pasta"}])
        assert filter_times(EventCountFilter("pasta", 1), t) == (1, 3)

    def test_event_count_never_firing(self):
        t = traj_from_labels([{}, {}])
        assert filter_times(EventCountFilter("pasta", 1), t) == ()

    def test_period_validation(self):
        with pytest.raises(ValueError):
            PeriodicFilter(0)
        with pytest.raises(ValueError):
            EventCountFilter("pasta", 0)

    @given(st.integers(0, 12))
    def test_anytime_equals_periodic_one(self, horizon):
        t = traj_from_labels([{}] * horizon)
        assert filter_times(AnytimeFilter(), t) == filter_times(PeriodicFilter(1), t)


class TestAggregate:
    def test_flattened_product(self):
        assert aggregate(NASH, [(1.0, 2.0), (3.0, 4.0)]) == 24.0

    def test_nested_min_over_time_product_over_stakeholders(self):
        agg = Aggregation(mode="time_then_stakeholders", inner_op="min", outer_op="product")
        assert aggregate(agg, [(1.0, 2.0), (3.0, 4.0)]) == 2.0

    def test_nested_sum_over_stakeholders_min_over_time(self):
        agg = Aggregation(mode="stakeholders_then_time", inner_op="sum", outer_op="min")
        assert aggregate(agg, [(1.0, 2.0), (3.0, 4.0)]) == 3.0

    def test_zero_absorbs_the_product(self):
        assert aggregate(NASH, [(1.0, 0.0), (3.0, 4.0)]) == 0.0

    def test_flattened_sum_min_mean(self):
        vecs = [(1.0, 2.0), (3.0, 4.0)]
        assert aggregate(Aggregation(op="sum"), vecs) == 10.0
        assert aggregate(Aggregation(op="min"), vecs) == 1.0
        assert aggregate(Aggregation(op="mean"), vecs) == 2.5

    def test_single_vector(self):
        assert aggregate(NASH, [(2.0, 3.0)]) == 6.0

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            aggregate(NASH, [])
        for op in ("product", "sum", "min", "mean"):
            with pytest.raises(EmptyInputError, match="at least one entry"):
                aggregate(Aggregation(op=op), [()])

    def test_ragged_vectors(self):
        with pytest.raises(ValueError):
            aggregate(NASH, [(1.0,), (1.0, 2.0)])

    @pytest.mark.parametrize("op", ["product", "sum", "min", "mean"])
    @pytest.mark.parametrize("mode", ["flattened", "time_then_stakeholders",
                                      "stakeholders_then_time"])
    def test_a_nan_entry_is_refused_in_any_position(self, mode, op):
        agg = (Aggregation(op=op) if mode == "flattened"
               else Aggregation(mode=mode, inner_op=op, outer_op=op))
        for entries in itertools.permutations((1.0, math.nan, 0.5)):
            for vectors in ([entries], [(x,) for x in entries]):
                with pytest.raises(ValueError, match="NaN"):
                    aggregate(agg, vectors)

    def test_opposite_infinities_are_not_a_nan_entry(self):
        assert aggregate(Aggregation(op="min"), [(math.inf, -math.inf, 1.0)]) == -math.inf

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            Aggregation(mode="diagonal", op="sum")
        with pytest.raises(ValueError):
            Aggregation(mode="flattened")  # op missing
        with pytest.raises(ValueError):
            Aggregation(mode="flattened", op="product", inner_op="sum")
        with pytest.raises(ValueError):
            Aggregation(mode="time_then_stakeholders", inner_op="sum")
        with pytest.raises(ValueError):
            Aggregation(mode="time_then_stakeholders", inner_op="sum", outer_op="sum", op="min")

    @pytest.mark.parametrize("mode, needs", [
        ("flattened", "flattened aggregation needs op in"),
        ("time_then_stakeholders", "nested aggregation needs inner_op and outer_op in"),
        ("stakeholders_then_time", "nested aggregation needs inner_op and outer_op in"),
    ])
    def test_a_mode_takes_exactly_the_op_fields_it_reads(self, mode, needs):
        reads = AGGREGATION_MODES[mode]
        for name in ("op", "inner_op", "outer_op"):
            fields = dict.fromkeys(reads, "sum") | {name: "min"}
            if name in reads:
                assert getattr(Aggregation(mode, **fields), name) == "min"
                del fields[name]
                message = f"{needs} ('product', 'sum', 'min', 'mean')"
            else:
                message = f"{mode} aggregation reads no {name}"
            with pytest.raises(FieldError, match=f"^{re.escape(message)}$") as exc:
                Aggregation(mode, **fields)
            assert exc.value.field == name
        with pytest.raises(FieldError, match="^unknown aggregation mode 'diagonal'$"):
            Aggregation("diagonal", **dict.fromkeys(reads, "sum"))


def two_friend_env():
    return RestaurantEnv(
        RestaurantConfig(
            n_friends=2, restaurant_types=("italian", "sushi"), preferred=("italian", "sushi")
        )
    )


def count_scheme(n, aggregation=NASH, filt=None):
    return Scheme(
        status=StatusFunction(
            tuple(StakeholderStatus(AtomCountSource(f"served_{i + 1}")) for i in range(n))
        ),
        aggregation=aggregation,
        filter=filt if filt is not None else LongTermFilter(),
    )


class TestPluralismScore:
    def test_one_visit_each_scores_one(self):
        t = replay(two_friend_env(), ("italian", "sushi"))
        assert pluralism_score(count_scheme(2), t) == 1.0

    def test_starving_a_friend_scores_zero(self):
        t = replay(two_friend_env(), ("italian", "italian"))
        assert pluralism_score(count_scheme(2), t) == 0.0

    def test_anytime_product_with_two_counters_is_always_zero(self):
        scheme = count_scheme(2, filt=AnytimeFilter())
        t = replay(two_friend_env(), ("italian", "sushi", "sushi"))
        assert pluralism_score(scheme, t) == 0.0

    def test_long_term_is_the_single_final_vector(self):
        scheme = count_scheme(2)
        t = replay(two_friend_env(), ("italian", "sushi", "italian"))
        assert pluralism_score(scheme, t) == aggregate(
            NASH, [status_eval(scheme.status, t)]
        )

    def test_empty_filter_raises_by_default(self):
        scheme = count_scheme(2, filt=EventCountFilter("visit", 10))
        t = replay(two_friend_env(), ("italian",))
        with pytest.raises(EmptyFilterError):
            pluralism_score(scheme, t)

    def test_neutral_empty_filter_product(self):
        scheme = Scheme(
            status=count_scheme(2).status,
            aggregation=NASH,
            filter=EventCountFilter("visit", 10),
            empty_filter="neutral",
        )
        t = replay(two_friend_env(), ("italian",))
        assert pluralism_score(scheme, t) == 1.0

    def test_neutral_empty_filter_sum(self):
        scheme = Scheme(
            status=count_scheme(2).status,
            aggregation=Aggregation(op="sum"),
            filter=EventCountFilter("visit", 10),
            empty_filter="neutral",
        )
        t = replay(two_friend_env(), ("italian",))
        assert pluralism_score(scheme, t) == 0.0

    def test_neutral_needs_an_identity(self):
        with pytest.raises(ValueError):
            Scheme(
                status=count_scheme(2).status,
                aggregation=Aggregation(op="min"),
                filter=LongTermFilter(),
                empty_filter="neutral",
            )

    def test_empty_filter_policy_names(self):
        with pytest.raises(ValueError):
            Scheme(
                status=count_scheme(2).status,
                aggregation=NASH,
                filter=LongTermFilter(),
                empty_filter="whatever",
            )

    def test_log_score_matches_plain_score(self):
        scheme = count_scheme(2)
        t = replay(two_friend_env(), ("italian", "sushi", "italian", "sushi"))
        assert math.isclose(
            math.exp(log_pluralism_score(scheme, t)),
            pluralism_score(scheme, t),
            rel_tol=1e-12,
        )
        # no time passes the filter: the neutral product 1 has log 0
        neutral = Scheme(scheme.status, NASH, EventCountFilter("visit", 10), "neutral")
        assert (log_pluralism_score(neutral, t), pluralism_score(neutral, t)) == (0.0, 1.0)

    def test_log_score_adds_the_sorted_logs_left_to_right(self):
        # A compensated sum (the builtin sum's from Python 3.12 on) rounds
        # log 2 + log 3 + log 5 one ulp higher, so the score would depend
        # on the interpreter.
        sources = [MarkovTableSource(rewards={}, default=r) for r in (5.0, 2.0, 3.0)]
        scheme = Scheme(StatusFunction([StakeholderStatus(s) for s in sources]),
                        Aggregation(op="product"), LongTermFilter())
        t = Trajectory(states=("s0", "s1"), actions=("a",), labels=(frozenset(),))
        expected = (math.log(2.0) + math.log(3.0)) + math.log(5.0)
        assert expected != math.fsum(math.log(x) for x in (2.0, 3.0, 5.0))
        assert log_pluralism_score(scheme, t) == expected

    def test_log_score_rejects_zero_entries(self):
        scheme = count_scheme(2)
        t = replay(two_friend_env(), ("italian", "italian"))
        with pytest.raises(PluralismError):
            log_pluralism_score(scheme, t)

    def test_log_score_needs_product(self):
        scheme = count_scheme(2, aggregation=Aggregation(op="sum"))
        t = replay(two_friend_env(), ("italian", "sushi"))
        with pytest.raises(PluralismError):
            log_pluralism_score(scheme, t)


class TestAlphabetCompatibility:
    def test_machine_must_cover_the_environment(self):
        scheme = Scheme(
            status=StatusFunction((StakeholderStatus(MachineSource(dinner_machine())),)),
            aggregation=NASH,
            filter=LongTermFilter(),
        )
        with pytest.raises(AlphabetMismatchError):
            check_alphabet_compatibility(scheme, two_friend_env().alphabet)

    def test_counted_atom_must_exist(self):
        scheme = count_scheme(3)
        with pytest.raises(AlphabetMismatchError, match="served_3"):
            check_alphabet_compatibility(scheme, two_friend_env().alphabet)

    def test_filter_atom_must_exist(self):
        scheme = count_scheme(2, filt=EventCountFilter("banquet", 1))
        with pytest.raises(AlphabetMismatchError, match="banquet"):
            check_alphabet_compatibility(scheme, two_friend_env().alphabet)

    def test_compatible_scheme_passes(self):
        check_alphabet_compatibility(count_scheme(2), two_friend_env().alphabet)


# ---------------------------------------------------------------------------
# the incremental and scratch scoring routes must agree bit for bit

source_kinds = st.sampled_from(("count_pasta", "count_cake", "dinner", "tick", "markov"))
# A gamma of 1e-200 underflows the weights to 0 by step 3.
accumulations = st.sampled_from(
    [("sum", 1.0), ("mean", 1.0), ("discounted", 0.5), ("discounted", 0.75),
     ("discounted", 1e-200)]
)
# Negative, signed-zero and near-maximal rewards: two of ±1e308 overflow a
# total to ±inf.
markov_rewards = st.sampled_from([0.25, 1.75, -0.5, -0.0, 0.0, 1e308, -1e308])


@st.composite
def stakeholder_statuses(draw):
    kind = draw(source_kinds)
    acc, gamma = draw(accumulations)
    if kind == "count_pasta":
        source = AtomCountSource("pasta")
    elif kind == "count_cake":
        source = AtomCountSource("cake")
    elif kind == "dinner":
        source = MachineSource(dinner_machine())
    elif kind == "tick":
        source = MachineSource(tick_machine(ALPHA))
    else:
        source = MarkovTableSource(
            rewards={("s0", "go", "s1"): draw(markov_rewards),
                     ("s2", "go", "s3"): draw(markov_rewards)},
            default=draw(markov_rewards),
        )
    return StakeholderStatus(source, acc, gamma)


aggregations = st.one_of(
    st.builds(
        Aggregation,
        mode=st.just("flattened"),
        op=st.sampled_from(("product", "sum", "min", "mean")),
    ),
    st.builds(
        Aggregation,
        mode=st.sampled_from(("time_then_stakeholders", "stakeholders_then_time")),
        inner_op=st.sampled_from(("product", "sum", "min", "mean")),
        outer_op=st.sampled_from(("product", "sum", "min", "mean")),
    ),
)

filters = st.one_of(
    st.just(LongTermFilter()),
    st.builds(PeriodicFilter, st.integers(1, 3)),
    st.just(AnytimeFilter()),
    st.builds(EventCountFilter, st.sampled_from(ALPHA), st.integers(1, 2)),
)

statuses = st.lists(stakeholder_statuses(), min_size=1, max_size=6).map(
    lambda sts: StatusFunction(tuple(sts))
)

schemes = st.builds(Scheme, status=statuses, aggregation=aggregations, filter=filters)

# Step 1 reads a Markov table's first key, step 3 its second, every other
# step its default.
trajectories = st.lists(st.frozensets(st.sampled_from(ALPHA)), min_size=1, max_size=8).map(
    traj_from_labels
)


@settings(max_examples=300)
@given(schemes, trajectories)
def test_incremental_equals_scratch_bit_for_bit(scheme, traj):
    status = scheme.status
    table = status_table(Scheme(status, scheme.aggregation, AnytimeFilter()), traj)
    for t, vec in table:
        # by repr, so a -0.0 against a 0.0 (or a nan) is a difference
        assert list(map(repr, vec)) == list(map(repr, status_eval(status, traj.prefix(t))))
    try:
        fast = pluralism_score(scheme, traj)
    except EmptyFilterError:
        with pytest.raises(EmptyFilterError):
            pluralism_score_reference(scheme, traj)
        return
    slow = pluralism_score_reference(scheme, traj)
    assert repr(fast) == repr(slow)  # no tolerance: the routes share their arithmetic


@settings(max_examples=300)
@given(schemes, trajectories)
def test_status_table_matches_scratch(scheme, traj):
    """Under every filter kind, each row is status_eval of its prefix, entry
    for entry by repr (a -0.0 against a 0.0 is a difference).  Every filter
    but the anytime one makes the table kernel step several times between
    two rows."""
    rows = status_table(scheme, traj)
    assert tuple(t for t, _ in rows) == filter_times(scheme.filter, traj)
    for t, vec in rows:
        assert list(map(repr, vec)) == list(map(repr, status_eval(scheme.status, traj.prefix(t))))


# the learner's reward, read off the states of its own fold, is the score

neutral_schemes = st.builds(
    Scheme,
    status=st.lists(stakeholder_statuses(), min_size=1, max_size=3).map(
        lambda sts: StatusFunction(tuple(sts))
    ),
    aggregation=st.builds(Aggregation, op=st.sampled_from(("product", "sum"))),
    filter=filters,
    empty_filter=st.just("neutral"),
)


@settings(max_examples=300)
@given(
    st.one_of(schemes, neutral_schemes),
    st.lists(st.frozensets(st.sampled_from(ALPHA)), max_size=6).map(traj_from_labels),
)
def test_states_score_equals_pluralism_score_bit_for_bit(scheme, traj):
    status = scheme.status
    states = [status.start]
    for s, a, s2, label in zip(traj.states, traj.actions, traj.states[1:], traj.labels):
        states.append(status.step(states[-1], s, a, s2, label))
    try:
        expected = pluralism_score(scheme, traj)
    except EmptyFilterError as err:
        with pytest.raises(EmptyFilterError, match=re.escape(str(err))):
            states_score(scheme, traj.labels, states)
        return
    assert repr(states_score(scheme, traj.labels, states)) == repr(expected)  # -0.0 included


# ---------------------------------------------------------------------------
# aggregation algebra

matrices = st.integers(1, 5).flatmap(
    lambda k: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.floats(0, 4, allow_nan=False) for _ in range(n)]),
            min_size=k,
            max_size=k,
        )
    )
)


@given(matrices, st.randoms(use_true_random=False))
def test_flattened_is_permutation_invariant_exactly(vectors, rnd):
    shuffled = list(vectors)
    rnd.shuffle(shuffled)
    for op in ("product", "sum", "min", "mean"):
        agg = Aggregation(op=op)
        assert aggregate(agg, vectors) == aggregate(agg, shuffled)


@given(matrices, st.integers(0, 100))
def test_nash_monotone_on_nonnegative_inputs(vectors, pick):
    base = aggregate(NASH, vectors)
    i = pick % len(vectors)
    j = pick % len(vectors[0])
    bumped = [list(v) for v in vectors]
    bumped[i][j] += 1.0
    assert aggregate(NASH, [tuple(v) for v in bumped]) >= base


@given(matrices, st.floats(0.25, 4.0), st.integers(0, 3))
def test_nash_scaling_law(vectors, c, j):
    j = j % len(vectors[0])
    scaled = [tuple(x * c if idx == j else x for idx, x in enumerate(v)) for v in vectors]
    expected = aggregate(NASH, vectors) * c ** len(vectors)
    assert math.isclose(aggregate(NASH, scaled), expected, rel_tol=1e-9, abs_tol=1e-12)
