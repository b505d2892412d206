import functools
import itertools
import shlex
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporal_pluralism.environment import (
    DeliveryGridEnv,
    RestaurantConfig,
    RestaurantEnv,
    Trajectory,
    replay,
)
from temporal_pluralism.formula import And, Atom, ConstTrue, Not
from temporal_pluralism.machine import MachineValidationError, RewardMachine, Transition
from temporal_pluralism.optimize import optimize_exhaustive
from temporal_pluralism.scheme import (
    Aggregation,
    AtomCountSource,
    EventCountFilter,
    LongTermFilter,
    MachineSource,
    MarkovTableSource,
    PeriodicFilter,
    Scheme,
    StakeholderStatus,
    StatusFunction,
    pluralism_score,
)
from temporal_pluralism.serialize import (
    FormatError,
    SchemaVersionError,
    _split_line,
    env_to_text,
    format_real,
    load_env,
    load_machine,
    load_markov_table,
    load_scheme,
    load_trajectory,
    machine_to_text,
    markov_table_to_text,
    parse_env_text,
    parse_machine_text,
    parse_markov_table_text,
    parse_scheme_text,
    parse_trajectory_text,
    save_env,
    save_machine,
    save_markov_table,
    save_scheme,
    scheme_to_text,
    trajectory_to_text,
    write_results,
)
from test_scheme import accumulations, aggregations, filters

def reserialize(path):
    text = path.read_text()
    suffix = path.suffix
    if suffix == ".rm":
        return machine_to_text(parse_machine_text(text, str(path)))
    if suffix == ".env":
        return env_to_text(parse_env_text(text, str(path)))
    if suffix == ".scheme":
        return scheme_to_text(parse_scheme_text(text, str(path), base_dir=path.parent))
    if suffix == ".traj":
        return trajectory_to_text(parse_trajectory_text(text, str(path)))
    if suffix == ".mt":
        return markov_table_to_text(parse_markov_table_text(text, str(path)))
    raise AssertionError(f"{path.name}: no reader for the suffix {suffix!r}")


def test_every_bundled_fixture_round_trips_byte_for_byte(fixtures_dir):
    """Every file under fixtures/ is exactly what the canonical writer
    makes of it, so `save_X(load_X(path), path)` leaves it unchanged."""
    paths = sorted(fixtures_dir.iterdir())
    assert len(paths) >= 15  # the bundle should not quietly shrink
    for path in paths:
        assert reserialize(path) == path.read_text(), path.name


class TestMachineFormat:
    def test_bundled_dinner_machine(self, fixtures_dir):
        m = load_machine(fixtures_dir / "fig2.rm")
        assert len(m.states) == 3
        assert len(m.transitions) == 6
        assert m.initial == "u0"
        assert m.alphabet == ("pasta", "cake")

    def test_version_header_optional_on_input(self):
        text = 'alphabet a\nstate q init\ntrans q "true" q 0\n'
        m = parse_machine_text(text)
        assert m.initial == "q"
        assert machine_to_text(m).startswith("version 1\n")

    def test_unsupported_version(self):
        with pytest.raises(SchemaVersionError):
            parse_machine_text("version 2\nalphabet a\nstate q init\n")

    def test_two_init_states(self):
        text = "alphabet a\nstate q init\nstate r init\n"
        with pytest.raises(FormatError, match="init"):
            parse_machine_text(text)

    def test_no_init_state(self):
        with pytest.raises(FormatError, match="init"):
            parse_machine_text("alphabet a\nstate q\n")

    def test_alphabet_must_precede_transitions(self):
        text = 'state q init\ntrans q "true" q 0\nalphabet a\n'
        with pytest.raises(FormatError, match="alphabet"):
            parse_machine_text(text)

    def test_bad_guard_reports_the_line(self):
        text = 'alphabet a\nstate q init\ntrans q "b" q 0\n'
        with pytest.raises(FormatError, match="3"):
            parse_machine_text(text, path="m.rm")

    def test_unknown_directive(self):
        with pytest.raises(FormatError, match="banana"):
            parse_machine_text("banana split\n")

    def test_bad_reward(self):
        text = 'alphabet a\nstate q init\ntrans q "true" q lots\n'
        with pytest.raises(FormatError, match="lots"):
            parse_machine_text(text)

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# a machine\n"
            "version 1\n"
            "\n"
            "alphabet a  # one atom\n"
            "state q init\n"
            'trans q "true" q 1\n'
        )
        assert parse_machine_text(text).alphabet == ("a",)

    def test_load_validates(self, tmp_path):
        bad = tmp_path / "gap.rm"
        bad.write_text('alphabet a\nstate q init\ntrans q "a" q 0\n')
        with pytest.raises(MachineValidationError):
            load_machine(bad)


class TestEnvFormat:
    def test_bundled_five_friend_group(self, fixtures_dir):
        env = load_env(fixtures_dir / "restaurant5.env")
        assert isinstance(env, RestaurantEnv)
        assert env.config.n_friends == 5
        assert len(env.config.restaurant_types) == 5
        assert len(set(env.config.preferred)) == 5

    def test_bundled_delivery_grid(self, fixtures_dir):
        env = load_env(fixtures_dir / "delivery2.env")
        assert isinstance(env, DeliveryGridEnv)
        assert env.config.start == (1, 0)
        assert len(env.config.recipients) == 2

    def test_unknown_kind(self):
        with pytest.raises(FormatError, match="casino"):
            parse_env_text("env casino\n")

    def test_the_first_line_names_every_kind(self):
        message = "^in.env:1: first line must be `env restaurant` or `env delivery_grid`$"
        with pytest.raises(FormatError, match=message):
            parse_env_text("n_friends 3\n", "in.env")

    def test_an_env_of_no_known_kind_has_no_text_form(self):
        with pytest.raises(ValueError, match="^no text form for object$"):
            env_to_text(object())

    def test_a_subclass_is_written_as_its_kind(self):
        class Bistro(RestaurantEnv):
            pass

        env = Bistro(RestaurantConfig(n_friends=1, restaurant_types=("a",), preferred=("a",)))
        assert env_to_text(env).splitlines()[1] == "env restaurant"

    def test_missing_kind_line(self):
        with pytest.raises(FormatError):
            parse_env_text("n_friends 3\n")

    def test_missing_preference(self):
        text = "env restaurant\nn_friends 2\ntypes a b\nprefers 1 a\n"
        with pytest.raises(FormatError, match="friend 2"):
            parse_env_text(text)

    def test_preference_for_unknown_type(self):
        text = "env restaurant\nn_friends 1\ntypes a\nprefers 1 z\n"
        with pytest.raises(FormatError):
            parse_env_text(text)

    def test_a_grid_without_cells_is_reported_before_its_recipients(self):
        text = "env delivery_grid\ngrid 0 1\nstart 0 0\nrecipient 0 0\n"
        with pytest.raises(FormatError, match=r"^in\.env:2: grid must be at least 1x1$"):
            parse_env_text(text, "in.env")


class TestSchemeFormat:
    def test_bundled_every_tenth_visit_scheme(self, fixtures_dir):
        scheme = load_scheme(fixtures_dir / "restaurant5_nash_every10.scheme")
        assert scheme.status.n == 5
        assert all(
            isinstance(sk.source, AtomCountSource) for sk in scheme.status.stakeholders
        )
        assert scheme.aggregation.op == "product"
        assert scheme.filter == EventCountFilter("visit", 10)

    def test_machine_reference_resolves_next_to_the_scheme(self, fixtures_dir):
        scheme = load_scheme(fixtures_dir / "dinner_machine.scheme")
        source = scheme.status.stakeholders[0].source
        assert isinstance(source, MachineSource)
        assert source.machine.initial == "u0"
        assert source.path == "fig2.rm"

    def test_markov_reference(self, fixtures_dir):
        scheme = load_scheme(fixtures_dir / "restaurant3_mixed.scheme")
        source = scheme.status.stakeholders[1].source
        assert isinstance(source, MarkovTableSource)
        assert source.rewards[("v0", "italian", "v1")] == 2.0

    def test_a_markov_reference_builds_its_table_once(self, fixtures_dir, monkeypatch):
        built = []
        real_post_init = MarkovTableSource.__post_init__

        def counting(source):
            built.append(source.path)
            real_post_init(source)

        monkeypatch.setattr(MarkovTableSource, "__post_init__", counting)
        scheme = load_scheme(fixtures_dir / "restaurant3_mixed.scheme")
        assert built == ["opening_moves.mt"]
        assert scheme.status.stakeholders[1].source.path == "opening_moves.mt"

    @pytest.mark.parametrize("accumulation", ["sum", "mean"])
    def test_a_gamma_off_discounting_is_never_read(self, accumulation):
        text = TWO + f"accumulation 1 {accumulation}\ngamma 1 0.5\n"
        with pytest.raises(FormatError, match=r"^7: 'gamma 1' is never read"):
            parse_scheme_text(text)

    def test_saving_an_in_memory_machine_needs_a_reference(self):
        from temporal_pluralism.machine import RewardMachine, Transition
        from temporal_pluralism.formula import parse_formula
        from temporal_pluralism.scheme import (
            Aggregation,
            LongTermFilter,
            Scheme,
            StakeholderStatus,
            StatusFunction,
        )

        m = RewardMachine(
            states=("q",),
            initial="q",
            alphabet=("a",),
            transitions=(Transition("q", parse_formula("true", ("a",)), "q", 1.0),),
        )
        scheme = Scheme(
            status=StatusFunction((StakeholderStatus(MachineSource(m)),)),
            aggregation=Aggregation(op="product"),
            filter=LongTermFilter(),
        )
        with pytest.raises(ValueError, match="reference"):
            scheme_to_text(scheme)

    def test_missing_source(self):
        text = "n 2\nsource 1 count a\naggregation.op product\nfilter.kind long_term\n"
        with pytest.raises(FormatError, match="stakeholder 2"):
            parse_scheme_text(text)

    def test_unknown_source_kind(self):
        text = "n 1\nsource 1 telepathy a\nfilter.kind long_term\n"
        with pytest.raises(FormatError, match="telepathy"):
            parse_scheme_text(text)

    def test_duplicate_field(self):
        text = (
            "n 1\nsource 1 count a\naggregation.op product\n"
            "filter.kind long_term\nfilter.kind anytime\n"
        )
        with pytest.raises(FormatError, match="duplicate"):
            parse_scheme_text(text)

    def test_filter_needs_its_parameters(self):
        text = "n 1\nsource 1 count a\naggregation.op product\nfilter.kind periodic\n"
        with pytest.raises(FormatError, match="filter.p"):
            parse_scheme_text(text)

    @pytest.mark.parametrize("kind, message", [
        ("", "in.txt: missing 'filter.kind' line"),
        ("filter.kind sometimes\n", "in.txt:4: unknown filter.kind 'sometimes'"),
    ], ids=["missing", "unknown"])
    def test_filter_kind_is_required_and_known(self, kind, message):
        with pytest.raises(FormatError) as exc:
            parse_scheme_text(ONE + kind, "in.txt")
        assert str(exc.value) == message

    def test_event_count_filter_needs_its_atom(self):
        text = "n 1\nsource 1 count a\naggregation.op product\nfilter.kind event_count\nfilter.k 2\n"
        with pytest.raises(FormatError, match="missing 'filter.atom' line"):
            parse_scheme_text(text)


atom_names = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
count_stakeholders = st.builds(lambda atom, acc: StakeholderStatus(AtomCountSource(atom), *acc),
                               atom_names, accumulations)
scheme_filters = st.one_of(filters, st.builds(PeriodicFilter, st.integers(1, 10**12)),
                           st.builds(EventCountFilter, atom_names, st.integers(1, 10**12)))


@st.composite
def count_schemes(draw):
    """A count-source scheme over any accumulation, mode x op, filter kind
    and empty-filter policy the scheme accepts."""
    aggregation = draw(aggregations)
    neutral = aggregation.mode == "flattened" and aggregation.op in ("product", "sum")
    return Scheme(StatusFunction(tuple(draw(st.lists(count_stakeholders, min_size=1, max_size=4)))),
                  aggregation, draw(scheme_filters),
                  draw(st.sampled_from(("error", "neutral") if neutral else ("error",))))


@given(count_schemes())
def test_every_scheme_shape_is_saved_read_back_and_saved_again(scheme):
    text = scheme_to_text(scheme)
    loaded = parse_scheme_text(text)
    assert loaded == scheme
    assert scheme_to_text(loaded) == text


TWO = "n 2\nsource 1 count a\nsource 2 count b\naggregation.op product\nfilter.kind long_term\n"
ONE = "n 1\nsource 1 count a\naggregation.op product\n"
NESTED = (
    "n 1\nsource 1 count a\naggregation.mode time_then_stakeholders\n"
    "aggregation.inner_op min\naggregation.outer_op sum\n"
)
RESTAURANT = "env restaurant\nn_friends 1\ntypes a b\nprefers 1 a\n"
DELIVERY = "env delivery_grid\ngrid 3 1\nstart 0 0\nrecipient 2 0\n"


@pytest.mark.parametrize(
    "parse,text,line",
    [
        (parse_scheme_text, TWO + "gamma 1 0.5\n", 6),
        (parse_scheme_text, TWO + "accumulation 1 discounted\n", 6),
        (parse_scheme_text, TWO + "accumulation 9 sum\n", 6),
        (parse_scheme_text, TWO + "accumulation 1 sum\naccumulation 1 mean\n", 7),
        (parse_scheme_text, ONE + "filter.kind periodic\nfilter.p x\n", 5),
        (parse_scheme_text, TWO + "filter.p 3\n", 6),
        (parse_scheme_text, NESTED + "aggregation.op product\nfilter.kind long_term\n", 6),
        (parse_scheme_text, ONE + "filter.kind periodic\nfilter.p 2\nfilter.atom a\n", 6),
        (parse_env_text, RESTAURANT + "prefers 1 b\n", 5),
        (parse_env_text, RESTAURANT + "n_friends 1\n", 5),
        (parse_env_text, RESTAURANT + "types a b\n", 5),
        (parse_env_text, DELIVERY + "grid 3 1\n", 5),
        (parse_markov_table_text, "default 0\nreward s a t 1\ndefault 1\n", 3),
        (parse_markov_table_text, "reward s a t 1\nreward s a t 2\n", 2),
        (parse_scheme_text, TWO + "accumulation 1 discounted\ngamma 1 1.5\n", 7),
        (parse_scheme_text, TWO + "accumulation 1 bogus\n", 6),
        (parse_scheme_text, ONE + "filter.kind periodic\nfilter.p 0\n", 5),
        (parse_scheme_text, ONE + "filter.kind event_count\nfilter.atom a\nfilter.k 0\n", 6),
        (parse_scheme_text, "n 1\nsource 1 count a\naggregation.op bogus\nfilter.kind anytime\n", 3),
        (parse_scheme_text, TWO + "empty_filter bogus\n", 6),
        (parse_env_text, "env restaurant\nn_friends 1\ntypes a b\nprefers 1 c\n", 4),
        (parse_env_text, DELIVERY + "recipient 5 0\n", 5),
        (parse_scheme_text, ONE + "aggregation.mode nested\nfilter.kind long_term\n", 4),
        (parse_scheme_text, NESTED.replace("inner_op min", "inner_op bogus"), 4),
        (parse_scheme_text, NESTED.replace("outer_op sum", "outer_op bogus"), 5),
        (parse_env_text, RESTAURANT.replace("types a b", "types a a"), 3),
        (parse_env_text, "env restaurant\nn_friends 0\ntypes a b\n", 2),
        (parse_env_text, DELIVERY + "recipient 2 0\n", 5),
        (parse_env_text, DELIVERY.replace("grid 3 1", "grid 0 1"), 2),
        (parse_env_text, DELIVERY.replace("start 0 0", "start 5 0"), 3),
        (parse_machine_text, 'alphabet a\nstate q init\nstate r\nstate q\n', 4),
        (parse_machine_text, 'alphabet a\nstate q init\ntrans q "!a" q 0\ntrans q "a" z 1\n', 4),
        (parse_machine_text, "state q init\nalphabet a a\n", 2),
        (parse_trajectory_text, "init s0\nstep go s1 a\nstep go s2 ,\n", 3),
        (parse_trajectory_text, "init s0\nstep go s1 A-B\n", 2),
        (parse_trajectory_text, "init s0\nstep go s1 -\nstep go s2 a,a\n", 3),
        (parse_scheme_text, "n 1\nsource 1 count A-B\naggregation.op sum\nfilter.kind anytime\n", 2),
        (parse_scheme_text, ONE + "filter.kind event_count\nfilter.atom Q!\nfilter.k 1\n", 5),
        (parse_scheme_text, "n 0\naggregation.op product\nfilter.kind long_term\n", 1),
        (parse_machine_text, "alphabet a\nstate q init\nstate 'q0\n", 3),
        (parse_machine_text, "version 1 2\nalphabet a\nstate q init\n", 1),
        (parse_machine_text, "alphabet a\nstate q init\nstate q0 bogus\n", 3),
        (parse_scheme_text, ONE.replace("aggregation.op product", "aggregation.mode bogus")
         + "aggregation.inner_op min\naggregation.inner_op min\nfilter.kind long_term\n", 3),
        (parse_machine_text, 'alphabet a\nstate q init\ntrans q "true" q 1_0\n', 3),
        (parse_markov_table_text, "default 0\nreward s a t ' 2'\n", 2),
        (parse_env_text, RESTAURANT.replace("n_friends 1", "n_friends \u0663"), 2),
    ],
    ids=[
        "gamma-on-sum", "discounted-without-gamma", "index-out-of-range",
        "accumulation-twice", "non-integer-period", "period-under-long-term",
        "op-beside-nested-mode", "atom-under-periodic", "prefers-twice",
        "n_friends-twice", "types-twice", "grid-twice", "default-twice",
        "duplicate-markov-entry",
        "gamma-above-one", "unknown-accumulation", "zero-period", "zero-event-count",
        "unknown-op", "unknown-empty-filter", "type-not-offered", "recipient-off-grid",
        "unknown-mode", "unknown-inner-op", "unknown-outer-op", "duplicate-types",
        "zero-friends", "shared-recipient-cell", "empty-grid", "start-off-grid",
        "repeated-state", "unknown-target-state", "repeated-atom",
        "empty-label-atom", "label-atom-not-a-name", "label-atom-twice",
        "counted-atom-not-a-name", "filter-atom-not-a-name", "no-stakeholders",
        "unbalanced-quote", "version-with-two-arguments", "state-with-a-bad-flag",
        "unknown-mode-before-a-repeated-op", "reward-with-underscore",
        "markov-reward-with-space", "friends-in-arabic-digits",
    ],
)
def test_reader_rejects_the_line(parse, text, line):
    """Each input breaks one directive rule or has one value a constructor
    refuses; the error names the file and the line."""
    with pytest.raises(FormatError, match=rf"^in\.txt:{line}: "):
        parse(text, "in.txt")


@pytest.mark.parametrize("line, usage", [
    ("filter.p 2 3", "filter.p P"),
    ("filter.atom a b", "filter.atom ATOM"),
    ("filter.k", "filter.k K"),
    ("aggregation.op product sum", "aggregation.op OP"),
    ("aggregation.inner_op", "aggregation.inner_op OP"),
    ("aggregation.outer_op min sum", "aggregation.outer_op OP"),
])
def test_a_wrong_argument_count_names_the_usage(line, usage):
    with pytest.raises(FormatError) as exc:
        parse_scheme_text(ONE + line + "\n", "in.txt")
    assert str(exc.value) == f"in.txt:4: expected `{usage}`"


class TestTrajectoryFormat:
    def test_bundled_sample(self, fixtures_dir):
        t = load_trajectory(fixtures_dir / "restaurant5_sample.traj")
        assert t.horizon == 12
        assert t.states[0] == "v0"
        assert "visit" in t.labels[0]

    def test_empty_label_dash(self):
        t = parse_trajectory_text("init s0\nstep go s1 -\n")
        assert t.labels == (frozenset(),)

    def test_missing_init(self):
        with pytest.raises(FormatError, match="init"):
            parse_trajectory_text("step go s1 -\n")

    def test_bad_step_line(self):
        with pytest.raises(FormatError):
            parse_trajectory_text("init s0\nstep go\n")


# Any text the reader keeps on one line: spaces, quotes, `#`, `\`,
# non-ASCII and the empty string among them.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # what str.splitlines splits at
names = st.one_of(
    st.sampled_from(("", " ", "it alian", "'", '"', "a'b", "#", "a#b", "\\", "café", "-")),
    st.text(st.characters(codec="utf-8", blacklist_characters=LINE_BREAKS), max_size=6),
)
label_sets = st.frozensets(st.sampled_from(("pasta", "cake", "wine")), max_size=3)


@given(st.lists(st.tuples(names, names, label_sets), max_size=6), names)
def test_trajectory_round_trip(steps, first_state):
    states = [first_state] + [s for _, s, _ in steps]
    traj = Trajectory(
        states=tuple(states),
        actions=tuple(a for a, _, _ in steps),
        labels=tuple(l for _, _, l in steps),
    )
    assert parse_trajectory_text(trajectory_to_text(traj)) == traj


def _looping_machine(states=("u0",)) -> RewardMachine:
    return RewardMachine(states=states, initial=states[0], alphabet=("a",),
                         transitions=tuple(Transition(s, ConstTrue(), s, 1.0) for s in states))


def _env_with_types(names, base):
    return RestaurantEnv(RestaurantConfig(1, tuple(names), tuple(names[:1]))), save_env, load_env


def _machine_with_states(names, base):
    return _looping_machine(tuple(names)), save_machine, load_machine


def _table_with_states(names, base):
    rewards = {(s, s, s): float(i) for i, s in enumerate(names)}
    return MarkovTableSource(rewards, default=0.5), save_markov_table, load_markov_table


def _scheme_with_paths(names, base):
    """A scheme whose machine stakeholders reference `NAME.rm`, next to it."""
    machine = _looping_machine()
    stakeholders = []
    for name in names:
        save_machine(machine, base / f"{name}.rm")
        stakeholders.append(StakeholderStatus(MachineSource(machine, path=f"{name}.rm")))
    scheme = Scheme(StatusFunction(tuple(stakeholders)), Aggregation("flattened", op="sum"),
                    LongTermFilter())
    return scheme, save_scheme, load_scheme


file_names = names.filter(lambda s: "/" not in s and "\0" not in s)


@pytest.mark.parametrize("build, strategy", [
    (_env_with_types, names),
    (_machine_with_states, names),
    (_table_with_states, names),
    (_scheme_with_paths, file_names),
], ids=["env-types", "machine-states", "table-states", "scheme-paths"])
@given(data=st.data())
def test_any_name_is_saved_and_read_back(build, strategy, data):
    """save -> load gives the object back, and save -> load -> save the
    same bytes, whatever the names hold."""
    items = data.draw(st.lists(strategy, min_size=1, max_size=4, unique=True))
    with tempfile.TemporaryDirectory() as tmp:
        obj, save, load = build(items, Path(tmp))
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        save(obj, first)
        loaded = load(first)
        save(loaded, second)
        assert getattr(loaded, "config", loaded) == getattr(obj, "config", obj)  # envs by config
        assert second.read_bytes() == first.read_bytes()


def test_a_token_with_a_line_break_cannot_be_written():
    traj = Trajectory(("s0", "s\n1"), ("go",), (frozenset(),))
    with pytest.raises(ValueError, match=r"line break cannot be written: 's\\n1'"):
        trajectory_to_text(traj)


@pytest.mark.parametrize("atom", ["a,b", "A-B", ""])
def test_a_label_atom_that_is_not_a_name_cannot_be_written(atom):
    traj = Trajectory(("s0", "s1"), ("go",), (frozenset({atom}),))
    with pytest.raises(ValueError, match=f"invalid proposition name '{atom}'"):
        trajectory_to_text(traj)


# Lines the reader splits without shlex: no quote, backslash, `#` or line
# break, with separators str.split() would use but shlex keeps drawn often.
plain_lines = st.text(st.one_of(
    st.sampled_from(" \t\xa0\u2003\x1fab"),
    st.characters(blacklist_characters="'\"\\#", blacklist_categories=("Cs",)),
)).filter(lambda raw: raw.splitlines() in ([], [raw]))


@settings(max_examples=500)
@given(plain_lines)
def test_a_plain_line_splits_as_shlex_splits_it(raw):
    assert _split_line(raw) == shlex.split(raw, comments=True)


# Lines the reader splits by its own pattern: quotes, `#` and backslashes
# between separators shlex does and does not split at.  Any character
# not drawn here reads as `a` does.
quoted_lines = st.text(st.sampled_from(" \t\xa0\u2003\x1f'\"#\\ab"))


def _refuse(*args, **kwargs):
    raise AssertionError("shlex.split was called")


@settings(max_examples=1000)
@given(quoted_lines)
def test_a_quoted_line_splits_as_shlex_splits_it(raw):
    """The same tokens as shlex, without calling it; or, on a line shlex
    refuses, the same ValueError."""
    try:
        expected = shlex.split(raw, comments=True)
    except ValueError as err:
        with pytest.raises(ValueError) as exc:
            _split_line(raw)
        assert str(exc.value) == str(err)
    else:
        with mock.patch.object(shlex, "split", _refuse):
            assert _split_line(raw) == expected


def _decision_tree_machine() -> RewardMachine:
    """Two states, each branching on every atom in turn: each guard is a
    conjunction of literals, written `((a & !b) & c)` and quoted."""
    atoms = ("a", "b", "c")
    transitions = []
    for state in ("q0", "q1"):
        for signs in itertools.product((True, False), repeat=len(atoms)):
            literals = [Atom(x) if positive else Not(Atom(x)) for x, positive in zip(atoms, signs)]
            guard = functools.reduce(And, literals)
            transitions.append(Transition(state, guard, "q1" if signs[0] else "q0", sum(signs)))
    return RewardMachine(("q0", "q1"), "q0", atoms, tuple(transitions))


def test_files_the_writer_writes_are_read_without_shlex(fixtures_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(shlex, "split", _refuse)
    for path in sorted(fixtures_dir.iterdir()):
        assert reserialize(path) == path.read_text(), path.name
    machine = _decision_tree_machine()
    save_machine(machine, tmp_path / "tree.rm")
    assert load_machine(tmp_path / "tree.rm") == machine


def test_a_machine_with_an_empty_alphabet_writes_a_bare_keyword():
    machine = RewardMachine(("u0",), "u0", (), (Transition("u0", ConstTrue(), "u0", 0.0),))
    assert "\nalphabet\n" in machine_to_text(machine)
    assert parse_machine_text(machine_to_text(machine)) == machine


class TestFormatReal:
    @pytest.mark.parametrize(
        "value,text",
        [
            (0.0, "0"),
            (-0.0, "-0"),
            (8.0, "8"),
            (-3.0, "-3"),
            (0.5, "0.5"),
            (1.5, "1.5"),
            (0.1, "0.1"),
            (1 / 3, "0.3333333333333333"),
        ],
    )
    def test_known_values(self, value, text):
        assert format_real(value) == text

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_always_parses_back_exactly(self, x):
        assert float(format_real(x)).hex() == x.hex()  # sign and bits: -0.0 != 0.0 here


class TestWriteResults:
    def test_files_and_contents(self, tmp_path, fixtures_dir):
        env = load_env(fixtures_dir / "restaurant3.env")
        scheme = load_scheme(fixtures_dir / "restaurant3_longterm_nash.scheme")
        result = optimize_exhaustive(env, scheme, horizon=3)
        write_results(result, scheme, tmp_path / "out")

        text = (tmp_path / "out" / "result.txt").read_text()
        assert "score 1\n" in text
        assert "method exhaustive\n" in text
        assert "wall" not in text  # timings would break byte-identical reruns

        csv_lines = (tmp_path / "out" / "statuses.csv").read_text().splitlines()
        assert csv_lines[0] == "t,u_1,u_2,u_3"
        assert len(csv_lines) == 2  # one filtered time under a final-only filter

        saved = load_trajectory(tmp_path / "out" / "best.traj")
        assert pluralism_score(scheme, saved) == result.score

    def test_status_rows_match_the_filter(self, tmp_path, fixtures_dir):
        env = load_env(fixtures_dir / "restaurant3.env")
        scheme = load_scheme(fixtures_dir / "restaurant3_mixed.scheme")
        traj = replay(env, ("italian", "sushi", "taco", "italian", "sushi", "taco"))
        from temporal_pluralism.serialize import write_status_csv

        write_status_csv(scheme, traj, tmp_path / "s.csv")
        rows = (tmp_path / "s.csv").read_text().splitlines()
        assert len(rows) - 1 == 2  # periodic(3) at horizon 6 selects t=3 and t=6
