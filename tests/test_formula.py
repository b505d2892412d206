import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from temporal_pluralism.formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    MAX_GUARD_DEPTH,
    FormulaSyntaxError,
    Not,
    Or,
    UnknownAtomError,
    all_valuations,
    check_alphabet,
    eval_formula,
    format_valuation,
    formula_atoms,
    parse_formula,
    print_formula,
)

ALPHA = ("pasta", "cake", "wine")


def parse(text):
    return parse_formula(text, ALPHA)


class TestParsing:
    def test_single_atom(self):
        assert parse("pasta") == Atom("pasta")

    def test_constants(self):
        assert parse("true") is TRUE
        assert parse("false") is FALSE

    def test_top_glyph_is_true(self):
        assert parse("⊤") is TRUE

    def test_not_binds_tighter_than_and(self):
        assert parse("!pasta & cake") == And(Not(Atom("pasta")), Atom("cake"))

    def test_and_binds_tighter_than_or(self):
        assert parse("pasta | cake & wine") == Or(
            Atom("pasta"), And(Atom("cake"), Atom("wine"))
        )

    def test_binary_operators_left_associative(self):
        assert parse("pasta & cake & wine") == And(
            And(Atom("pasta"), Atom("cake")), Atom("wine")
        )
        assert parse("pasta | cake | wine") == Or(
            Or(Atom("pasta"), Atom("cake")), Atom("wine")
        )

    def test_parentheses_override_precedence(self):
        assert parse("(pasta | cake) & wine") == And(
            Or(Atom("pasta"), Atom("cake")), Atom("wine")
        )

    def test_double_negation_kept_structurally(self):
        assert parse("!!pasta") == Not(Not(Atom("pasta")))

    def test_whitespace_is_free(self):
        assert parse("  pasta&!cake ") == parse("pasta & ! cake")

    def test_unknown_atom_reports_name_and_position(self):
        with pytest.raises(UnknownAtomError) as exc:
            parse("pasta & sushi")
        assert exc.value.name == "sushi"
        assert exc.value.position == 8

    def test_unclosed_paren(self):
        with pytest.raises(FormulaSyntaxError):
            parse("(pasta & cake")

    def test_trailing_junk(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("pasta )")
        assert exc.value.position == 6

    def test_empty_input(self):
        with pytest.raises(FormulaSyntaxError):
            parse("")

    def test_dangling_operator(self):
        with pytest.raises(FormulaSyntaxError):
            parse("pasta &")


# Guard shapes n levels deep, each counted differently by the bound.
DEEP = {
    "negations": lambda n: "!" * n + "pasta",
    "and-chain": lambda n: " & ".join(["pasta"] * (n + 1)),
    "or-chain": lambda n: " | ".join(["pasta"] * (n + 1)),
    "parentheses": lambda n: "(" * n + "pasta" + ")" * n,
    "negated-chain": lambda n: "!(" + " & ".join(["pasta"] * n) + ")",
    "nested-right": lambda n: "pasta | (" * n + "pasta" + ")" * n,
}


@pytest.mark.parametrize("shape", DEEP.values(), ids=DEEP.keys())
def test_a_guard_nests_up_to_the_bound(shape):
    f = parse(shape(MAX_GUARD_DEPTH))
    assert parse(print_formula(f)) == f
    for val in all_valuations(ALPHA):
        assert eval_formula(f, val) is truth(f, val)
    with pytest.raises(FormulaSyntaxError, match=f"^nested deeper than {MAX_GUARD_DEPTH} levels"):
        parse(shape(MAX_GUARD_DEPTH + 1))


class TestEval:
    @pytest.mark.parametrize(
        "text,valuation,expected",
        [
            ("pasta", {"pasta"}, True),
            ("pasta", set(), False),
            ("!pasta", set(), True),
            ("pasta & cake", {"pasta", "cake"}, True),
            ("pasta & cake", {"pasta"}, False),
            ("pasta | cake", {"cake"}, True),
            ("pasta & !cake", {"pasta", "cake"}, False),
            ("true", set(), True),
            ("false", {"pasta"}, False),
        ],
    )
    def test_truth_table_spots(self, text, valuation, expected):
        assert eval_formula(parse(text), frozenset(valuation)) is expected


formulas = st.deferred(
    lambda: st.one_of(
        st.sampled_from([Atom(a) for a in ALPHA]),
        st.just(TRUE),
        st.just(FALSE),
        st.builds(Not, formulas),
        st.builds(And, formulas, formulas),
        st.builds(Or, formulas, formulas),
    )
)

valuations = st.frozensets(st.sampled_from(ALPHA))


@given(formulas)
def test_print_then_parse_is_identity(f):
    assert parse_formula(print_formula(f), ALPHA) == f


@given(formulas, valuations)
def test_printed_form_evaluates_the_same(f, val):
    assert eval_formula(parse(print_formula(f)), val) == eval_formula(f, val)


@given(formulas, valuations)
def test_eval_ignores_atoms_outside_the_formula(f, val):
    assert eval_formula(f, val) == eval_formula(f, val & formula_atoms(f))


def truth(f, valuation) -> bool:
    """The textbook semantics, by recursion over the tree: the judge of
    the compiled tests eval_formula runs."""
    if isinstance(f, Atom):
        return f.name in valuation
    if isinstance(f, Not):
        return not truth(f.operand, valuation)
    if isinstance(f, And):
        return truth(f.left, valuation) and truth(f.right, valuation)
    if isinstance(f, Or):
        return truth(f.left, valuation) or truth(f.right, valuation)
    return f == TRUE


@given(formulas, valuations, st.booleans())
def test_eval_is_the_textbook_semantics(f, val, as_set):
    valuation = set(val) if as_set else val
    assert eval_formula(f, valuation) is truth(f, val)
    assert eval_formula(f, valuation) is truth(f, val)  # from the cached test


@given(formulas, valuations)
def test_an_evaluated_formula_pickles_and_evaluates_alike(f, val):
    expected = eval_formula(f, val)
    copy = pickle.loads(pickle.dumps(f))
    assert copy == f
    assert eval_formula(copy, val) is expected


@pytest.mark.parametrize("f", [None, "pasta", Not("pasta"), And(Atom("pasta"), 1)],
                         ids=["none", "string", "under-not", "under-and"])
def test_a_non_formula_is_a_type_error(f):
    with pytest.raises(TypeError, match="^not a formula: "):
        eval_formula(f, frozenset({"pasta"}))


@given(formulas)
def test_formula_atoms_within_alphabet(f):
    assert formula_atoms(f) <= set(ALPHA)


def test_all_valuations_enumerates_the_powerset():
    vals = list(all_valuations(ALPHA))
    assert len(vals) == 8
    assert len(set(vals)) == 8
    assert vals[0] == frozenset()
    assert vals[-1] == frozenset(ALPHA)


def test_all_valuations_empty_alphabet():
    assert list(all_valuations(())) == [frozenset()]


def test_format_valuation_sorts():
    assert format_valuation(frozenset({"wine", "cake"})) == "{cake,wine}"
    assert format_valuation(frozenset()) == "{}"


class TestCheckAlphabet:
    def test_accepts_good_names(self):
        assert check_alphabet(["a", "served_1", "x9"]) == ("a", "served_1", "x9")

    @pytest.mark.parametrize("bad", ["Pasta", "1x", "", "a-b", "A"])
    def test_rejects_bad_names(self, bad):
        with pytest.raises(ValueError):
            check_alphabet([bad])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            check_alphabet(["a", "b", "a"])
