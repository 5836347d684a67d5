"""Parser, printer, and evaluator tests, cross-checked against the
tree-walking oracle in ``oracles``."""

import os
import pickle
import subprocess
import sys
import tracemalloc

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relmarg.data import GlobalExample, GroundAtom
from relmarg.errors import CapExceededError, DomainError, FormulaSyntaxError, VocabularyError
from relmarg.logic import (
    And,
    Const,
    Eq,
    Exists,
    Forall,
    Not,
    Or,
    PredAtom,
    Predicate,
    Var,
    constants_of,
    evaluate,
    format_formula,
    free_vars,
    holds,
    parse_formula,
    quantifier_free,
    strip_foralls,
    unsatisfied_rules,
    vars_of,
    vocabulary_of,
)
from relmarg.stats import MODEL_B, _table_reads


# ---------------------------------------------------------------------------
# parsing

def test_parse_builds_expected_tree():
    f = parse_formula("forall X, Y: ~fr(X,Y) | sm(Y)")
    assert isinstance(f, Forall)
    assert f.vars == (Var("X"), Var("Y"))
    assert isinstance(f.body, Or)
    neg, pos = f.body.parts
    assert isinstance(neg, Not) and isinstance(neg.sub, PredAtom)
    assert pos == PredAtom(Predicate("sm", 1), (Var("Y"),))


def test_conjunction_binds_tighter_than_disjunction():
    f = parse_formula("r(a) | r(b) & r(c)")
    assert isinstance(f, Or)
    assert isinstance(f.parts[1], And)


def test_negation_binds_tightest():
    f = parse_formula("~r(a) & r(b)")
    assert isinstance(f, And)
    assert isinstance(f.parts[0], Not)


def test_implication_desugars_to_disjunction():
    f = parse_formula("r(a) -> r(b)")
    assert f == Or((Not(PredAtom(Predicate("r", 1), (Const("a"),))),
                    PredAtom(Predicate("r", 1), (Const("b"),))))
    assert format_formula(f) == "~r(a) | r(b)"


def test_inequality_desugars_and_resugars():
    f = parse_formula("a != b")
    assert f == Not(Eq(Const("a"), Const("b")))
    assert format_formula(f) == "a != b"


def test_quantifier_prefix_scopes_to_the_end():
    f = parse_formula("exists X: r(X) & s(X)")
    assert isinstance(f, Exists)
    assert isinstance(f.body, And)


def test_parentheses_override_precedence():
    f = parse_formula("(r(a) | r(b)) & r(c)")
    assert isinstance(f, And)
    assert isinstance(f.parts[0], Or)


def test_case_distinguishes_variables_from_constants():
    f = parse_formula("e(X, bob)")
    assert f.args == (Var("X"), Const("bob"))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("forall X r(X)", "expected ':'"),
        ("r(a", "expected ')'"),
        ("a = ", "expected a term"),
        ("!r(a)", "unexpected character '!'"),
        ("forall: r(X)", "expected a variable"),
        ("", "expected"),
        ("r(a) &", "expected"),
        ("forall x: r(x)", "expected a variable"),
    ],
)
def test_syntax_errors_carry_positions(text, fragment):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula(text)
    assert fragment in str(exc.value)
    assert exc.value.line == 1
    assert exc.value.col >= 1


def test_arity_conflict_is_rejected_at_parse_time():
    with pytest.raises(FormulaSyntaxError, match="arity"):
        parse_formula("r(a) & r(a,b)")


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("exists X: forall Y:\n  exists X: r(X,Y)", 2, 10),
        ("forall X, X: r(X)", 1, 11),
        ("forall X: (exists Y: r(Y)) & ~(exists X: r(X))", 1, 39),
    ],
)
def test_a_variable_bound_twice_is_reported_at_the_repeat(text, line, col):
    with pytest.raises(FormulaSyntaxError, match="variable X is bound twice") as exc:
        parse_formula(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_sibling_scopes_may_bind_the_same_variable():
    f = parse_formula("(exists X: r(X)) & (exists X: s(X)) & (forall X, Y: e(X,Y))")
    assert [g.vars for g in f.parts] == [(Var("X"),), (Var("X"),), (Var("X"), Var("Y"))]


def test_predicates_cannot_be_applied_to_nothing():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("r()")


# ---------------------------------------------------------------------------
# printing

@pytest.mark.parametrize(
    "text",
    [
        "r(a)",
        "a = b",
        "a != b",
        "~r(a)",
        "r(a) & r(b) & r(c)",
        "r(a) | r(b)",
        "a = b | r(a) & ~r(b)",
        "(r(a) | r(b)) & r(c)",
        "forall X, Y: ~fr(X,Y) | sm(X) | sm(Y)",
        "exists X: r(X) & ~(s(X) | t(X))",
        "forall X: exists Y: e(X,Y)",
    ],
)
def test_print_parse_fixpoint(text):
    f = parse_formula(text)
    printed = format_formula(f)
    assert parse_formula(printed) == f
    assert format_formula(parse_formula(printed)) == printed


# ---------------------------------------------------------------------------
# structure helpers

def test_variable_and_constant_collection():
    f = parse_formula("forall X: e(X, a) | (exists Y: e(Y, b))")
    assert vars_of(f) == frozenset({Var("X"), Var("Y")})
    assert constants_of(f) == frozenset({"a", "b"})
    assert free_vars(f) == frozenset()


def test_free_vars_of_open_formula():
    f = parse_formula("e(X, Y) & r(X)")
    assert free_vars(f) == frozenset({Var("X"), Var("Y")})
    assert not quantifier_free(parse_formula("forall X: r(X)"))
    assert quantifier_free(f)


def test_strip_foralls():
    vs, matrix = strip_foralls(parse_formula("forall X, Y: e(X,Y)"))
    assert vs == (Var("X"), Var("Y"))
    assert isinstance(matrix, PredAtom)


def test_vocabulary_of_merges_arities():
    f = parse_formula("forall X: r(X) | e(X, X)")
    assert vocabulary_of(f) == {"r": 1, "e": 2}


def test_apply_substitution_grounds_variables():
    f = parse_formula("e(X, Y)")
    grounded = oracles.apply_substitution(f, {Var("X"): Const("a"), Var("Y"): Const("b")})
    assert format_formula(grounded) == "e(a,b)"


# ---------------------------------------------------------------------------
# evaluation

FRIENDS = GlobalExample(
    ["alice", "bob", "eve"],
    [
        ("fr", ("alice", "bob")),
        ("fr", ("bob", "alice")),
        ("fr", ("bob", "eve")),
        ("fr", ("eve", "bob")),
        ("sm", ("alice",)),
    ],
)


@pytest.mark.parametrize(
    "text, want",
    [
        ("sm(alice)", True),
        ("sm(bob)", False),
        ("exists X: sm(X)", True),
        ("forall X: sm(X)", False),
        ("forall X, Y: ~fr(X,Y) | fr(Y,X)", True),
        ("exists X, Y: X != Y & fr(X,Y) & sm(X)", True),
        ("forall X: exists Y: fr(X,Y) & sm(Y)", False),
        ("forall X: exists Y: fr(X,Y) | X = Y", True),
        ("alice = alice", True),
        ("alice != alice", False),
    ],
)
def test_evaluate_on_fixed_structure(text, want):
    assert evaluate(parse_formula(text), FRIENDS) is want


def test_evaluate_requires_closed_formula():
    with pytest.raises(DomainError, match="closed"):
        evaluate(parse_formula("sm(X)"), FRIENDS)


def test_evaluate_rejects_unknown_constants():
    with pytest.raises(DomainError):
        evaluate(parse_formula("sm(zoe)"), FRIENDS)


def test_evaluate_rejects_arity_mismatch_with_structure():
    with pytest.raises(VocabularyError):
        evaluate(parse_formula("exists X, Y: sm(X,Y)"), FRIENDS)


def test_evaluate_over_the_table_cap_raises_before_allocating():
    # an e/2 table over 8,193 constants has 8,193^2 > 2^26 cells (64 MiB)
    example = GlobalExample([f"c{i}" for i in range(8193)], [("e", ("c0", "c1"))])
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            evaluate(parse_formula("exists X, Y: e(X,Y)"), example)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_holds_accepts_environment_for_free_variables():
    atoms = FRIENDS.atoms
    domain = FRIENDS.constants
    body = parse_formula("fr(X, Y)")
    assert holds(body, atoms, domain, env={"X": "alice", "Y": "bob"})
    assert not holds(body, atoms, domain, env={"X": "alice", "Y": "eve"})


def test_unsatisfied_rules_filters():
    rules = [parse_formula("exists X: sm(X)"), parse_formula("forall X: sm(X)")]
    bad = unsatisfied_rules(rules, FRIENDS)
    assert bad == [rules[1]]


# ---------------------------------------------------------------------------
# randomized cross-checks

R_E = (Predicate("r", 1), Predicate("e", 2))


def _vocab_atoms(terms, predicates=R_E):
    terms = st.sampled_from(terms)
    return st.one_of(
        *(st.builds(PredAtom, st.just(p), st.tuples(*[terms] * p.arity)) for p in predicates),
        st.builds(Eq, terms, terms),
    )


def _matrices(terms, predicates=R_E):
    return st.recursive(
        _vocab_atoms(terms, predicates),
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(lambda a, b: And((a, b)), sub, sub),
            st.builds(lambda a, b: Or((a, b)), sub, sub),
        ),
        max_leaves=8,
    )


@st.composite
def closed_formulas(
    draw, constants=("a", "b"), quantifiers=(Forall, Exists), prenex=False, predicates=R_E
):
    """A formula over ``predicates`` (r/1 and e/2 unless given), equality,
    the variables X and Y and ``constants``, with quantifiers from
    ``quantifiers``.  A quantifier-free matrix is closed by one quantifier
    over its free variables or by one quantifier per variable (``Q1 X: Q2
    Y: m``); unless ``prenex``, Y may instead be bound in an inner scope
    (``Q1 X: m1 | (Q2 Y: m2)``, or with ``&``)."""
    x, y = Var("X"), Var("Y")
    consts = [Const(c) for c in constants]
    quant = st.sampled_from(quantifiers)
    if not prenex and draw(st.booleans()):
        scope = draw(quant)((y,), draw(_matrices([x, y] + consts, predicates)))
        outer = draw(_matrices([x] + consts, predicates))
        joined = draw(st.sampled_from((And, Or)))((outer, scope))
        return draw(quant)((x,), joined) if free_vars(joined) else joined
    matrix = draw(_matrices([x, y] + consts, predicates))
    opened = sorted(free_vars(matrix), key=lambda v: v.name)
    if not opened:
        return matrix
    if len(opened) == 2 and draw(st.booleans()):
        return draw(quant)((opened[0],), draw(quant)((opened[1],), matrix))
    return draw(quant)(tuple(opened), matrix)


@st.composite
def structures(draw):
    domain = ("a", "b", "c")[: draw(st.integers(min_value=2, max_value=3))]
    atoms = []
    for c in domain:
        if draw(st.booleans()):
            atoms.append(("r", (c,)))
    for c1 in domain:
        for c2 in domain:
            if draw(st.booleans()):
                atoms.append(("e", (c1, c2)))
    return GlobalExample(domain, atoms)


@settings(max_examples=300, deadline=None)
@given(closed_formulas(), structures())
def test_evaluate_matches_ground_expansion_oracle(f, example):
    assert evaluate(f, example) is oracles.evaluate(f, example)


NAMES = ("a", "b", "c", "d")


@st.composite
def open_formulas(draw):
    """A formula over r/1, e/2, equality, the variables X and Y and the
    constants a and b, with each variable bound by a quantifier or free."""
    x, y = Var("X"), Var("Y")
    f = draw(_matrices([x, y, Const("a"), Const("b")]))
    for v in draw(st.lists(st.sampled_from([x, y]), unique=True)):
        f = draw(st.sampled_from((Forall, Exists)))((v,), f)
    return f


def _ground_atoms():
    # r/2, s/1 and t/3 atoms are of predicates no formula here uses at that arity
    names = st.sampled_from(NAMES)
    return st.one_of(
        st.builds(lambda p, a: GroundAtom(p, (a,)), st.sampled_from(("r", "s")), names),
        st.builds(lambda p, *a: GroundAtom(p, a), st.sampled_from(("e", "r")), names, names),
        st.builds(lambda *a: GroundAtom("t", a), names, names, names),
    )


@st.composite
def shadowing_formulas(draw):
    """``m1 op (Q V: m2)`` or ``(Q V: m2) op m1`` with matrices over X, Y, a
    and b: a variable that the inner quantifier binds may also be free in
    ``m1``, before or after the scope."""
    x, y = Var("X"), Var("Y")
    terms = [x, y, Const("a"), Const("b")]
    bound = draw(st.lists(st.sampled_from([x, y]), min_size=1, unique=True))
    scope = draw(st.sampled_from((Forall, Exists)))(tuple(bound), draw(_matrices(terms)))
    parts = draw(st.permutations([draw(_matrices(terms)), scope]))
    return draw(st.sampled_from((And, Or)))(tuple(parts))


@st.composite
def built_formulas(draw):
    """A formula built node by node, which the parser would refuse: r of
    arity 1 and 2 in one tree, a prefix that binds X twice, or a quantifier
    that binds nothing."""
    x, y = Var("X"), Var("Y")
    predicates = (Predicate("r", 1), Predicate("r", 2), Predicate("e", 2))
    matrix = draw(_matrices([x, y, Const("a")], predicates))
    return draw(st.sampled_from((
        matrix,
        Forall((x, y), matrix),
        Forall((x,), Forall((x, y), matrix)),
        Forall((x, y), Or((matrix, Exists((), matrix)))),
        Exists((x,), And((matrix, Forall((y,), matrix)))),
    )))


SIGNED = st.one_of(
    open_formulas(), closed_formulas(), closed_formulas(quantifiers=(Forall,), prenex=True),
    shadowing_formulas(), built_formulas(),
)


@settings(max_examples=300, deadline=None)
@given(SIGNED, st.booleans())
def test_signature_readers_equal_the_tree_walkers(f, pickled):
    # a kept signature is no field: a loaded formula builds its own
    if pickled:
        signed = f.signature
        f = pickle.loads(pickle.dumps(f))
        assert f.signature == signed
    assert vars_of(f) == oracles.vars_of(f)
    assert free_vars(f) == oracles.free_vars(f)
    assert constants_of(f) == oracles.constants_of(f)
    assert quantifier_free(f) is oracles.quantifier_free(f)
    try:
        want = oracles.vocabulary_of(f)
    except VocabularyError as clash:
        with pytest.raises(VocabularyError) as got:
            vocabulary_of(f)
        assert str(got.value) == str(clash)
    else:
        assert list(vocabulary_of(f).items()) == list(want.items())
    vs, matrix = strip_foralls(f)
    for k in range(1, 5):
        assert _table_reads(f, k) == oracles.table_reads(f, k)
        if oracles.quantifier_free(matrix):
            # a Model B grounding binds the prefix, so its matrix is read once
            assert _table_reads(f, k, len(vs)) == oracles.table_reads(matrix, k)


@settings(max_examples=300, deadline=None)
@given(SIGNED)
def test_model_b_binds_what_the_tree_walkers_admit(f):
    vs, matrix = strip_foralls(f)
    if not vs or not oracles.quantifier_free(matrix) or oracles.vars_of(matrix) - set(vs):
        with pytest.raises(DomainError, match="quantifier-free matrix"):
            MODEL_B.bind(f)
    elif len(set(vs)) < len(vs):
        with pytest.raises(DomainError, match="binds each variable once"):
            MODEL_B.bind(f)
    else:
        assert MODEL_B.bind(f) == (len(vs), vs, matrix)


def test_holds_restores_a_binding_that_a_quantifier_shadows():
    f = parse_formula("(forall X: r(X)) | r(X)")
    atoms = {GroundAtom("r", ("a",))}
    for name, want in (("a", True), ("b", False)):
        assert holds(f, atoms, ["a", "b"], {"X": name}) is want
        assert oracles.holds(f, atoms, ["a", "b"], {"X": name}) is want


@settings(max_examples=200, deadline=None)
@given(st.one_of(open_formulas(), closed_formulas(), shadowing_formulas()), st.data())
def test_holds_matches_the_tree_walker(f, data):
    # the domain may leave out constants of the atoms, of f and of env
    atoms = frozenset(data.draw(st.sets(_ground_atoms(), max_size=12)))
    domain = data.draw(st.lists(st.sampled_from(NAMES), unique=True))
    env = {v.name: data.draw(st.sampled_from(NAMES)) for v in sorted(free_vars(f), key=str)}
    assert holds(f, atoms, domain, env) is oracles.holds(f, atoms, domain, env)


@settings(max_examples=200, deadline=None)
@given(st.one_of(open_formulas(), closed_formulas(), shadowing_formulas()))
def test_formulas_keep_their_hash_through_pickle_and_text(f):
    # a node keeps the hash of its fields, which equal trees share; the
    # kept hash is no field, so equality and repr see only the tree
    again = pickle.loads(pickle.dumps(f))
    assert again == f and hash(again) == hash(f) and repr(again) == repr(f)
    parsed = parse_formula(format_formula(f))
    reparsed = parse_formula(format_formula(parsed))
    assert reparsed == parsed and hash(reparsed) == hash(parsed)
    assert "_hash" not in repr(f)


def test_a_formula_pickled_under_another_hash_seed_hashes_again():
    # string hashes differ between processes, so a loaded node hashes anew
    text = "forall X, Y: ~e(X,Y) | (r(X) & X != Y) | (exists Z: e(Y,Z))"
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    code = (
        "import pickle, sys; from relmarg.logic import parse_formula; "
        f"sys.stdout.buffer.write(pickle.dumps(parse_formula({text!r})))"
    )
    sent = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONHASHSEED": seed},
        capture_output=True, check=True,
    ).stdout
    loaded, here = pickle.loads(sent), parse_formula(text)
    assert loaded == here and hash(loaded) == hash(here)
    assert {loaded: 1}[here] == 1


@settings(max_examples=300, deadline=None)
@given(closed_formulas())
def test_printed_form_reparses_to_the_same_tree(f):
    printed = format_formula(f)
    assert format_formula(parse_formula(printed)) == printed
