"""Fragment and substitution statistics against independent counting oracles."""

import dataclasses
import gc
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_logic import _matrices, closed_formulas, shadowing_formulas
from test_structures import local_of

from relmarg import expansion, logic, stats
from relmarg.data import ISO_WIDTH_CAP, GlobalExample, GroundAtom, LocalExample, fragment
from relmarg.errors import CapExceededError, DomainError, FormulaSyntaxError
from relmarg.estimation import ExperimentConfig, random_structure, run_error_experiment
from relmarg.expansion import expand, expanded_statistic, representative_tables, residue_groundings
from relmarg.logic import (
    Forall,
    Or,
    PredAtom,
    Predicate,
    Var,
    free_vars,
    parse_formula,
    strip_foralls,
    vars_of,
)
from relmarg.maxent import ExplicitDistribution, shrink_distribution
from relmarg.stats import (
    MODEL_B,
    MarginalConstraint,
    ModelA,
    marginal_distribution_a,
    parse_constraints,
    parse_theta,
    statistic,
)
from relmarg.worlds import enumerate_worlds, world_tables

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

ALPHA = parse_formula("forall X, Y: ~fr(X,Y) | sm(Y)")
BETA = parse_formula("forall X, Y: ~fr(X,Y) | sm(X) | sm(Y)")


def brute_subset_stat(f, example, k):
    """Oracle: evaluate the formula on every size-k fragment directly."""
    subsets = list(itertools.combinations(example.constants, k))
    hits = sum(oracles.evaluate(f, fragment(example, s)) for s in subsets)
    return Fraction(hits, len(subsets))


def brute_substitution_stat(f, example):
    """Oracle: ground the matrix over every injective variable assignment and
    evaluate on the full structure."""
    vs, matrix = strip_foralls(f)
    names = [v.name for v in vs]
    total = 0
    hits = 0
    for combo in itertools.permutations(example.constants, len(names)):
        total += 1
        env = dict(zip(names, combo))
        if _ground_true(matrix, example, env):
            hits += 1
    return Fraction(hits, total)


def _ground_true(f, example, env):
    kind = f.__class__.__name__
    if kind == "Not":
        return not _ground_true(f.sub, example, env)
    if kind == "And":
        return all(_ground_true(p, example, env) for p in f.parts)
    if kind == "Or":
        return any(_ground_true(p, example, env) for p in f.parts)
    if kind == "Eq":
        resolve = lambda t: env.get(t.name, t.name)
        return resolve(f.left) == resolve(f.right)
    names = tuple(env.get(t.name, t.name) for t in f.args)
    return any(a.pred == f.pred.name and a.args == names for a in example.atoms)


# ---------------------------------------------------------------------------
# frozen worked values

def test_subset_statistics_match_frozen_values():
    assert statistic(ALPHA, FRIENDS, ModelA(2)) == Fraction(1, 3)
    assert statistic(BETA, FRIENDS, ModelA(2)) == Fraction(2, 3)


def test_substitution_statistics_match_frozen_values():
    assert statistic(ALPHA, FRIENDS, MODEL_B) == Fraction(1, 2)
    assert statistic(BETA, FRIENDS, MODEL_B) == Fraction(2, 3)


def test_statistic_dispatches_on_kind():
    assert statistic(ALPHA, FRIENDS, ModelA(2)) == Fraction(1, 3)
    assert statistic(ALPHA, FRIENDS, MODEL_B) == Fraction(1, 2)


def test_full_width_subset_stat_is_plain_evaluation():
    for f in (ALPHA, BETA):
        assert statistic(f, FRIENDS, ModelA(3)) == Fraction(int(oracles.evaluate(f, FRIENDS)))


def test_width_one_substitution_counts_satisfied_singletons():
    f = parse_formula("forall X: sm(X)")
    assert statistic(f, FRIENDS, MODEL_B) == Fraction(1, 3)


# ---------------------------------------------------------------------------
# model preconditions

def test_subset_width_must_fit_domain():
    with pytest.raises(DomainError):
        statistic(ALPHA, FRIENDS, ModelA(4))
    with pytest.raises(DomainError):
        statistic(ALPHA, FRIENDS, ModelA(0))


def test_substitution_requires_universal_formula():
    with pytest.raises(DomainError):
        statistic(parse_formula("exists X: sm(X)"), FRIENDS, MODEL_B)
    with pytest.raises(DomainError):
        statistic(parse_formula("forall X: exists Y: fr(X,Y)"), FRIENDS, MODEL_B)


def test_formulas_must_be_closed_and_constant_free():
    with pytest.raises(DomainError):
        statistic(parse_formula("sm(X)"), FRIENDS, ModelA(1))
    with pytest.raises(DomainError):
        statistic(parse_formula("exists X: fr(X, alice)"), FRIENDS, ModelA(2))


def test_model_a_width_validation():
    with pytest.raises(DomainError):
        ModelA(0)


def test_substitution_needs_a_constant_per_variable():
    # three prefix variables have no injective substitution into two constants
    f = parse_formula("forall X, Y, Z: ~e(X,Y) | e(Y,Z)")
    two = GlobalExample(["a", "b"], [("e", ("a", "b"))])
    message = "formula has 3 variables but the domain has 2 constants"
    with pytest.raises(DomainError, match=message):
        statistic(f, two, MODEL_B)
    with pytest.raises(DomainError, match=message):
        enumerate_worlds(["a", "b"], {"e": 2}).count_matrix([f], MODEL_B)


def test_substitution_rejects_a_variable_bound_twice_in_the_prefix():
    # the parser refuses this formula, so it is built from the syntax tree;
    # with X bound twice, the prefix length (2) and the variable count (1)
    # would disagree on what a grounding is
    ex = random_structure(6, {"r": 1}, 0.5, random.Random(1))
    f = Forall((Var("X"),), Forall((Var("X"),), PredAtom(Predicate("r", 1), (Var("X"),))))
    calls = [
        lambda: statistic(f, ex, MODEL_B),
        lambda: expanded_statistic(f, ex, MODEL_B, 2),
        lambda: enumerate_worlds(["a", "b"], {"r": 1}).count_matrix([f], MODEL_B),
        lambda: ExperimentConfig(ex, 3, 6, (f,), MODEL_B, trials=4, seed=1),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="binds each variable once"):
            call()


def test_checked_formula_records_what_a_grounding_is():
    f = parse_formula("forall X, Y: e(X,Y) | r(Y)")
    # Model A binds nothing and decides the whole formula on each subset
    (a,) = stats.check_formulas([f], {"r": 1, "e": 2}, ModelA(2))
    assert (a.width, a.bound, a.body, a.vocabulary) == (2, (), f, {"e": 2, "r": 1})
    assert a.count(4) == 6 and a.rows(3).tolist() == [[0, 1], [0, 2], [1, 2]]
    # Model B binds the prefix and decides the matrix on each substitution
    (b,) = stats.check_formulas([f], {}, MODEL_B)
    assert (b.width, [v.name for v in b.bound]) == (2, ["X", "Y"])
    assert b.body == parse_formula("e(X,Y) | r(Y)")
    assert b.count(3) == 6 and b.rows(2).tolist() == [[0, 1], [1, 0]]
    assert a.formula is f and b.formula is f


def test_checking_and_counting_again_walk_each_formula_once(monkeypatch):
    # each formula keeps the signature of its first walk; no reader walks a
    # subformula, so every walk is of one of the formulas given, and a cold
    # pattern-table cache makes each statistic weigh its table reads
    walks = []
    build = logic._signature
    monkeypatch.setattr(logic, "_signature", lambda f: walks.append(f) or build(f))
    stats._pattern_table.cache_clear()
    example = GlobalExample(["a", "b", "c"], [("r", ("a",)), ("e", ("a", "b"))])
    cases = (
        (ModelA(2), ("exists X, Y: X != Y & e(X,Y)", "forall X: r(X) | (exists Y: e(X,Y))")),
        (MODEL_B, ("forall X, Y: ~e(X,Y) | r(X)", "forall X: r(X)")),
    )
    given = []
    for kind, texts in cases:
        formulas = [parse_formula(text) for text in texts]
        given += formulas
        for _ in range(3):
            space = enumerate_worlds(["a", "b", "c"], {"r": 1, "e": 2})
            stats.check_formulas(formulas, space.vocabulary, kind, 3)
            space.normalizers(formulas, kind)
            space.count_matrix(formulas, kind)
            for f in formulas:
                statistic(f, example, kind)
    assert list(map(id, walks)) == list(map(id, given))


# ---------------------------------------------------------------------------
# Model A groundings read off pattern tables

# q/0 and s/1 join r/1 and e/2, and s never gets a table
Q_R_E_S = (Predicate("q", 0), Predicate("r", 1), Predicate("e", 2), Predicate("s", 1))
TABLED = {"q": 0, "r": 1, "e": 2}


@st.composite
def grounding_cases(draw, width=None):
    """A width k, the truth tables of the predicates of TABLED in S
    structures, S and grounding rows into them: Model A subsets of a width k
    drawn here or, given ``width``, injective Model B substitutions of that
    width (1-3).  One structure on 1-5 constants and its groundings; none,
    some or all of the 128 worlds on 2 constants (as hard rules leave them)
    and their groundings; or the expansions of 1-3 samples and their residue
    rows into ``representative_tables``."""
    kind = None if width is None else MODEL_B
    orders = itertools.combinations if kind is None else itertools.permutations
    least = width or 1  # constants that a grounding needs
    sources = ["structure", "expansions"] + ["worlds"] * (least <= 2)
    source = draw(st.sampled_from(sources))
    if source == "worlds":
        worlds = enumerate_worlds(("a", "b"), TABLED).worlds[: draw(st.sampled_from([0, 5, 128]))]
        k = width or draw(st.integers(1, 2))
        tables = world_tables(worlds, stats.pattern_layout(TABLED, 2), TABLED)
        return k, tables, len(worlds), np.array(list(orders(range(2), k)))
    rng = random.Random(draw(st.integers(0, 10_000)))
    n = draw(st.integers(least, 5))
    base = stats.structure_tables(random_structure(n, TABLED, 0.5, rng), TABLED)
    if source == "structure":
        k = width or draw(st.integers(1, n))
        return k, base, 1, np.array(list(orders(range(n), k)))
    m = draw(st.integers(1, n))
    level = draw(st.integers(-(-least // m), 3))
    k = width or draw(st.integers(1, min(4, m * level)))
    positions = np.array([rng.sample(range(n), m) for _ in range(draw(st.integers(1, 3)))])
    rows, _, _ = residue_groundings(kind or ModelA(k), k, m, level)
    return k, representative_tables(base, positions, min(level, k)), len(positions), rows


@st.composite
def b_formulas(draw):
    """A Model B formula over Q_R_E_S, or over its predicates of arity 0 and
    1 alone, whose few local atoms get more tables: a quantifier-free matrix
    over one to three of X, Y, Z and equality under a universal prefix that
    binds its variables, and perhaps more, in any order."""
    xyz = [Var(v) for v in "XYZ"]
    predicates = draw(st.sampled_from([Q_R_E_S, tuple(p for p in Q_R_E_S if p.arity < 2)]))
    matrix = draw(_matrices(xyz[:draw(st.integers(1, 3))], predicates))
    bound = [v for v in xyz if v in vars_of(matrix) or draw(st.booleans())] or xyz[:1]
    return Forall(tuple(draw(st.permutations(bound))), matrix)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_grounding_truths_equal_the_assignment_loop(data):
    # Model A formulas with nested quantifiers and Model B matrices under
    # any prefix order, with equality, predicates of arity 0-2 and one
    # without a table, on either side of the pattern-table rule, in blocks
    # of one cell, of a few cells and of the default
    if data.draw(st.booleans(), label="Model B"):
        (checked,) = stats.check_formulas((data.draw(b_formulas()),), TABLED, MODEL_B)
        _, tables, structures, rows = data.draw(grounding_cases(checked.width))
    else:
        f = data.draw(closed_formulas((), predicates=Q_R_E_S))
        k, tables, structures, rows = data.draw(grounding_cases())
        (checked,) = stats.check_formulas((f,), TABLED, ModelA(k))
    columns = list(rows.T)
    env = {v.name: c for v, c in zip(checked.bound, columns)}
    want = oracles.holds_over(checked.body, tables, (len(rows), structures), columns, env)
    table = stats._pattern_table(checked)
    # per grounding and structure: the local atoms of a key, or the work
    # over the quantifier axes
    if table is None:
        cells = stats._axis_cells(checked.formula, checked.width, len(checked.bound))
    else:
        cells = len(table.layout.place)
    for block_cells in (1, 7, 1 << 20):
        with mock.patch.object(stats, "BLOCK_CELLS", block_cells):
            blocks = list(stats.grounding_truths(checked, rows, tables, structures))
        assert all(b.dtype == bool and b.shape[1:] == (structures,) for b in blocks)
        assert all(len(b) == 1 or len(b) * structures * cells <= block_cells for b in blocks)
        assert np.array_equal(np.concatenate(blocks), want)


@settings(max_examples=300, deadline=None)
@given(st.one_of(closed_formulas(), shadowing_formulas()), st.data())
def test_axis_evaluation_matches_the_tree_walker(f, data):
    # quantifiers nested and under connectives range over one k-subset per
    # row (a (k, G) domain) or one for every row ((k, 1)), k = 0 the empty
    # domain; free variables are bound per row and the constants a and b
    # by name, in S structures on n constants, r or e perhaps without a
    # table, in slices of one cell, of a few cells and of the default
    n = data.draw(st.integers(2, 4))
    rows, structures = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    names = ("a", "b", "c", "d")[:n]
    vocabulary = data.draw(st.sampled_from([{"r": 1, "e": 2}, {"r": 1}, {"e": 2}]))
    tables = {}
    for p, arity in vocabulary.items():
        shape = (n,) * arity + (structures,)
        size = math.prod(shape)
        bits = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        tables[p] = np.array(bits).reshape(shape)
    atoms = [
        {GroundAtom(p, tuple(names[i] for i in at[:-1])) for p, t in tables.items()
         for at in np.argwhere(t).tolist() if at[-1] == s}
        for s in range(structures)
    ]
    k = data.draw(st.integers(0, n))
    columns = rows if data.draw(st.booleans()) else 1
    subsets = [data.draw(st.permutations(range(n)))[:k] for _ in range(columns)]
    domain = np.array(subsets, dtype=np.intp).reshape(columns, k).T
    free = {v.name: data.draw(st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows))
            for v in free_vars(f)}
    want = [
        [oracles.holds(f, atoms[s], [names[i] for i in domain[:, min(g, columns - 1)]],
                       {v: names[at[g]] for v, at in free.items()})
         for s in range(structures)]
        for g in range(rows)
    ]
    env = {**{c: np.array([i]) for i, c in enumerate(names)},
           **{v: np.array(at) for v, at in free.items()}}
    cells = stats._axis_cells(f, k)
    for block_cells in (1, 7, stats.BLOCK_CELLS):
        with mock.patch.object(stats, "BLOCK_CELLS", block_cells):
            got = stats.holds_over(f, tables, (rows, structures), domain, env, cells)
        assert got.dtype == bool and got.tolist() == want


def test_a_quantifier_over_an_empty_domain_has_no_assignment():
    # the bodies read no axis of X, so only the size of the domain tells
    # that exists finds no witness and forall no counterexample
    for text, want in (("exists X: ~e(Y,Y)", False), ("forall X: e(Y,Y)", True)):
        assert logic.holds(parse_formula(text), frozenset(), [], {"Y": "a"}) is want


@pytest.mark.parametrize(
    "text, k, tabled",
    [
        ("exists X: r(X)", 1, False),  # 1 local atom, 1 read
        ("forall X: r(X) | e(X,X)", 1, False),  # 2 local atoms, 2 reads
        ("exists X, Y: e(X,Y)", 2, False),  # 4 local atoms, 4 reads
        ("forall X, Y: ~e(X,Y) | e(Y,X)", 2, True),  # 4 local atoms, 8 reads
        ("exists X, Y: r(X) & e(X,Y)", 2, True),  # 6 local atoms, 8 reads
        ("exists X: r(X) & (forall Y: e(X,Y))", 3, False),  # 12 local atoms, 3 * (1 + 3) reads
        ("exists X: r(X) & (forall Y: e(X,Y) | e(Y,X))", 3, True),  # 12, 3 * (1 + 3 * 2)
        ("exists X, Y: X != Y", 2, False),  # no local atom
    ],
)
def test_pattern_table_is_read_when_the_loop_reads_more(text, k, tabled):
    (checked,) = stats.check_formulas((parse_formula(text),), {}, ModelA(k))
    assert (stats._pattern_table(checked) is not None) is tabled


def test_model_b_keeps_the_assignment_loop():
    # a Model B matrix is held to the rule of Model A formulas: with at
    # least as many local atoms as its evaluation reads atoms, it is
    # evaluated at every grounding
    for text in (
        "forall X, Y: ~e(X,Y) | e(Y,X)",  # 4 local atoms, 2 reads
        "forall X, Y, Z: ~e(X,Y) | ~e(Y,Z) | e(X,Z)",  # 9 local atoms, 3 reads
    ):
        (checked,) = stats.check_formulas((parse_formula(text),), {}, MODEL_B)
        assert stats._pattern_table(checked) is None


@pytest.mark.parametrize(
    "text",
    [
        "forall X: (r(X) | s(X)) & (~r(X) | ~s(X))",  # 2 local atoms, 4 reads
        "forall Y, X: r(X) & (~r(X) | ~r(Y) | X = Y)",  # 2 local atoms, 3 reads
    ],
)
def test_model_b_matrices_read_a_pattern_table_when_the_loop_reads_more(text):
    # the prefix, in its own order, binds the positions 0..v-1: the table
    # decides each substitution as the per-substitution oracle does
    (checked,) = stats.check_formulas((parse_formula(text),), {}, MODEL_B)
    assert stats._pattern_table(checked) is not None
    example = random_structure(5, checked.vocabulary, 0.5, random.Random(2))
    tables = stats.structure_tables(example, checked.vocabulary)
    rows = checked.rows(5)
    got = np.concatenate(list(stats.grounding_truths(checked, rows, tables, 1)))[:, 0]
    names = [v.name for v in checked.bound]
    want = [
        oracles.holds(checked.body, example.atoms, example.constants,
                      {v: example.constants[i] for v, i in zip(names, row)})
        for row in rows.tolist()
    ]
    assert got.tolist() == want and any(want) and not all(want)


def test_pattern_tables_stop_past_twelve_local_atoms():
    # {e/2, r/1} at width 3 has 12 local atoms; with q/0, 13, one past
    # CLASS_TABLE_ATOMS: the second formula is evaluated at every grounding,
    # and both count what the assignment loop of the oracle counts.  The
    # parser has no arity-0 atom, so the second formula is built from the
    # syntax tree.
    at12 = parse_formula("forall X, Y: ~r(X) | ~e(X,Y)")
    at13 = Forall(at12.vars, Or(at12.body.parts + (PredAtom(Predicate("q", 0), ()),)))
    example = random_structure(7, TABLED, 0.4, random.Random(8))
    rows = np.array(list(itertools.combinations(range(7), 3)))
    for f, atoms, tabled in ((at12, 12, True), (at13, 13, False)):
        (checked,) = stats.check_formulas((f,), TABLED, ModelA(3))
        assert len(stats.local_atoms(checked.vocabulary, 3)) == atoms
        table = stats._pattern_table(checked)
        assert (table is not None) is tabled
        tables = stats.structure_tables(example, checked.vocabulary)
        want = oracles.holds_over(f, tables, (len(rows), 1), list(rows.T), {})
        blocks = list(stats.grounding_truths(checked, rows, tables, 1))
        assert np.array_equal(np.concatenate(blocks), want)
    # the cached truths are shared by every call, so none may write them
    (checked,) = stats.check_formulas((at12,), TABLED, ModelA(3))
    truth = stats._pattern_table(checked).truth
    assert truth.shape == (4096,) and not truth.flags.writeable
    with pytest.raises(ValueError):
        truth[0] = not truth[0]


def test_pattern_table_at_the_limit_holds_what_its_comment_states():
    # 12 local atoms, 4,096 truths, the most a table holds; the comment
    # beside PATTERN_TABLES states 8 KiB a table beside its layout, which
    # the layout cache holds and every table of the vocabulary and width
    # shares, so the layout is built before the measurement
    f = parse_formula("forall X, Y: ~r(X) | ~e(X,Y)")
    (checked,) = stats.check_formulas((f,), {}, ModelA(3))
    layout = stats.pattern_layout({"r": 1, "e": 2}, 3)
    stats._pattern_table.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = stats._pattern_table(checked)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(table.truth) == 4096 and 0 < held <= 8 * 1024
    assert table.layout is layout
    assert stats._pattern_table.cache_info().maxsize == stats.PATTERN_TABLES


def test_pattern_layout_is_one_read_only_object_per_vocabulary_and_width():
    # any key order names the same layout, which world spaces, class tables
    # and pattern tables of that vocabulary and width all hold
    layout = stats.pattern_layout({"r": 1, "e": 2}, 3)
    assert stats.pattern_layout({"e": 2, "r": 1}, 3) is layout
    assert stats.pattern_layout({"e": 2, "r": 1}, 2) is not layout
    assert stats.pattern_layout({"e": 2, "r": 1, "q": 0}, 3) is not layout
    assert enumerate_worlds(["a", "b", "c"], {"r": 1, "e": 2}).layout is layout
    assert stats._class_table((("e", 2), ("r", 1)), 3).layout is layout
    (checked,) = stats.check_formulas(
        (parse_formula("exists X: r(X) & (forall Y: e(X,Y) | e(Y,X))"),), {}, ModelA(3)
    )
    assert stats._pattern_table(checked).layout is layout
    # a count matrix's group may read a table over a layout past the
    # formula's own vocabulary
    (checked,) = stats.check_formulas(
        (parse_formula("forall X, Y: ~e(X,Y) | e(Y,X)"),), {}, ModelA(2)
    )
    own, wider = stats.pattern_layout({"e": 2}, 2), stats.pattern_layout({"e": 2, "r": 1}, 2)
    assert stats._pattern_table(checked).layout is own
    assert stats._pattern_table(checked, wider).layout is wider
    for array in (layout.place, *(args for _, args, _ in layout.runs)):
        assert not array.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        layout.width = 2
    # a layout is its own identity, so it keys a cache without its arrays
    assert {layout: 1}[stats.pattern_layout({"e": 2, "r": 1}, 3)] == 1
    assert stats._layout.__wrapped__((("e", 2), ("r", 1)), 3) != layout
    assert stats._layout.cache_info().maxsize == stats.LAYOUTS


# ---------------------------------------------------------------------------
# marginal distribution

def test_marginal_distribution_sums_to_one():
    dist = marginal_distribution_a(FRIENDS, 2)
    assert sum(dist.values(), Fraction(0)) == 1
    assert all(v > 0 for v in dist.values())


def test_marginal_distribution_reproduces_statistics():
    # a universal formula's subset statistic is the mass of the classes
    # whose members satisfy it
    dist = marginal_distribution_a(FRIENDS, 2)
    total = Fraction(0)
    for subset in itertools.combinations(FRIENDS.constants, 2):
        part = fragment(FRIENDS, subset)
        if oracles.evaluate(ALPHA, part):
            total += Fraction(1, 3)
    by_class = Fraction(0)
    for subset in itertools.combinations(FRIENDS.constants, 2):
        part = fragment(FRIENDS, subset)
        cf = oracles.canonicalize(local_of(part))
        assert cf in dist
    assert total == statistic(ALPHA, FRIENDS, ModelA(2))


def brute_marginal_a(example, k):
    """Oracle: canonicalize the relabelled fragment of every size-k subset."""
    subsets = list(itertools.combinations(example.constants, k))
    dist = {}
    for s in subsets:
        cf = oracles.canonicalize(local_of(fragment(example, s)))
        dist[cf] = dist.get(cf, Fraction(0)) + Fraction(1, len(subsets))
    return dist


@st.composite
def marginal_cases(draw):
    """A structure with predicates of arity 0-3 (some declared without
    atoms), possibly expanded, and a width 1-4 that fits it."""
    n = draw(st.integers(1, 5))
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    vocab = {f"p{i}": a for i, a in enumerate(arities)}
    empty = draw(st.sets(st.sampled_from(sorted(vocab))))
    rng = random.Random(draw(st.integers(0, 10_000)))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    consts = [f"c{i}" for i in range(n)]
    atoms = [
        (p, args)
        for p in sorted(set(vocab) - empty)
        for args in itertools.product(consts, repeat=vocab[p])
        if rng.random() < density
    ]
    example = GlobalExample(consts, atoms, vocab)
    level = draw(st.integers(1, max(1, 8 // n)))
    example = expand(example, level)
    k = draw(st.integers(1, min(4, len(example.constants))))
    return example, k


@pytest.fixture
def cold_memo():
    """An empty class-table cache, so that ``marginal_distribution_a``
    canonicalizes; the returned call empties it again, once per hypothesis
    example, and the cache is emptied after the test."""
    stats._class_table.cache_clear()
    yield stats._class_table.cache_clear
    stats._class_table.cache_clear()


def tabled(example, k):
    """Whether the marginal of ``example`` at width ``k`` reads a class table."""
    return len(stats.local_atoms(example.vocabulary(), k)) <= stats.CLASS_TABLE_ATOMS


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(marginal_cases())
def test_marginal_distribution_matches_per_subset_canonicalize(cold_memo, case):
    example, k = case
    want = list(brute_marginal_a(example, k).items())
    # equal as dicts and in the order the classes first appear: first from
    # canonical_patterns on a cold cache, then, within the table limit,
    # from the cached table alone
    cold_memo()
    assert list(marginal_distribution_a(example, k).items()) == want
    if tabled(example, k):
        with mock.patch.object(stats, "canonical_patterns", side_effect=AssertionError("cold")):
            assert list(marginal_distribution_a(example, k).items()) == want


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(marginal_cases())
def test_marginal_distribution_past_the_table_limit_matches(cold_memo, case):
    # every call canonicalizes its own patterns, and no table is built
    example, k = case
    want = list(brute_marginal_a(example, k).items())
    cold_memo()
    with mock.patch.object(stats, "CLASS_TABLE_ATOMS", -1):
        assert list(marginal_distribution_a(example, k).items()) == want
    assert stats._class_table.cache_info().currsize == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(marginal_cases(), min_size=2, max_size=4))
def test_marginal_distribution_is_the_same_on_a_warm_memo(cases):
    # calls on other structures, vocabularies and widths fill the cache
    # between a structure's first and second call
    wants = [list(brute_marginal_a(example, k).items()) for example, k in cases]
    for _ in range(2):
        for (example, k), want in zip(cases, wants):
            assert list(marginal_distribution_a(example, k).items()) == want


def test_class_table_is_built_once_per_vocabulary_and_width(cold_memo):
    # three structures at each of six vocabularies and widths, twice over:
    # the cache builds each table once while it keeps it, and never keeps
    # more than CLASS_TABLES
    signatures = [({"e": 2}, 2), ({"e": 2, "r": 1}, 1), ({"e": 2, "r": 1}, 2),
                  ({"e": 2, "r": 1}, 3), ({"r": 1}, 2), ({"q": 0, "r": 1}, 3)]
    assert len(signatures) > stats.CLASS_TABLES
    rng = random.Random(3)
    for vocabulary, k in signatures:
        builds = stats._class_table.cache_info().misses
        for _ in range(3):
            example = random_structure(k + 2, vocabulary, 0.4, rng)
            assert tabled(example, k)
            assert list(marginal_distribution_a(example, k).items()) == list(
                brute_marginal_a(example, k).items()
            )
            info = stats._class_table.cache_info()
            assert info.misses == builds + 1
            assert info.currsize <= info.maxsize == stats.CLASS_TABLES
    # the last CLASS_TABLES tables are still kept
    builds = stats._class_table.cache_info().misses
    for vocabulary, k in signatures[-stats.CLASS_TABLES:]:
        stats._class_table(tuple(sorted(vocabulary.items())), k)
    assert stats._class_table.cache_info().misses == builds


def test_class_table_at_the_limit_holds_what_its_comment_states(cold_memo):
    # 12 unary predicates at width 1: 4,096 patterns, each a class of its
    # own whose form holds its atoms, the most memory a table within
    # CLASS_TABLE_ATOMS holds; the cache's comment states 840 KiB
    signature = tuple((f"p{i:02d}", 1) for i in range(stats.CLASS_TABLE_ATOMS))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = stats._class_table(signature, 1)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    classes, forms = table.classes, table.forms
    assert len(classes) == len(forms) == 4096 and not classes.flags.writeable
    assert 0 < held <= 840 * 1024


def test_a_kept_class_table_leaves_a_marginal_nothing_to_build(cold_memo):
    # the table keeps its layout, the local atoms, their runs and their
    # place values, all read-only, so a second marginal builds no layout;
    # nor does a formula's second pattern-table read
    example = random_structure(6, {"r": 1, "e": 2}, 0.4, random.Random(4))
    want = list(marginal_distribution_a(example, 3).items())
    table = stats._class_table((("e", 2), ("r", 1)), 3)
    layout = table.layout
    assert layout.local == tuple(stats.local_atoms({"e": 2, "r": 1}, 3))
    assert [p for p, _, _ in layout.runs] == ["e", "r"] and layout.place.dtype == np.int16
    for array in (table.classes, layout.place, *(args for _, args, _ in layout.runs)):
        assert not array.flags.writeable
    (checked,) = stats.check_formulas(
        (parse_formula("forall X, Y: ~r(X) | ~e(X,Y)"),), {"r": 1, "e": 2}, ModelA(3)
    )
    assert stats._pattern_table(checked).layout.local == layout.local
    tables = stats.structure_tables(example, checked.vocabulary)
    truths = np.concatenate(list(stats.grounding_truths(checked, checked.rows(6), tables, 1)))
    built = AssertionError("built")
    with mock.patch.object(stats, "pattern_layout", side_effect=built), \
            mock.patch.object(stats, "local_atoms", side_effect=built):
        assert list(marginal_distribution_a(example, 3).items()) == want
        again = stats.grounding_truths(checked, checked.rows(6), tables, 1)
        assert np.array_equal(np.concatenate(list(again)), truths)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 5),
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
    st.integers(0, 10_000),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.data(),
)
def test_structure_tables_match_the_per_atom_oracle(n, arities, seed, density, data):
    # tables for some of the structure's predicates, for predicates it
    # declares without atoms, and for one it does not have
    vocab = {f"p{i}": a for i, a in enumerate(arities)}
    bare = data.draw(st.sets(st.sampled_from(sorted(vocab))))
    rng = random.Random(seed)
    consts = [f"c{i}" for i in range(n)]
    atoms = [
        (p, args)
        for p in sorted(set(vocab) - bare)
        for args in itertools.product(consts, repeat=vocab[p])
        if rng.random() < density
    ]
    example = GlobalExample(consts, atoms, vocab)
    asked = {p: vocab[p] for p in data.draw(st.sets(st.sampled_from(sorted(vocab))))}
    if data.draw(st.booleans()):
        asked["absent"] = data.draw(st.integers(0, 3))
    got, want = stats.structure_tables(example, asked), oracles.structure_tables(example, asked)
    assert list(got) == list(want)
    for p in want:
        assert got[p].dtype == want[p].dtype and got[p].shape == want[p].shape
        assert np.array_equal(got[p], want[p])


def test_marginal_distribution_is_the_same_in_blocks(monkeypatch, cold_memo):
    # 8 constants, width 3: 56 subsets over 3 + 9 local atoms, in blocks of
    # one subset, of 5 subsets with a short last block, and in one block
    example = expand(_random_structure(random.Random(5), 4), 2)
    want = brute_marginal_a(example, 3)
    for cells in (1, 60, 1 << 20):
        monkeypatch.setattr(stats, "BLOCK_CELLS", cells)
        cold_memo()
        assert list(marginal_distribution_a(example, 3).items()) == list(want.items())


def test_marginal_distribution_merges_patterns_across_blocks(monkeypatch):
    # past the class tables, in blocks of 5 subsets, whose patterns are
    # merged whenever more have come than TABLE_CELL_CAP admits at 3!
    # relabellings each: the marginal is the one subset by subset, and a
    # cap that admits one pattern fewer stops it
    example = expand(_random_structure(random.Random(5), 4), 2)
    want = list(brute_marginal_a(example, 3).items())
    tables = stats.structure_tables(example, example.vocabulary())
    subsets = np.array(list(itertools.combinations(range(8), 3)))
    bits = stats.gather_patterns(tables, stats.pattern_layout(example.vocabulary(), 3), subsets, 1)
    patterns = len(np.unique(bits[:, :, 0], axis=0))
    monkeypatch.setattr(stats, "CLASS_TABLE_ATOMS", -1)
    monkeypatch.setattr(stats, "BLOCK_CELLS", 60)
    monkeypatch.setattr(stats, "TABLE_CELL_CAP", 6 * patterns)
    assert list(marginal_distribution_a(example, 3).items()) == want
    monkeypatch.setattr(stats, "TABLE_CELL_CAP", 6 * patterns - 1)
    with pytest.raises(CapExceededError, match=f"of {patterns} distinct patterns"):
        marginal_distribution_a(example, 3)


def per_atom_patterns(tables, local, n, k, structures):
    """Oracle: every size-k subset's bit pattern gathered one local atom at
    a time, as one (subsets, structures, atoms) array."""
    subsets = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    bits = np.empty((len(subsets), structures, len(local)), dtype=bool)
    for j, (p, args) in enumerate(local):
        bits[:, :, j] = tables[p][tuple(subsets[:, a] for a in args)]
    return bits


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 3), max_size=3),
    st.integers(1, 5),
    st.integers(1, 3),
    st.integers(0, 10_000),
    st.sampled_from([1, 50, stats.BLOCK_CELLS]),
    st.data(),
)
def test_pattern_keys_match_the_per_atom_gather(arities, n, structures, seed, cells, data):
    # predicates of arity 0-3 over one or more structures: the per-world
    # tables of shrink_distribution, or one example's; keys wherever the
    # layout has place values, past 15 local atoms in int64
    k = data.draw(st.integers(1, n))
    vocab = {f"p{i}": a for i, a in enumerate(arities)}
    rng = np.random.default_rng(seed)
    tables = {p: rng.random((n,) * a + (structures,)) < 0.4 for p, a in vocab.items()}
    layout = stats.pattern_layout(vocab, k)
    want = per_atom_patterns(tables, layout.local, n, k, structures)
    subsets = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    got = stats.gather_patterns(tables, layout, subsets, structures)
    assert np.array_equal(got.transpose(0, 2, 1), want)
    m = len(layout.local)
    if m > 63:
        assert layout.place is None
        return
    with mock.patch.object(stats, "BLOCK_CELLS", cells):
        blocks = list(stats.pattern_keys(tables, layout, subsets, structures))
    assert all(b.shape[1:] == (structures,) for b in blocks)
    assert all(len(b) == 1 or len(b) * structures * max(m, 1) <= cells for b in blocks)
    keys = np.concatenate(blocks)
    # the fold runs in the place dtype, and the keys index tables as intp
    assert layout.place.dtype == (np.int16 if m < 16 else np.int64)
    assert keys.dtype == np.intp
    fold = [[sum(1 << int(j) for j in np.flatnonzero(bits)) for bits in row] for row in want]
    assert keys.tolist() == fold


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.lists(st.integers(0, 2), max_size=3), st.data())
def test_a_subset_key_is_its_world_index(k, arities, data):
    # one bit order: the key of the subset of all k constants, read off the
    # world tables through the layout, is the world's own index, and the
    # shrink of a point mass on the world is the atom walk's
    vocab = {f"p{i}": a for i, a in enumerate(arities)}
    layout = stats.pattern_layout(vocab, k)
    assume(len(layout.local) <= 12)
    space = enumerate_worlds([f"c{i + 1}" for i in range(k)], vocab)
    tables = world_tables(space.worlds, space.layout, vocab)
    (block,) = stats.pattern_keys(tables, layout, np.arange(k)[None], len(space))
    assert block[0].tolist() == space.worlds.tolist()
    w = data.draw(st.integers(0, len(space) - 1))
    m = data.draw(st.integers(1, k))
    point = ExplicitDistribution(space, tuple(Fraction(int(i == w)) for i in range(len(space))))
    target, want = oracles.shrink_probabilities(point, m)
    small = shrink_distribution(point, m)
    assert small.space.atoms == target.atoms and list(small.probs) == want


def _check_canonical_patterns(vocab, k, patterns, cells):
    """Oracle: canonicalize each pattern on its own by brute force.  Columns
    are the local atoms over 1..k in the order of ``canonical_patterns``."""
    local = [
        (p, args) for p in sorted(vocab)
        for args in itertools.product(range(1, k + 1), repeat=vocab[p])
    ]
    layout = stats.pattern_layout(vocab, k)
    with mock.patch.object(stats, "BLOCK_CELLS", cells):
        images, automorphisms = stats.canonical_patterns(patterns, layout)
    assert images.shape == patterns.shape and len(automorphisms) == len(patterns)
    for pattern, image, autos in zip(patterns, images, automorphisms):
        cf = oracles.canonicalize(LocalExample(k, [a for a, bit in zip(local, pattern) if bit]))
        assert tuple(a for a, bit in zip(local, image) if bit) == cf.atoms
        assert autos == cf.automorphisms


@st.composite
def pattern_cases(draw):
    """Bit patterns over the local atoms of up to 3 predicates of arity 0-3
    (some never set) at widths 1-5, and a block size of one cell, a few
    cells or the default."""
    k = draw(st.integers(1, 5))
    arities = draw(st.lists(st.integers(0, 3 if k < 5 else 2), max_size=3))
    vocab = {f"p{i}": a for i, a in enumerate(arities)}
    unset = draw(st.sets(st.sampled_from(sorted(vocab)))) if vocab else set()
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    rows = draw(st.integers(1, 4))
    patterns = rng.random((rows, sum(k**a for a in arities))) < density
    offset = 0
    for p in sorted(vocab):
        width = k ** vocab[p]
        if p in unset:
            patterns[:, offset:offset + width] = False
        offset += width
    cells = draw(st.sampled_from([1, 50, stats.BLOCK_CELLS]))
    return vocab, k, patterns, cells


@settings(max_examples=150, deadline=None)
@given(pattern_cases())
def test_canonical_patterns_match_canonicalize(case):
    _check_canonical_patterns(*case)


@pytest.mark.parametrize("cells", [1, 50, stats.BLOCK_CELLS])
@pytest.mark.parametrize(
    "vocab, k",
    [
        ({"t": 3}, 3),  # 27 local atoms
        ({"e": 2, "r": 1}, 4),  # 20 local atoms
        ({"e": 2, "r": 1, "t": 3}, 3),  # 39 local atoms
        ({"e": 2}, 5),
        ({"q": 0, "e": 2}, 3),
        ({}, 4),
    ],
)
def test_canonical_patterns_over_many_local_atoms(vocab, k, cells):
    # past 15 local atoms a sorted-index key would no longer fit one int64;
    # the patterns include the empty and the full one, whose images are
    # themselves, with every relabelling an automorphism
    m = sum(k**a for a in vocab.values())
    rng = np.random.default_rng(k * 100 + m)
    patterns = np.vstack([np.zeros(m, bool), np.ones(m, bool), rng.random((6, m)) < 0.3])
    _check_canonical_patterns(vocab, k, patterns, cells)
    layout = stats.pattern_layout(vocab, k)
    images, automorphisms = stats.canonical_patterns(patterns[:2], layout)
    assert (images == patterns[:2]).all()
    assert list(automorphisms) == [math.factorial(k)] * 2


def test_marginal_distribution_of_an_empty_vocabulary():
    # one class, the empty width-k example, fixed by all k! relabellings
    bare = GlobalExample([f"c{i}" for i in range(6)], [])
    for k in range(1, 6):
        ((form, mass),) = marginal_distribution_a(bare, k).items()
        assert (form.atoms, form.automorphisms, form.class_size) == ((), math.factorial(k), 1)
        assert mass == 1


def test_canonicalisation_past_its_cap_stops_before_any_relabelling(monkeypatch):
    # width 7 over {e/2} has 49 local atoms, past the class tables: the
    # 77,520 subsets of 20 constants have 77,003 distinct patterns, and
    # 13,315 at 5,040 relabellings each fill TABLE_CELL_CAP, so the first
    # block of 21,399 subsets, with 21,234 patterns, is merged and stops
    def refuse(*args):
        raise AssertionError("canonicalized past the cap")

    monkeypatch.setattr(stats, "canonical_patterns", refuse)
    example = random_structure(20, {"e": 2}, 0.3, random.Random(1))
    with pytest.raises(CapExceededError) as exc:
        marginal_distribution_a(example, 7)
    assert str(exc.value) == (
        "107019360 relabellings of 21234 distinct patterns exceed the cap of 67108864"
    )


def test_marginal_distribution_width_checks_come_first(monkeypatch):
    # C(40, 9) is about 2.7e8 subsets: the width cap is checked before any
    # table is built or any subset is enumerated
    def refuse(*args):
        raise AssertionError("truth tables built before the width check")

    monkeypatch.setattr(stats, "structure_tables", refuse)
    wide = GlobalExample([f"c{i}" for i in range(40)], [], {"e": 2})
    with pytest.raises(CapExceededError) as exc:
        marginal_distribution_a(wide, ISO_WIDTH_CAP + 1)
    assert exc.value.size == ISO_WIDTH_CAP + 1 and exc.value.cap == ISO_WIDTH_CAP
    # a width outside 1..n is a domain error even when it is over the cap
    with pytest.raises(DomainError):
        marginal_distribution_a(FRIENDS, ISO_WIDTH_CAP + 1)
    with pytest.raises(DomainError):
        marginal_distribution_a(FRIENDS, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 5))
def test_distinct_rows_keyed_matches_whole_row_comparison(seed, columns, radix):
    # key spaces of 2 to 625 keys over 1 to 39 rows: both sides of the
    # counted path's limit, a key space no larger than the rows
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, radix, size=(rng.integers(1, 40), columns))
    first, counts, inverse = stats.distinct_rows(rows, radix)
    assert [first.tolist(), counts.tolist(), inverse.tolist()] == [
        a.tolist() for a in oracles.distinct_rows(rows)
    ]
    # radices whose product overflows int64 re-rank the key between columns
    assert [first.tolist(), counts.tolist(), inverse.tolist()] == [
        a.tolist() for a in stats.distinct_rows(rows, [2**40] * columns)
    ]
    # each row's distinct row, in the order of first appearance
    assert np.array_equal(rows[first][inverse], rows)
    # first appearances in order, with their multiplicities
    seen = {}
    for i, row in enumerate(map(tuple, rows.tolist())):
        seen.setdefault(row, [i, 0])[1] += 1
    assert [first.tolist(), counts.tolist()] == [
        [i for i, _ in seen.values()], [c for _, c in seen.values()]
    ]


@pytest.mark.parametrize("rows, step", [(0, 3), (1, 3), (7, 3), (9, 3), (5, 0)])
def test_index_blocks_slice_arrays_as_they_read_streams(rows, step):
    array = np.arange(2 * rows, dtype=np.intp).reshape(rows, 2)
    sliced = list(stats.index_blocks(array, 2, step))
    streamed = list(stats.index_blocks(map(tuple, array.tolist()), 2, step))
    assert [b.tolist() for b in sliced] == [b.tolist() for b in streamed]
    assert all(len(b) == max(1, step) for b in sliced[:-1])


# ---------------------------------------------------------------------------
# kept row listings

@pytest.fixture
def cold_listings():
    """Empty grounding and residue listing caches; the returned call empties
    them again, and they are emptied after the test."""
    def clear():
        stats._listing.cache_clear()
        expansion._residue_listing.cache_clear()

    clear()
    yield clear
    clear()


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.one_of(st.builds(ModelA, st.integers(1, 4)), st.just(MODEL_B)),
    st.integers(0, 9),
    st.integers(1, 4),
    st.integers(1, 5),
)
def test_kept_listings_equal_the_itertools_listings(cold_listings, kind, n, width, level):
    # the first call lists the rows, the second reads the same read-only
    # array; with no listing kept, the stream and a fresh residue listing
    # are the same rows
    cold_listings()
    want = [list(row) for row in kind.orders(range(n), width)]
    rows = stats.grounding_rows(kind, width, n)
    assert stats.grounding_rows(kind, width, n) is rows and not rows.flags.writeable
    assert rows.shape == (len(want), width) and rows.tolist() == want
    listing = expansion.residue_groundings(kind, width, n, level)
    residues, shape, weights = listing
    pairs = list(zip(map(tuple, residues.tolist()), (weights[s] for s in shape)))
    assert pairs == oracles.residue_groundings(kind, width, n, level)
    assert isinstance(weights, tuple)
    assert not residues.flags.writeable and not shape.flags.writeable
    kept = kind.residue_count(n, width) * width <= stats.LISTING_CELLS
    again = expansion.residue_groundings(kind, width, n, level)
    assert [a is b for a, b in zip(again, listing)] == [kept] * 3
    with mock.patch.object(stats, "LISTING_CELLS", 0):
        assert [list(row) for row in stats.grounding_rows(kind, width, n)] == want
        fresh = expansion.residue_groundings(kind, width, n, level)
    assert fresh[0] is not residues or n == 0  # an empty listing has no cells to stream
    assert np.array_equal(fresh[0], residues) and np.array_equal(fresh[1], shape)
    assert fresh[2] == weights


def _kept_listings():
    """The grounding and residue listings kept."""
    return stats._listing.cache_info().currsize, expansion._residue_listing.cache_info().currsize


def _every_result(truth, space_constants):
    """``statistic``, ``count_matrix`` of a fresh world space,
    ``marginal_distribution_a`` and ``run_error_experiment`` under both
    models, at widths 1-3."""
    texts = {
        ModelA(2): ["forall X, Y: ~e(X,Y) | e(Y,X)", "exists X, Y: r(X) & e(X,Y)"],
        ModelA(3): ["exists X, Y, Z: e(X,Y) & e(Y,Z)"],
        MODEL_B: ["forall X: r(X)", "forall X, Y, Z: ~e(X,Y) | ~e(Y,Z) | e(X,Z)"],
    }
    out = []
    for kind, fs in texts.items():
        fs = tuple(map(parse_formula, fs))
        out.append([statistic(f, truth, kind) for f in fs])
        space = enumerate_worlds(space_constants, {"r": 1, "e": 2})
        out.append(space.count_matrix(fs, kind).tolist())
        out.append(run_error_experiment(ExperimentConfig(truth, 5, 15, fs, kind, trials=6, seed=2)))
    out.extend(list(marginal_distribution_a(truth, k).items()) for k in (1, 2, 3))
    return out


def test_results_are_the_same_cold_warm_and_streamed(cold_listings):
    # a 7-constant ground truth and a 3-constant world space: the caches
    # cleared, then warm, then every listing streamed or built afresh
    truth = random_structure(7, {"r": 1, "e": 2}, 0.4, random.Random(13))
    cold = _every_result(truth, ("a", "b", "c"))
    kept = _kept_listings()
    assert kept[0] > 0 and kept[1] > 0
    assert _every_result(truth, ("a", "b", "c")) == cold
    assert _kept_listings() == kept
    cold_listings()
    with mock.patch.object(stats, "LISTING_CELLS", 0):
        assert _every_result(truth, ("a", "b", "c")) == cold
    assert _kept_listings() == (0, 0)


def test_a_kept_residue_listing_is_still_refused_over_the_cap(cold_listings, monkeypatch):
    # 4^2 = 16 residue sequences of width 2, 32 cells: kept under the
    # default cap, then refused under 31 before the kept listing is read
    rows, _, _ = expansion.residue_groundings(MODEL_B, 2, 4, 3)
    assert expansion.residue_groundings(MODEL_B, 2, 4, 3)[0] is rows
    monkeypatch.setattr(stats, "TABLE_CELL_CAP", 31)
    with mock.patch.object(expansion, "_residue_listing", side_effect=AssertionError("read")):
        with pytest.raises(CapExceededError) as exc:
            expansion.residue_groundings(MODEL_B, 2, 4, 3)
    assert exc.value.size == 32 and exc.value.cap == 31
    assert expansion._residue_listing.cache_info().currsize == 1


def test_listings_at_the_limit_hold_what_their_comment_states(cold_listings):
    # width 1 holds the most per position: LISTING_CELLS subsets of one
    # position, and as many residue rows, each with its shape index; the
    # comment beside LISTING_CELLS states 130 KiB and 260 KiB
    cells = stats.LISTING_CELLS
    calls = [
        (lambda: stats.grounding_rows(ModelA(1), 1, cells), 130),
        (lambda: expansion.residue_groundings(MODEL_B, 1, cells, 1), 260),
    ]
    for call, kib in calls:
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            listing = call()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert 0 < held <= kib * 1024
        del listing
    assert _kept_listings() == (1, 1)
    assert stats._listing.cache_info().maxsize == stats.LISTINGS
    assert expansion._residue_listing.cache_info().maxsize == stats.LISTINGS
    # a listing one position longer is streamed, and none is kept
    assert not isinstance(stats.grounding_rows(ModelA(1), 1, cells + 1), np.ndarray)
    assert stats._listing.cache_info().currsize == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 300), st.integers(0, 300))
def test_counted_keys_match_sorted_keys(seed, size, n):
    # the two paths of distinct_rows on one key array, on both sides of the
    # counted path's limit
    keys = np.random.default_rng(seed).integers(0, size, size=n)
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    got = stats._counted_keys(keys, size)
    assert [a.tolist() for a in got] == [first.tolist(), counts.tolist(), inverse.tolist()]


@st.composite
def radix_rows(draw):
    """Int rows and their per-column radices: no columns, up to three
    radix-1 columns, and widths whose key is re-ranked once (36 columns of
    radix 7, 70 of radix 2) or two or more times (150 of radix 2, 79 of
    radix 8).  Half the cases draw every entry; the other half join three
    runs of columns, each from a pool of three, so that rows repeat and
    many pairs differ only in some runs.  Key spaces of 1 and of 3^5 keys
    over up to 300 rows are counted or sorted (``distinct_rows``)."""
    columns, radix = draw(st.sampled_from(
        [(0, 2), (3, 1), (5, 3), (36, 7), (70, 2), (150, 2), (79, 8)]
    ))
    ones = draw(st.sets(st.integers(0, columns - 1), max_size=3)) if columns else set()
    radices = [1 if j in ones else radix for j in range(columns)]
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    n = draw(st.integers(0, 300))
    if draw(st.booleans()):
        return rng.integers(0, radices, size=(n, columns)), radices
    cuts = sorted(rng.integers(0, columns + 1, size=2).tolist())
    runs = [
        rng.integers(0, radices[lo:hi], size=(3, hi - lo))[rng.integers(0, 3, size=n)]
        for lo, hi in zip([0, *cuts], [*cuts, columns])
    ]
    return np.concatenate(runs, axis=1), radices


@settings(max_examples=80, deadline=None)
@given(radix_rows())
def test_distinct_rows_equals_whole_row_comparison(case):
    rows, radices = case
    got = stats.distinct_rows(rows, radices)
    want = oracles.distinct_rows(rows)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]


# ---------------------------------------------------------------------------
# randomized oracle cross-checks

def _random_structure(rng, n):
    consts = [f"c{i}" for i in range(n)]
    atoms = []
    for c in consts:
        if rng.random() < 0.5:
            atoms.append(("r", (c,)))
    for c1, c2 in itertools.product(consts, repeat=2):
        if rng.random() < 0.4:
            atoms.append(("e", (c1, c2)))
    return GlobalExample(consts, atoms, {"r": 1, "e": 2})


A_POOL = [
    "exists X: r(X)",
    "forall X: r(X)",
    "exists X, Y: X != Y & e(X,Y)",
    "forall X, Y: ~e(X,Y) | e(Y,X)",
    "exists X, Y: e(X,Y) & ~r(X)",
    "exists X: forall Y: ~e(X,Y) | r(Y)",
    "forall X: r(X) | (exists Y: e(X,Y))",
]
B_POOL = [
    "forall X: r(X)",
    "forall X, Y: ~e(X,Y) | e(Y,X)",
    "forall X, Y: X = Y | e(X,Y) | ~r(X)",
    "forall X, Y, Z: ~e(X,Y) | ~e(Y,Z) | e(X,Z)",
    "forall X: forall Y: X = Y | ~e(X,Y) | r(Y)",
]


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.data())
def test_subset_stat_matches_brute_force(seed, data):
    rng = random.Random(seed)
    example = _random_structure(rng, rng.randint(2, 5))
    f = data.draw(st.sampled_from(A_POOL).map(parse_formula) | closed_formulas(()))
    k = data.draw(st.integers(min_value=1, max_value=len(example.constants)))
    assert statistic(f, example, ModelA(k)) == brute_subset_stat(f, example, k)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.data())
def test_substitution_stat_matches_brute_force(seed, data):
    rng = random.Random(seed)
    example = _random_structure(rng, rng.randint(3, 5))
    f = data.draw(
        st.sampled_from(B_POOL).map(parse_formula)
        | closed_formulas((), (Forall,), prenex=True)
    )
    assert statistic(f, example, MODEL_B) == brute_substitution_stat(f, example)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_statistics_are_probabilities(seed):
    rng = random.Random(seed)
    example = _random_structure(rng, rng.randint(3, 4))
    for text in A_POOL:
        v = statistic(parse_formula(text), example, ModelA(2))
        assert 0 <= v <= 1
    for text in B_POOL:
        v = statistic(parse_formula(text), example, MODEL_B)
        assert 0 <= v <= 1


def test_statistic_is_the_same_in_blocks(monkeypatch):
    # 7 constants: C(7,3) = 35 subsets and P(7,3) = 210 substitutions, split
    # into blocks of 4 groundings with a short last block
    example = _random_structure(random.Random(3), 7)
    cases = [(parse_formula(t), ModelA(3)) for t in A_POOL]
    cases += [(parse_formula(t), MODEL_B) for t in B_POOL]
    want = [statistic(f, example, kind) for f, kind in cases]
    monkeypatch.setattr(stats, "BLOCK_CELLS", 4)
    assert [statistic(f, example, kind) for f, kind in cases] == want


def test_structures_over_the_table_cap_are_refused(monkeypatch):
    # e/2 over 8,193 constants needs 8,193^2 > 2^26 table cells; nothing is
    # allocated before the check
    wide = GlobalExample([f"c{i}" for i in range(8193)], [], {"e": 2})
    with pytest.raises(CapExceededError) as exc:
        statistic(parse_formula("exists X: e(X,X)"), wide, ModelA(1))
    assert exc.value.size == 8193**2 and exc.value.cap == stats.TABLE_CELL_CAP
    # only the predicates a formula names get tables: e/2 over 3 constants
    # fits a cap of 9 cells, e/2 with r/1 does not
    monkeypatch.setattr(stats, "TABLE_CELL_CAP", 9)
    small = _random_structure(random.Random(4), 3)
    assert 0 <= statistic(parse_formula("exists X: e(X,X)"), small, ModelA(2)) <= 1
    with pytest.raises(CapExceededError):
        statistic(parse_formula("exists X: e(X,X) & r(X)"), small, ModelA(2))


# ---------------------------------------------------------------------------
# constraint files

def test_parse_theta_forms():
    assert parse_theta("1/3") == Fraction(1, 3)
    assert parse_theta("0.4") == Fraction(2, 5)
    assert parse_theta("1") == Fraction(1)
    assert parse_theta("0") == Fraction(0)
    with pytest.raises(DomainError):
        parse_theta("x")
    with pytest.raises(DomainError):
        parse_theta("1/0")


def test_parse_constraints_line_format():
    text = "# targets\n1/3 ; exists X: r(X)\n0.5 ; forall X: r(X)\n"
    cons = parse_constraints(text)
    assert len(cons) == 2
    assert cons[0].theta == Fraction(1, 3)
    assert cons[1].theta == Fraction(1, 2)


def test_parse_constraints_json_format():
    text = '[{"formula": "exists X: r(X)", "theta": "2/3"}]'
    cons = parse_constraints(text)
    assert cons[0].theta == Fraction(2, 3)


def test_constraint_theta_must_be_probability():
    with pytest.raises(DomainError):
        MarginalConstraint(parse_formula("exists X: r(X)"), Fraction(3, 2))
    with pytest.raises(DomainError):
        MarginalConstraint(parse_formula("exists X: r(X)"), Fraction(-1, 2))


def test_bad_constraint_line_is_reported_with_position():
    with pytest.raises((DomainError, FormulaSyntaxError)):
        parse_constraints("1/3 exists X: r(X)")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ('[{"formula": "exists X: r(X)"}]', "got nothing"),
        ('[{"formula": "exists X: r(X)", "theta": null}]', "got null"),
        ('[{"formula": "exists X: r(X)", "theta": true}]', "got true"),
        ('[{"formula": "exists X: r(X)", "theta": "1/2"}, 7]', "entry 2: expected an object"),
        ('[{"theta": "1/2"}]', "'formula' must be a string"),
        ('[{"formula": "exists X: r(X)", "theta": "x"}]', "bad theta value"),
        ('[{"formula": "exists X: r(X)", "theta": 2}]', "outside [0, 1]"),
    ],
)
def test_malformed_json_constraints_name_source_and_entry(text, fragment):
    with pytest.raises(DomainError) as exc:
        parse_constraints(text, source="t.json")
    message = str(exc.value)
    assert message.startswith("t.json: entry ")
    assert fragment in message


def test_json_constraint_numbers_are_floats_and_strings_exact():
    text = (
        '[{"formula": "exists X: r(X)", "theta": 0.4},'
        ' {"formula": "forall X: r(X)", "theta": "0.4"}]'
    )
    number, string = parse_constraints(text)
    assert number.theta == 0.4 and isinstance(number.theta, float)
    assert string.theta == Fraction(2, 5)
