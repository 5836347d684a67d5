"""Expansion construction, its closed-form bounds, and mixture structure."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relmarg.data import GlobalExample, fragment
from relmarg import expansion, stats
from relmarg.errors import CapExceededError, DomainError
from relmarg.expansion import (
    expand,
    expanded_statistic,
    expansion_diff_bound,
    gamma,
    mixture_residual,
    noisy_expand,
    representative_tables,
    required_expansion_level,
)
from relmarg.logic import parse_formula
from relmarg.stats import MODEL_B, ModelA, marginal_distribution_a, statistic

PATH3 = GlobalExample(
    ["c1", "c2", "c3"],
    [("e", ("c1", "c2")), ("e", ("c2", "c3"))],
)


def test_level_one_expansion_is_identity():
    assert expand(PATH3, 1) is PATH3


def test_path_expansion_atoms():
    doubled = expand(PATH3, 2)
    assert doubled.constants == ("c1", "c2", "c3", "c4", "c5", "c6")
    expected = {
        ("e", ("c1", "c2")),
        ("e", ("c2", "c3")),
        ("e", ("c4", "c5")),
        ("e", ("c5", "c6")),
        ("e", ("c1", "c5")),
        ("e", ("c2", "c6")),
        ("e", ("c4", "c2")),
        ("e", ("c5", "c3")),
    }
    assert {(a.pred, a.args) for a in doubled.atoms} == expected


def test_expansion_restricts_to_base():
    rng = random.Random(5)
    consts = ["c1", "c2", "c3", "c4"]
    atoms = [("e", (a, b)) for a, b in itertools.product(consts, repeat=2) if rng.random() < 0.5]
    base = GlobalExample(consts, atoms, {"e": 2})
    for level in (2, 3):
        grown = expand(base, level)
        back = fragment(grown, consts)
        assert set(back.atoms) == set(base.atoms)


def test_expansion_copies_each_congruence_slot():
    # a reflexive atom stays on the diagonal of its class: c1 -> c1 and c4 -> c4,
    # never c1 -> c4
    base = GlobalExample(["c1"], [("e", ("c1", "c1"))])
    grown = expand(base, 3)
    assert {(a.pred, a.args) for a in grown.atoms} == {
        ("e", ("c1", "c1")),
        ("e", ("c2", "c2")),
        ("e", ("c3", "c3")),
    }


@st.composite
def expansion_cases(draw):
    """A structure over predicates of arities 0-3, some declared without
    atoms, on constants whose names may collide with the fresh ones, and a
    level of 1-4."""
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    vocab = {f"p{i}": a for i, a in enumerate(arities)}
    bare = draw(st.sets(st.sampled_from(sorted(vocab))))
    consts = draw(st.lists(st.sampled_from(["c1", "c2", "c3", "c5", "a", "b"]),
                           min_size=1, max_size=4, unique=True))
    rng = random.Random(draw(st.integers(0, 10_000)))
    density = draw(st.sampled_from([0.2, 0.5, 1.0]))
    atoms = [
        (p, args)
        for p in sorted(set(vocab) - bare)
        for args in itertools.product(consts, repeat=vocab[p])
        if rng.random() < density
    ]
    declared = vocab if bare or draw(st.booleans()) else None
    return GlobalExample(consts, atoms, declared), draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(expansion_cases())
def test_expand_matches_the_per_atom_oracle(case):
    example, level = case
    got, want = expand(example, level), oracles.expand(example, level)
    oracles.same_structure(got, want)
    assert got.vocab == want.vocab


@settings(max_examples=200, deadline=None)
@given(expansion_cases(), st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.integers(0, 10_000))
def test_noisy_expand_matches_the_per_atom_oracle(case, eps, seed):
    # the same structure from the same draws, and the generator left in the
    # same state: one draw per absent slot, in the oracle's order
    example, level = case
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    got = noisy_expand(example, level, eps, rng)
    want = oracles.noisy_expand(example, level, eps, oracle_rng)
    oracles.same_structure(got, want)
    assert got.vocab == want.vocab
    assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize(
    "atoms, constants, level, count, peak",
    [
        # level^1 copies of an atom with one distinct argument in six slots,
        # not level^6 = 10^12 candidates to mask
        ([("r", ("a",) * 6)], 2, 100, 100, 1e6),
        # 50 self-loops and one atom with a repeated argument: 15,000 copies,
        # where a (level^arity)-candidate array takes over 30 MB
        ([*(("e", (f"c{i}", f"c{i}")) for i in range(50)), ("t", ("c0", "c1", "c0"))],
         50, 100, 15_000, 12e6),
    ],
)
def test_expansion_of_repeated_arguments_builds_only_their_copies(
    atoms, constants, level, count, peak
):
    names = ["a", "b"] if constants == 2 else [f"c{i}" for i in range(constants)]
    example = GlobalExample(names, atoms)
    tracemalloc.start()
    try:
        got = expand(example, level)
        used = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got.atoms) == count and used < peak
    assert got == oracles.expand(example, level)


def test_expansion_level_validation():
    with pytest.raises(DomainError):
        expand(PATH3, 0)
    with pytest.raises(DomainError):
        expand(GlobalExample([], []), 2)


def test_fresh_names_avoid_collisions():
    base = GlobalExample(["c2", "x"], [("r", ("x",))], {"r": 1})
    grown = expand(base, 2)
    assert len(set(grown.constants)) == 4
    assert grown.constants[:2] == ("c2", "x")


# ---------------------------------------------------------------------------
# closed forms, against independent arithmetic

def test_diff_bound_values():
    assert expansion_diff_bound(3, 2) == Fraction(1, 3)
    assert expansion_diff_bound(10, 1) == 0
    assert expansion_diff_bound(10, 3) == 1 - Fraction(8, 10) ** 2


def test_diff_bound_matches_direct_formula():
    for n in range(1, 12):
        for k in range(1, n + 1):
            direct = Fraction((n - k + 1) ** (k - 1), n ** (k - 1))
            assert expansion_diff_bound(n, k) == 1 - direct


def test_gamma_values():
    assert gamma(3, 2, 2) == Fraction(1, 5)
    assert gamma(4, 1, 7) == 0  # width 1 sees no off-diagonal mass


def test_gamma_matches_direct_counting():
    # fraction of width-k subsets of the expanded domain that hit some
    # congruence class twice
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            for level in (1, 2, 3):
                total = 0
                collides = 0
                for subset in itertools.combinations(range(n * level), k):
                    total += 1
                    if len({i % n for i in subset}) < k:
                        collides += 1
                assert gamma(n, k, level) == Fraction(collides, total)


def test_gamma_vanishes_at_level_one():
    for n in (2, 3, 5):
        for k in range(1, n + 1):
            assert gamma(n, k, 1) == 0


def test_bound_arguments_validated():
    with pytest.raises(DomainError):
        expansion_diff_bound(3, 4)
    with pytest.raises(DomainError):
        gamma(3, 0, 2)
    with pytest.raises(DomainError):
        gamma(3, 2, 0)


# ---------------------------------------------------------------------------
# marginal mixture

def test_path_marginal_shift_and_mixture():
    base = marginal_distribution_a(PATH3, 2)
    grown = marginal_distribution_a(expand(PATH3, 2), 2)
    shift = max(
        abs(grown.get(key, Fraction(0)) - base.get(key, Fraction(0)))
        for key in set(base) | set(grown)
    )
    assert shift <= expansion_diff_bound(3, 2)

    g = gamma(3, 2, 2)
    residual = mixture_residual(base, grown, g)
    assert sum(residual.values(), Fraction(0)) == 1
    assert all(v >= 0 for v in residual.values())
    # reconstruct
    for key in residual:
        lhs = grown.get(key, Fraction(0))
        rhs = (1 - g) * base.get(key, Fraction(0)) + g * residual[key]
        assert lhs == rhs


def test_mixture_residual_rejects_degenerate_weight():
    base = marginal_distribution_a(PATH3, 2)
    with pytest.raises(DomainError):
        mixture_residual(base, base, Fraction(0))


exact_values = st.integers(-50, 50) | st.fractions(max_denominator=60)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.integers(0, 12), exact_values, max_size=8),
    st.dictionaries(st.integers(0, 12), exact_values, max_size=8),
    (st.integers(-3, 3) | st.fractions(max_denominator=40)).filter(bool),
)
def test_mixture_residual_matches_a_fraction_reference(base, expanded, g):
    # keys in order of first appearance, each residual the exact solution
    want = {
        key: (Fraction(expanded.get(key, 0)) - (1 - Fraction(g)) * Fraction(base.get(key, 0)))
        / Fraction(g)
        for key in dict.fromkeys([*base, *expanded])
    }
    got = mixture_residual(base, expanded, g)
    assert list(got.items()) == list(want.items())
    assert all(type(v) is Fraction for v in got.values())


@pytest.mark.parametrize("side", ["base", "expanded"])
def test_mixture_residual_rejects_a_float_value_by_its_key(side):
    values = {"base": {"a": Fraction(1, 2), "b": 1}, "expanded": {"a": Fraction(1, 3), "c": 0}}
    values[side]["bad"] = 0.25
    with pytest.raises(DomainError) as exc:
        mixture_residual(values["base"], values["expanded"], Fraction(1, 5))
    assert str(exc.value) == "value 0.25 of bad is not an exact rational"
    with pytest.raises(DomainError) as exc:
        mixture_residual({"a": 1}, {"a": 1}, 0.2)
    assert str(exc.value) == "gamma 0.2 is not an exact rational"


def test_expansion_shift_bound_randomized():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 4)
        consts = [f"c{i+1}" for i in range(n)]
        atoms = []
        for c in consts:
            if rng.random() < 0.5:
                atoms.append(("r", (c,)))
        for a, b in itertools.product(consts, repeat=2):
            if rng.random() < 0.4:
                atoms.append(("e", (a, b)))
        base_ex = GlobalExample(consts, atoms, {"r": 1, "e": 2})
        level = rng.randint(2, 3)
        k = rng.randint(1, n)
        base = marginal_distribution_a(base_ex, k)
        grown = marginal_distribution_a(expand(base_ex, level), k)
        bound = expansion_diff_bound(n, k)
        for key in set(base) | set(grown):
            diff = abs(grown.get(key, Fraction(0)) - base.get(key, Fraction(0)))
            assert diff <= bound


# ---------------------------------------------------------------------------
# noisy expansion

def test_noisy_expand_zero_noise_equals_expand():
    rng = random.Random(1)
    assert noisy_expand(PATH3, 2, 0.0, rng) == expand(PATH3, 2)


def test_noisy_expand_full_noise_saturates_congruent_slots():
    rng = random.Random(1)
    out = noisy_expand(PATH3, 2, 1.0, rng)
    # every atom over a single congruence class is present
    n, level = 3, 2
    for residue in range(n):
        cls = [out.constants[residue + t * n] for t in range(level)]
        for args in itertools.product(cls, repeat=2):
            assert any(a.pred == "e" and a.args == args for a in out.atoms)
    # cross-class atoms only come from the base copies
    assert not any(a.args == ("c1", "c3") for a in out.atoms)


def test_noisy_expand_is_seed_deterministic():
    a = noisy_expand(PATH3, 3, 0.4, random.Random(21))
    b = noisy_expand(PATH3, 3, 0.4, random.Random(21))
    assert a == b


def test_noisy_expand_validates_noise_and_level():
    with pytest.raises(DomainError):
        noisy_expand(PATH3, 2, 1.5, random.Random(0))
    with pytest.raises(DomainError):
        noisy_expand(PATH3, 0, 0.1, random.Random(0))


def test_expansions_over_the_cap_are_refused_before_building(monkeypatch):
    # level 2 of PATH3: 6 constants and 2 atoms with 2 distinct arguments
    # (2^2 copies each) make 14; noise adds 3 residues x 2^2 slots = 12 more
    monkeypatch.setattr(expansion, "EXPANSION_CAP", 14)
    assert len(expand(PATH3, 2).atoms) == 8
    with pytest.raises(CapExceededError) as exc:
        expand(PATH3, 3)
    assert exc.value.size == 9 + 2 * 3**2 and exc.value.cap == 14
    monkeypatch.setattr(expansion, "EXPANSION_CAP", 26)
    assert noisy_expand(PATH3, 2, 0.5, random.Random(5)) == noisy_expand(
        PATH3, 2, 0.5, random.Random(5)
    )
    monkeypatch.setattr(expansion, "EXPANSION_CAP", 25)
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(CapExceededError) as exc:
        noisy_expand(PATH3, 2, 0.5, rng)
    assert exc.value.size == 26
    assert rng.getstate() == state  # no draw was made


def test_required_expansion_level():
    f2 = parse_formula("forall X, Y: ~e(X,Y) | e(Y,X)")
    f3 = parse_formula("forall X, Y, Z: ~e(X,Y) | ~e(Y,Z) | e(X,Z)")
    assert required_expansion_level(ModelA(4), []) == 4
    assert required_expansion_level(MODEL_B, [f2, f3]) == 3
    with pytest.raises(DomainError):
        required_expansion_level(MODEL_B, [])


def test_statistics_drift_under_expansion_respects_bound():
    f = parse_formula("exists X, Y: X != Y & e(X,Y)")
    base_val = statistic(f, PATH3, ModelA(2))
    for level in (2, 3, 4):
        grown_val = statistic(f, expand(PATH3, level), ModelA(2))
        assert abs(grown_val - base_val) <= expansion_diff_bound(3, 2)


# ---------------------------------------------------------------------------
# statistics of an expansion without building it

_VARS = ("X", "Y", "Z")


def _matrix(rng, vocab, names, depth=0):
    """A quantifier-free formula over ``vocab`` and the variables ``names``,
    as text: 1-3 literals (atoms, or equalities between two variables),
    each possibly a nested group, joined by ``&`` or ``|``."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        if depth < 1 and rng.random() < 0.25:
            parts.append("(" + _matrix(rng, vocab, names, depth + 1) + ")")
            continue
        if len(names) > 1 and rng.random() < 0.25:
            text = "{} = {}".format(*rng.sample(names, 2))
        else:
            pred = rng.choice(sorted(vocab))
            arity = vocab[pred]
            if arity <= len(names) and rng.random() < 0.5:  # distinct arguments
                args = rng.sample(names, arity)
            else:
                args = [rng.choice(names) for _ in range(arity)]
            text = f"{pred}({','.join(args)})"
        parts.append("~" + text if rng.random() < 0.5 else text)
    return rng.choice([" & ", " | "]).join(parts)


@st.composite
def expansion_cases(draw):
    """A base structure on 1-4 constants with one predicate of each arity
    1-3 (up to two declared without atoms), a level 1-4, and a formula with
    its model: Model A closes a matrix over 1-3 variables with one
    quantifier per variable, or over an inner scope, each ``forall`` or
    ``exists``; Model B prefixes a matrix with ``forall``."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    n, level = rng.randint(1, 4), rng.randint(1, 4)
    vocab = {f"p{i}": a for i, a in enumerate(rng.sample([1, 2, 3], 3))}
    empty = set(rng.sample(sorted(vocab), rng.randint(0, 2)))
    density = rng.choice([0.2, 0.5, 0.8, 1.0])
    consts = [f"c{i}" for i in range(n)]
    atoms = [
        (p, args)
        for p in sorted(set(vocab) - empty)
        for args in itertools.product(consts, repeat=vocab[p])
        if rng.random() < density
    ]
    base = GlobalExample(consts, atoms, vocab)
    names = _VARS[: rng.randint(1, min(3, n * level))]
    if draw(st.booleans()):
        text = f"forall {', '.join(names)}: ({_matrix(rng, vocab, names)})"
        return base, level, text, stats.MODEL_B
    quantifiers = [rng.choice(["forall", "exists"]) for _ in names]
    if len(names) > 1 and rng.random() < 0.5:
        text = (
            f"{quantifiers[0]} {names[0]}: ({_matrix(rng, vocab, names[:1])}) | "
            f"({quantifiers[1]} {', '.join(names[1:])}: {_matrix(rng, vocab, names)})"
        )
    else:
        text = _matrix(rng, vocab, names)
        for q, x in reversed(list(zip(quantifiers, names))):
            text = f"{q} {x}: ({text})"
    width = rng.randint(1, min(3, n * level))
    return base, level, text, ModelA(width)


@settings(max_examples=200, deadline=None)
@given(expansion_cases())
def test_expanded_statistic_equals_the_materialised_expansion(case):
    base, level, text, kind = case
    f = parse_formula(text)
    assert expanded_statistic(f, base, kind, level) == statistic(f, expand(base, level), kind)


def test_expanded_statistic_is_the_same_in_blocks(monkeypatch):
    # level 3 of a 4-constant base: Model A width 3 has 20 residue
    # multisets, Model B over 3 variables 64 residue sequences; in blocks of
    # one row, of 7 rows with a short last block, and in one block
    base = GlobalExample(
        ["c1", "c2", "c3", "c4"],
        [("e", ("c1", "c2")), ("e", ("c2", "c2")), ("e", ("c3", "c1")), ("r", ("c4",))],
        {"r": 1, "e": 2},
    )
    cases = [
        ("exists X: forall Y: ~e(X,Y) | r(Y) | X = Y", ModelA(3)),
        ("forall X, Y, Z: ~e(X,Y) | ~e(Y,Z) | e(X,Z) | X = Z", stats.MODEL_B),
    ]
    grown = expand(base, 3)
    want = [statistic(parse_formula(t), grown, kind) for t, kind in cases]
    for cells in (1, 7, 1 << 20):
        monkeypatch.setattr(stats, "BLOCK_CELLS", cells)
        got = [expanded_statistic(parse_formula(t), base, kind, 3) for t, kind in cases]
        assert got == want


@pytest.mark.parametrize("q_holds", [True, False])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_representative_tables_are_the_tables_of_each_expansion(q_holds, level):
    # three samples of a 4-constant base, each with its own constant order:
    # column t of every table, q/0 included, is the table of sample t's
    # expansion on its first m * copies constants
    vocab = {"q": 0, "r": 1, "e": 2}
    atoms = [("r", ("c1",)), ("e", ("c1", "c3")), ("e", ("c2", "c2")), ("e", ("c4", "c1"))]
    base = GlobalExample(["c1", "c2", "c3", "c4"], atoms + [("q", ())] * q_holds, vocab)
    positions = np.array([[0, 1, 2], [3, 0, 2], [2, 3, 1]])
    copies = min(level, 2)
    size = positions.shape[1] * copies
    tables = representative_tables(stats.structure_tables(base, vocab), positions, copies)
    assert tables["q"].shape == (len(positions),)
    for t, row in enumerate(positions):
        constants = [base.constants[i] for i in row]
        held = [a for a in base.atoms if set(a.args) <= set(constants)]
        sample = GlobalExample(constants, held, vocab)
        want = stats.structure_tables(expand(sample, level), vocab)
        for p, arity in vocab.items():
            assert tables[p].shape == (size,) * arity + (len(positions),)
            cut = want[p][(slice(size),) * arity + (0,)]
            assert np.array_equal(tables[p][..., t], cut)
    assert tables["q"].tolist() == [q_holds] * len(positions)


def test_expanded_statistic_needs_no_expansion():
    # a billion-fold expansion of PATH3 has 3e9 constants; its statistic is
    # read off the 3 residues (width 1: one copy) or 3 + 3 copies (width 2)
    f1 = parse_formula("forall X: ~e(X,X)")
    assert expanded_statistic(f1, PATH3, ModelA(1), 10**9) == 1
    f2 = parse_formula("exists X, Y: e(X,Y)")
    l, n = 10**9, 3
    # a pair holds iff it is a copy of e(c1,c2) or e(c2,c3): 2 * l^2 pairs
    assert expanded_statistic(f2, PATH3, ModelA(2), l) == Fraction(2 * l * l, l * n * (l * n - 1) // 2)
    with pytest.raises(DomainError):
        expanded_statistic(f1, PATH3, ModelA(1), 0)
    with pytest.raises(DomainError):
        expanded_statistic(f1, GlobalExample([], []), ModelA(1), 2)
    with pytest.raises(DomainError):
        expanded_statistic(f2, PATH3, MODEL_B, 2)  # not universal


def test_expanded_statistic_table_cap(monkeypatch):
    # 3 residues in 2 copies: one binary table of 6^2 = 36 cells
    f = parse_formula("exists X, Y: e(X,Y)")
    want = statistic(f, expand(PATH3, 5), ModelA(2))
    monkeypatch.setattr(stats, "TABLE_CELL_CAP", 36)
    assert expanded_statistic(f, PATH3, ModelA(2), 5) == want
    monkeypatch.setattr(stats, "TABLE_CELL_CAP", 35)
    with pytest.raises(CapExceededError) as exc:
        expanded_statistic(f, PATH3, ModelA(2), 5)
    assert exc.value.size == 36 and exc.value.cap == 35


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.builds(ModelA, st.integers(1, 4)), st.just(MODEL_B)),
    st.integers(1, 4),
    st.integers(1, 7),
    st.integers(1, 5),
)
def test_residue_rows_and_shape_weights_equal_the_row_by_row_listing(kind, width, n, level):
    rows, shape, weights = expansion.residue_groundings(kind, width, n, level)
    pairs = sorted(zip(map(tuple, rows.tolist()), (weights[s] for s in shape)))
    assert pairs == sorted(oracles.residue_groundings(kind, width, n, level))
    if level == 1:
        assert rows.tolist() == list(map(list, stats.CheckedFormula(kind, width, (), None, {}, None).rows(n)))
        assert set(weights) <= {1}
    if width <= n * level:
        assert sum(weights[s] for s in shape) == kind.count(width, n * level)
    else:
        assert not len(rows)


@pytest.mark.parametrize("kind, width, listed", [(ModelA(3), 3, 20), (MODEL_B, 2, 16)])
def test_residue_listing_cap(monkeypatch, kind, width, listed):
    # 4 residues at level 3: C(4 + 3 - 1, 3) = 20 multisets of width 3, or
    # 4^2 = 16 sequences of width 2, each residue used at most 3 times
    cells = listed * width
    monkeypatch.setattr(stats, "TABLE_CELL_CAP", cells)
    rows, shape, weights = expansion.residue_groundings(kind, width, 4, 3)
    assert rows.shape == (listed, width) and len(shape) == listed
    assert sum(weights[s] for s in shape) == kind.count(width, 12)
    monkeypatch.setattr(stats, "TABLE_CELL_CAP", cells - 1)
    with pytest.raises(CapExceededError) as exc:
        expansion.residue_groundings(kind, width, 4, 3)
    assert exc.value.size == cells and exc.value.cap == cells - 1
