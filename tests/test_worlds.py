"""World-space enumeration, encodings, and exact per-world statistics."""

import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_logic import _matrices, closed_formulas
from test_stats import A_POOL, B_POOL

from relmarg.data import GlobalExample
from relmarg.errors import CapExceededError, DomainError, VocabularyError
from relmarg import stats, worlds
from relmarg.logic import Forall, Predicate, Var, parse_formula, strip_foralls
from relmarg.polytope import polytope_vertices
from relmarg.stats import MODEL_B, ModelA, statistic
from relmarg.worlds import DEFAULT_ATOM_CAP, enumerate_worlds


def test_unconstrained_space_has_all_bit_patterns():
    space = enumerate_worlds(["a", "b"], {"e": 2})
    assert len(space) == 2 ** 4
    assert list(space.worlds) == list(range(16))


def test_atom_order_is_deterministic():
    space = enumerate_worlds(["a", "b"], {"r": 1, "e": 2})
    labels = [(a.pred, a.args) for a in space.atoms]
    assert labels == [
        ("e", ("a", "a")),
        ("e", ("a", "b")),
        ("e", ("b", "a")),
        ("e", ("b", "b")),
        ("r", ("a",)),
        ("r", ("b",)),
    ]


def test_hard_rules_filter_matches_brute_force():
    rule = parse_formula("forall X, Y: X = Y | e(X,Y) | e(Y,X)")
    space = enumerate_worlds(["a", "b", "c"], {"e": 2}, [rule])
    # brute filter over all 2^9 worlds
    free = enumerate_worlds(["a", "b", "c"], {"e": 2})
    expected = [
        int(bits)
        for bits in free.worlds
        if oracles.holds(rule, free.world_atoms(int(bits)), free.constants)
    ]
    assert list(space.worlds) == expected
    assert 0 < len(space) < len(free)


def test_hard_rule_validation():
    with pytest.raises(DomainError):
        enumerate_worlds(["a"], {"r": 1}, [parse_formula("r(X)")])
    with pytest.raises(DomainError):
        enumerate_worlds(["a"], {"r": 1}, [parse_formula("r(zz)")])
    with pytest.raises(DomainError):
        enumerate_worlds(["a", "a"], {"r": 1})


def test_cap_guards_enumeration(monkeypatch):
    # 3 constants, arity 3: 27 atoms > 24
    with pytest.raises(CapExceededError) as exc:
        enumerate_worlds(["a", "b", "c"], {"t": 3})
    assert exc.value.size == 27
    assert exc.value.cap == DEFAULT_ATOM_CAP
    # the cap is read when enumerating: 9 atoms fit a cap of 9, 12 do not
    monkeypatch.setattr(worlds, "DEFAULT_ATOM_CAP", 9)
    assert len(enumerate_worlds(["a", "b", "c"], {"e": 2})) == 2 ** 9
    with pytest.raises(CapExceededError) as exc:
        enumerate_worlds(["a", "b", "c"], {"e": 2, "r": 1})
    assert (exc.value.size, exc.value.cap) == (12, 9)


def test_encode_and_round_trip():
    space = enumerate_worlds(["a", "b"], {"r": 1})
    ex = GlobalExample(["a", "b"], [("r", ("b",))], {"r": 1})
    bits = space.encode(ex)
    assert space.world_atoms(bits) == ex.atoms
    assert space.world_example(bits) == ex
    assert space.world_index(bits) == bits  # unconstrained: index == pattern


def test_encode_rejects_foreign_input():
    space = enumerate_worlds(["a", "b"], {"r": 1})
    with pytest.raises(DomainError):
        space.encode(GlobalExample(["a", "c"], [("r", ("a",))], {"r": 1}))
    with pytest.raises(DomainError):
        space.encode(GlobalExample(["a", "b"], [("e", ("a", "b"))]))


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 3),
    st.lists(st.integers(0, 2), max_size=3),
    st.sets(st.sampled_from(["u0", "u1"])),
    st.data(),
)
def test_worlds_round_trip_through_the_layout(n, arities, declared, data):
    # a world's bits are its key over the space's layout: encoding the
    # structure of every world gives back its bits, whatever order the
    # structure lists its constants in and whatever atom-free predicates it
    # declares; a space over no constants still gives every predicate its
    # empty table and position array
    vocab = {f"p{i}": a for i, a in enumerate(arities)}
    assume(sum(n**a for a in vocab.values()) <= 8)
    constants = [f"c{i}" for i in range(n)]
    predicates = tuple(Predicate(p, a) for p, a in vocab.items())
    rule = closed_formulas(tuple(constants), predicates=predicates)
    rules = data.draw(st.lists(rule, max_size=1))
    space = enumerate_worlds(constants, vocab, rules)
    assert [(a.pred, a.args) for a in space.atoms] == [
        (p, tuple(constants[i] for i in args)) for p, args in stats.local_atoms(vocab, n)
    ]
    named = data.draw(st.sets(st.sampled_from(sorted(vocab) + ["u0"])))
    want = oracles.world_tables(space.worlds, n, vocab, named)
    got = worlds.world_tables(space.worlds, space.layout, named)
    assert got.keys() == want.keys()
    assert all(got[p].shape == want[p].shape and np.array_equal(got[p], want[p]) for p in want)
    shuffled = data.draw(st.permutations(constants))
    extra = {p: 1 for p in sorted(declared)}
    for bits in space.worlds.tolist():
        example = space.world_example(bits)
        oracles.same_structure(example, GlobalExample(constants, space.world_atoms(bits), vocab))
        assert space.encode(example) == bits
        assert space.encode(GlobalExample(shuffled, example.atoms, {**vocab, **extra})) == bits
    # a foreign constant, a foreign predicate and an arity clash
    atoms = list(space.atoms[-1:])
    foreign = [
        GlobalExample(constants + ["zz"], atoms),
        GlobalExample(constants, atoms + [("zz", ())]),
    ]
    if vocab and (n or vocab[min(vocab)]):
        p = min(vocab)
        clash = vocab[p] + 1 if n else 0  # over no constants only arity 0
        foreign.append(GlobalExample(constants, [(p, tuple(constants[:1]) * clash)]))
    for world in foreign:
        with pytest.raises(DomainError):
            space.encode(world)


def test_world_index_reports_filtered_patterns():
    rule = parse_formula("forall X: r(X)")
    space = enumerate_worlds(["a", "b"], {"r": 1}, [rule])
    assert len(space) == 1
    with pytest.raises(DomainError, match="hard rules"):
        space.world_index(0)


def test_count_matrix_against_per_world_statistics():
    space = enumerate_worlds(["a", "b", "c"], {"e": 2})
    per_kind = {
        ModelA(2): [
            parse_formula("exists X, Y: X != Y & e(X,Y)"),
            parse_formula("forall X, Y: ~e(X,Y) | e(Y,X)"),
        ],
        MODEL_B: [
            parse_formula("forall X, Y: ~e(X,Y) | e(Y,X)"),
            parse_formula("forall X, Y: X = Y | e(X,Y)"),
        ],
    }
    for kind, formulas in per_kind.items():
        counts = space.count_matrix(formulas, kind)
        norms = space.normalizers(formulas, kind)
        # spot-check an eighth of the worlds against the public statistic
        for idx in range(0, len(space), 8):
            ex = space.world_example(int(space.worlds[idx]))
            for j, f in enumerate(formulas):
                expected = statistic(f, ex, kind)
                assert Fraction(int(counts[idx, j]), int(norms[j])) == expected


def test_normalizers():
    space = enumerate_worlds(["a", "b", "c", "d"], {"r": 1})
    f1 = parse_formula("forall X: r(X)")
    f2 = parse_formula("forall X, Y: r(X) | r(Y)")
    assert list(space.normalizers([f1, f2], MODEL_B)) == [4, 12]
    assert list(space.normalizers([f1], ModelA(2))) == [6]
    with pytest.raises(DomainError):
        space.normalizers([f1], ModelA(5))


def test_count_matrix_validates_formulas():
    space = enumerate_worlds(["a", "b"], {"r": 1})
    with pytest.raises(DomainError):
        space.count_matrix([parse_formula("r(X)")], MODEL_B)
    # arity conflict with the space's vocabulary
    with pytest.raises(VocabularyError):
        space.count_matrix([parse_formula("forall X, Y: r(X, Y)")], MODEL_B)
    # constant-bearing formulas have no statistic, so they have no counts either
    space3 = enumerate_worlds(["c1", "c2", "c3"], {"r": 1})
    with pytest.raises(DomainError):
        space3.count_matrix([parse_formula("exists X: r(X) & r(c1)")], ModelA(1))


POOL_SPACE = enumerate_worlds(["c0", "c1", "c2"], {"r": 1, "e": 2})
POOL_FORMULAS = {
    "A": tuple(parse_formula(t) for t in A_POOL),
    "B": tuple(parse_formula(t) for t in B_POOL),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["A1", "A2", "A3", "B"]), st.integers(0, len(POOL_SPACE) - 1))
def test_count_matrix_rows_are_scaled_statistics(kind_name, idx):
    kind = MODEL_B if kind_name == "B" else ModelA(int(kind_name[1]))
    formulas = POOL_FORMULAS[kind_name[0]]
    row = POOL_SPACE.count_matrix(formulas, kind)[idx]
    norms = POOL_SPACE.normalizers(formulas, kind)
    world = POOL_SPACE.world_example(int(POOL_SPACE.worlds[idx]))
    assert [int(c) for c in row] == [
        statistic(f, world, kind) * int(n) for f, n in zip(formulas, norms)
    ]


# spaces of at most 2^8 worlds over constants that include the a and b of
# closed_formulas(); some lack e or r, so formulas may name absent predicates
ORACLE_SHAPES = [
    (("a", "b"), {"r": 1, "e": 2}),
    (("a", "b"), {"e": 2}),
    (("a", "b", "c"), {"r": 1}),
    (("a", "b", "c"), {"r": 1, "s": 1}),
    (tuple("abcdefgh"), {"r": 1}),
]


def per_world_counts(space, formulas, kind):
    """The per-world grounding loop, one oracle call per grounding: Model A
    evaluates the formula with the subset as the domain, Model B evaluates
    the matrix under the substitution."""
    rows = []
    for bits in space.worlds:
        atoms = space.world_atoms(int(bits))
        row = []
        for f in formulas:
            if isinstance(kind, ModelA):
                subsets = itertools.combinations(space.constants, kind.width)
                row.append(sum(oracles.holds(f, atoms, subset) for subset in subsets))
            else:
                vs, matrix = strip_foralls(f)
                combos = itertools.permutations(space.constants, len(vs))
                row.append(sum(
                    oracles.holds(matrix, atoms, (), {v.name: c for v, c in zip(vs, combo)})
                    for combo in combos
                ))
        rows.append(row)
    return rows


# e/2 over four constants: a width-4 group has 16 local atoms, past
# CLASS_TABLE_ATOMS; the hard rule keeps the 64 symmetric irreflexive graphs
WIDE_SHAPE = (tuple("abcd"), {"e": 2})
WIDE_RULE = parse_formula("forall X, Y: ~e(X,Y) | X != Y & e(Y,X)")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_count_matrix_matches_per_world_holds(data):
    # Model A formulas of one width, and Model B sets whose prefixes may
    # have two lengths, so two groups in one call; with or without a hard
    # rule; each group read off the world bits or, past the group limit
    # (drawn low here, or reached by the wide space), through truth tables
    x, y = Var("X"), Var("Y")
    constants, vocab = data.draw(st.sampled_from(ORACLE_SHAPES + [WIDE_SHAPE]))
    n = len(constants)
    if constants == WIDE_SHAPE[0]:
        rules = [WIDE_RULE]
        kind = ModelA(data.draw(st.sampled_from([2, 4])))
        formulas = data.draw(st.lists(closed_formulas(()), min_size=1, max_size=3))
    else:
        rules = data.draw(st.lists(closed_formulas(), max_size=1))
        if data.draw(st.booleans()):
            kind = ModelA(data.draw(st.integers(1, min(n, 3))))
            formulas = data.draw(st.lists(closed_formulas(()), min_size=1, max_size=3))
        else:
            kind = MODEL_B
            formulas = data.draw(
                st.lists(closed_formulas((), (Forall,), prenex=True), min_size=1, max_size=3)
            )
            if data.draw(st.booleans(), label="two widths"):
                formulas += [
                    Forall((x,), data.draw(_matrices([x]))),
                    Forall((x, y), data.draw(_matrices([x, y]))),
                ]
    space = enumerate_worlds(constants, vocab, rules)
    limit = data.draw(st.sampled_from([stats.CLASS_TABLE_ATOMS, 0, 2, 4]), label="group limit")
    with mock.patch.object(worlds, "CLASS_TABLE_ATOMS", limit):
        counts = space.count_matrix(formulas, kind)
    assert counts.shape == (len(space), len(formulas))
    assert counts.tolist() == per_world_counts(space, formulas, kind)


def _joined(blocks, structures):
    """Consecutive (rows, structures) key blocks as one array."""
    return np.concatenate(blocks) if blocks else np.zeros((0, structures), dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_world_keys_equal_the_keys_of_the_world_tables(data):
    # a layout of some of a space's predicates (arities 0-2) at a width up
    # to the space's, some of its worlds in any order, and rows of either
    # kind, kept as an array or streamed, in blocks of one cell, of a few
    # cells and of the default: the keys read off the bits are the keys of
    # the decoded truth tables
    n = data.draw(st.integers(1, 4))
    arities = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    assume(sum(n**a for a in arities) <= 12)
    vocab = {f"p{i}": a for i, a in enumerate(arities)}
    space = enumerate_worlds([f"c{i}" for i in range(n)], vocab)
    named = data.draw(st.sets(st.sampled_from(sorted(vocab))))
    k = data.draw(st.integers(1, n))
    layout = stats.pattern_layout({p: vocab[p] for p in named}, k)
    picked = space.worlds[data.draw(st.lists(st.integers(0, len(space) - 1), max_size=40))]
    orders = data.draw(st.sampled_from([itertools.combinations, itertools.permutations]))
    rows = np.array(list(orders(range(n), k)), dtype=np.intp).reshape(-1, k)
    tables = worlds.world_tables(picked, space.layout, named)
    want = _joined(list(stats.pattern_keys(tables, layout, rows, len(picked))), len(picked))
    streamed = data.draw(st.booleans(), label="streamed")
    cells = len(picked) * len(layout.local)
    for block_cells in (1, 7, 1 << 20):
        listing = map(tuple, rows.tolist()) if streamed else rows
        with mock.patch.object(stats, "BLOCK_CELLS", block_cells):
            blocks = list(worlds.world_keys(picked, space.layout, layout, listing))
        assert all(b.shape[1:] == (len(picked),) and b.dtype == np.intp for b in blocks)
        assert all(len(b) == 1 or len(b) * cells <= block_cells for b in blocks)
        assert np.array_equal(_joined(blocks, len(picked)), want)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORACLE_SHAPES), st.lists(closed_formulas(), max_size=3))
def test_hard_rule_filter_matches_holds(shape, rules):
    constants, vocab = shape
    space = enumerate_worlds(constants, vocab, rules)
    free = enumerate_worlds(constants, vocab)
    expected = [
        bits
        for bits in range(1 << len(free.atoms))
        if all(oracles.holds(r, free.world_atoms(bits), constants) for r in rules)
    ]
    assert space.worlds.dtype == np.int64
    assert space.worlds.tolist() == expected


def test_predicates_absent_from_the_space_are_false_everywhere():
    space = enumerate_worlds(["a", "b", "c"], {"r": 1})
    formulas = [
        parse_formula("exists X, Y: e(X,Y) | r(X)"),
        parse_formula("forall X, Y: ~e(X,Y)"),
    ]
    counts = space.count_matrix(formulas, ModelA(2))
    assert counts.tolist() == per_world_counts(space, formulas, ModelA(2))
    assert counts[:, 1].tolist() == [3] * len(space)
    b_counts = space.count_matrix([parse_formula("forall X, Y: e(X,Y) | X = Y")], MODEL_B)
    assert b_counts[:, 0].tolist() == [0] * len(space)
    # hard rules over an absent predicate keep every world or none
    assert len(enumerate_worlds(["a", "b"], {"r": 1}, [parse_formula("forall X: ~e(X,X)")])) == 4
    assert len(enumerate_worlds(["a", "b"], {"r": 1}, [parse_formula("exists X: e(X,X)")])) == 0


def test_hard_rules_over_an_empty_domain():
    # one world, the empty one: a forall holds vacuously and an exists fails
    for text, n_worlds in [
        ("forall X: r(X)", 1),
        ("exists X: r(X)", 0),
        ("forall X: exists Y: r(X) & r(Y)", 1),
        ("exists X: forall Y: r(Y)", 0),
    ]:
        space = enumerate_worlds([], {"r": 1}, [parse_formula(text)])
        assert space.worlds.tolist() == [0] * n_worlds


@pytest.mark.parametrize("cells", [1, 2 * 2**12 + 1, 4 * 2**12])
def test_count_matrix_is_the_same_in_blocks(monkeypatch, cells):
    # 2^12 worlds: every block holds 1, 2 or 4 groundings, so the last block
    # of C(3,2) = 3 subsets or P(3,3) = 6 substitutions is a short one
    vocab = {"r": 1, "e": 2}
    kinds = {ModelA(2): POOL_FORMULAS["A"], MODEL_B: POOL_FORMULAS["B"]}
    whole = enumerate_worlds(["c0", "c1", "c2"], vocab)
    want = {kind: whole.count_matrix(fs, kind).tolist() for kind, fs in kinds.items()}
    monkeypatch.setattr(stats, "BLOCK_CELLS", cells)
    blocked = enumerate_worlds(["c0", "c1", "c2"], vocab)
    for kind, fs in kinds.items():
        assert blocked.count_matrix(fs, kind).tolist() == want[kind]


def test_count_matrix_over_the_byte_cap_raises_before_allocating(monkeypatch):
    # 3 constants, {r/1, e/2}: 2^12 worlds; r names 3 atoms and e names 9
    space = enumerate_worlds(["a", "b", "c"], {"r": 1, "e": 2})
    unary = tuple(parse_formula(t) for t in (
        "exists X: r(X)", "forall X: r(X)", "exists X, Y: X != Y & r(X)", "forall X, Y: r(X) | r(Y)"
    ))
    binary = (parse_formula("forall X: e(X,X)"),)
    # truth tables: one byte per named atom and world
    monkeypatch.setattr(worlds, "WORLD_TABLE_BYTE_CAP", 9 * 2**12)
    assert space.count_matrix(binary, MODEL_B).shape == (2**12, 1)
    monkeypatch.setattr(worlds, "WORLD_TABLE_BYTE_CAP", 9 * 2**12 - 1)
    fresh = enumerate_worlds(["a", "b", "c"], {"r": 1, "e": 2})
    with pytest.raises(CapExceededError) as exc:
        fresh.count_matrix(binary, MODEL_B)
    assert (exc.value.size, exc.value.cap) == (9 * 2**12, 9 * 2**12 - 1)
    # the count matrix: eight bytes per world and formula, past the
    # 3 * 2^12 bytes of r's tables
    monkeypatch.setattr(worlds, "WORLD_TABLE_BYTE_CAP", 8 * 4 * 2**12)
    assert fresh.count_matrix(unary, ModelA(2)).shape == (2**12, 4)
    monkeypatch.setattr(worlds, "WORLD_TABLE_BYTE_CAP", 8 * 4 * 2**12 - 1)
    fresh = enumerate_worlds(["a", "b", "c"], {"r": 1, "e": 2})
    with pytest.raises(CapExceededError) as exc:
        fresh.count_matrix(unary, ModelA(2))
    assert (exc.value.size, exc.value.cap) == (8 * 4 * 2**12, 8 * 4 * 2**12 - 1)
    assert fresh._counts == {}


def test_the_byte_cap_holds_the_truth_tables_of_every_enumerable_space():
    # at most DEFAULT_ATOM_CAP named atoms over 2^DEFAULT_ATOM_CAP worlds
    assert DEFAULT_ATOM_CAP << DEFAULT_ATOM_CAP <= worlds.WORLD_TABLE_BYTE_CAP


def test_count_matrix_is_cached():
    space = enumerate_worlds(["a", "b"], {"r": 1})
    formulas = (parse_formula("forall X: r(X)"),)
    first = space.count_matrix(formulas, MODEL_B)
    assert space.count_matrix(formulas, MODEL_B) is first


def test_count_matrix_answers_from_the_columns_of_a_cached_matrix():
    # formulas that a cached matrix of the same kind holds, alone, reordered
    # or repeated, are read off its columns: the counts of a fresh space, and
    # the cache keeps the same entries with the same counts
    space = enumerate_worlds(["a", "b", "c"], {"r": 1, "e": 2})
    f, g, h = map(parse_formula, [
        "exists X: r(X)", "forall X, Y: e(X,Y) | r(Y)", "exists X, Y: X != Y & e(X,Y)"
    ])
    space.count_matrix((f, g, h), ModelA(2))
    kept = {key: counts.copy() for key, counts in space._counts.items()}
    for formulas in [(f,), (h, f), (g, g, h)]:
        counts = space.count_matrix(formulas, ModelA(2))
        fresh = enumerate_worlds(["a", "b", "c"], {"r": 1, "e": 2})
        assert np.array_equal(counts, fresh.count_matrix(formulas, ModelA(2)))
        assert space._counts.keys() == kept.keys()
        assert all(np.array_equal(space._counts[key], c) for key, c in kept.items())
    # another kind, or a formula the matrix lacks, is counted afresh
    space.count_matrix((f,), ModelA(3))
    space.count_matrix((f, parse_formula("forall X: r(X)")), ModelA(2))
    assert len(space._counts) == 3


def test_count_matrix_cache_stays_under_the_byte_cap(monkeypatch):
    # 3 constants, {r/1, e/2}: 2^12 worlds, 8 * 2^12 bytes per formula column
    column = 8 * 2**12
    monkeypatch.setattr(worlds, "WORLD_TABLE_BYTE_CAP", 3 * column)
    space = enumerate_worlds(["a", "b", "c"], {"r": 1, "e": 2})
    one = (parse_formula("forall X: r(X)"),)
    other = (parse_formula("forall X, Y: e(X,Y) | r(Y)"),)
    both = one + other
    requests = [
        (one, ModelA(2)), (other, MODEL_B), (one, ModelA(2)), (both, ModelA(2)),
        (other, MODEL_B), (both, ModelA(2)), (one, MODEL_B), (one, ModelA(2)),
    ]
    hits = []
    for formulas, kind in requests:
        cached = space._counts.get((formulas, kind))
        counts = space.count_matrix(formulas, kind)
        hits.append(counts is cached)
        assert sum(c.nbytes for c in space._counts.values()) <= 3 * column
        fresh = enumerate_worlds(["a", "b", "c"], {"r": 1, "e": 2})
        assert np.array_equal(counts, fresh.count_matrix(formulas, kind))
    # a new matrix empties the cache only when it would not fit beside it
    assert hits == [False, False, True, False, False, True, False, False]


def test_distinct_rows_are_those_of_the_count_matrix():
    # the rows of the requested columns, also when a wider cached matrix
    # answers the count matrix from its columns; the polytope holds the same
    # arrays, and none of them can be written
    space = enumerate_worlds(["a", "b", "c"], {"r": 1, "e": 2})
    f, g = map(parse_formula, ["exists X: r(X)", "forall X, Y: e(X,Y) | r(Y)"])
    space.count_matrix((f, g), ModelA(2))
    for formulas in [(g,), (g, f), (f, g)]:
        distinct = space.distinct_rows(formulas, ModelA(2))
        counts = space.count_matrix(formulas, ModelA(2))
        first, multiplicity, inverse = oracles.distinct_rows(counts)
        assert np.array_equal(distinct.first, first)
        assert np.array_equal(distinct.multiplicity, multiplicity)
        assert np.array_equal(distinct.inverse, inverse)
        assert np.array_equal(distinct.rows, counts[first])
        assert space.distinct_rows(formulas, ModelA(2)) is distinct
        assert not any(a.flags.writeable for a in distinct)
        poly = polytope_vertices(formulas, space, ModelA(2))
        assert poly.counts is distinct.rows
        assert poly.generators == tuple(int(space.worlds[i]) for i in first)


def test_distinct_rows_are_dropped_with_the_count_matrices(monkeypatch):
    # 3 constants, {r/1, e/2}: 2^12 worlds; a count column and the inverse
    # of a space's distinct rows take 8 * 2^12 bytes each
    column = 8 * 2**12
    monkeypatch.setattr(worlds, "WORLD_TABLE_BYTE_CAP", 3 * column)
    space = enumerate_worlds(["a", "b", "c"], {"r": 1, "e": 2})
    one = (parse_formula("forall X: r(X)"),)
    both = one + (parse_formula("forall X, Y: e(X,Y) | r(Y)"),)
    kept = space.distinct_rows(one, ModelA(2))
    assert list(space._counts) == list(space._rows) == [(one, ModelA(2))]
    assert column < kept.nbytes < 2 * column
    # two more columns would take the cache past the cap: the kept rows go
    # with the kept matrices
    space.count_matrix(both, ModelA(2))
    assert list(space._counts) == [(both, ModelA(2))]
    assert not space._rows
    # rows answered from the wider matrix's columns would take it past the
    # cap again, and a fresh space has the same rows
    again = space.distinct_rows(one, ModelA(2))
    assert list(space._rows) == [(one, ModelA(2))] and not space._counts
    fresh = enumerate_worlds(["a", "b", "c"], {"r": 1, "e": 2}).distinct_rows(one, ModelA(2))
    assert all(np.array_equal(a, b) for a, b in zip(again, fresh))


def test_statistics_sum_identity_over_space():
    # summing a width-k subset count over all unconstrained worlds factorises:
    # each subset contributes (number of worlds whose restriction satisfies f)
    # = sat_k * 2^(atoms outside the subset)
    space = enumerate_worlds(["a", "b", "c"], {"r": 1})
    f = parse_formula("exists X: r(X)")
    counts = space.count_matrix([f], ModelA(2))
    total = int(counts.sum())
    per_subset = 0
    for subset in itertools.combinations("abc", 2):
        sat = sum(
            1
            for bits in range(4)
            if oracles.evaluate(
                f,
                GlobalExample(
                    subset,
                    [("r", (c,)) for i, c in enumerate(subset) if bits >> i & 1],
                    {"r": 1},
                ),
            )
        )
        per_subset += sat * 2  # one atom outside each 2-subset
    assert total == per_subset


def test_worlds_array_dtype_and_order():
    space = enumerate_worlds(["a", "b", "c"], {"r": 1})
    assert space.worlds.dtype == np.int64
    assert list(space.worlds) == sorted(space.worlds)
