"""Structures, fragments, canonical forms, and the facts file format."""

import itertools
import math
import os
import pickle
import random
import subprocess
import sys

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relmarg.data import (
    CanonicalForm,
    GlobalExample,
    GroundAtom,
    LocalExample,
    canonicalize,
    format_facts,
    fragment,
    parse_facts,
)
from relmarg.errors import CapExceededError, DomainError, FactsSyntaxError, VocabularyError
from relmarg.estimation import random_structure
from relmarg.worlds import enumerate_worlds


def local_of(example: GlobalExample) -> LocalExample:
    """Relabel an example onto 1..k following its constant order."""
    relabel = {c: i for i, c in enumerate(example.constants, start=1)}
    atoms = frozenset((a.pred, tuple(relabel[arg] for arg in a.args)) for a in example.atoms)
    return LocalExample(len(example.constants), atoms)


def test_atoms_coerce_from_pairs():
    ex = GlobalExample(["a", "b"], [("e", ("a", "b"))])
    assert GroundAtom("e", ("a", "b")) in ex.atoms


def test_constants_keep_order_and_reject_duplicates():
    ex = GlobalExample(["b", "a"], [])
    assert ex.constants == ("b", "a")
    with pytest.raises(DomainError):
        GlobalExample(["a", "a"], [])


def test_atoms_must_use_known_constants():
    with pytest.raises(DomainError):
        GlobalExample(["a"], [("e", ("a", "zz"))])


def test_atom_errors_name_the_first_offending_atom_in_sorted_order():
    # atoms are checked in set order, which varies with string hashing; the
    # message names the first offender in (predicate, arguments) order
    with pytest.raises(DomainError) as exc:
        GlobalExample(["a"], [("e", ("a", "zz")), ("d", ("yy",)), ("r", ("a",))])
    assert str(exc.value) == "atom d(yy) uses constant 'yy' outside the constant set"
    with pytest.raises(VocabularyError) as exc:
        GlobalExample(["a"], [("p", ("a", "a")), ("p", ("a",)), ("q", ("a", "a", "a"))])
    assert str(exc.value) == "predicate 'p' used with arities 1 and 2"
    # local examples too: their patterns key predicates by name alone
    with pytest.raises(VocabularyError) as exc:
        LocalExample(2, [("p", (1, 2)), ("p", (1,)), ("q", (1, 1, 1))])
    assert str(exc.value) == "predicate 'p' used with arities 1 and 2"
    # a declared arity comes first
    with pytest.raises(VocabularyError) as exc:
        GlobalExample(["a"], [("p", ("a", "a")), ("p", ("a",))], {"p": 3})
    assert str(exc.value) == "predicate 'p' used with arities 3 and 1"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_atom_checks_raise_what_the_sorted_scan_finds(data):
    # unknown constants, two arities for one predicate, arities against a
    # declared vocabulary, and atoms given as GroundAtoms or as tuples in
    # any container: the same exception type and message as the per-atom
    # scan in (predicate, arguments) order, or no error when it finds none
    constants = data.draw(st.lists(st.sampled_from("abcd"), unique=True, max_size=3))
    container = data.draw(st.sampled_from([list, tuple, set, frozenset, iter]))
    hashable = container in (set, frozenset)
    name = st.sampled_from([*constants, "zz", "yy"])
    raw = data.draw(st.lists(
        st.tuples(st.sampled_from("pqr"), st.lists(name, max_size=3).map(tuple), st.booleans()),
        max_size=6,
    ))
    atoms = [
        GroundAtom(p, args) if ground else (p, args if hashable else list(args))
        for p, args, ground in raw
    ]
    vocab = data.draw(st.none() | st.dictionaries(st.sampled_from("pqrs"), st.integers(0, 3)))
    want = oracles.atom_error(constants, atoms, vocab)
    if want is None:
        example = GlobalExample(constants, container(atoms), vocab)
        assert example.atoms == frozenset(GroundAtom(p, args) for p, args, _ in raw)
    else:
        with pytest.raises((DomainError, VocabularyError)) as exc:
            GlobalExample(constants, container(atoms), vocab)
        assert type(exc.value) is type(want) and str(exc.value) == str(want)


def test_vocabulary_collects_arities():
    ex = GlobalExample(["a", "b"], [("e", ("a", "b")), ("r", ("a",))])
    assert ex.vocabulary() == {"e": 2, "r": 1}


@st.composite
def declared_structures(draw):
    """A structure on 1-4 constants over predicates of arity 0-3, some of
    them declared (with or without atoms) and some only used."""
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    vocab = {f"p{i}": a for i, a in enumerate(arities)}
    declared = draw(st.sets(st.sampled_from(sorted(vocab))))
    consts = [f"c{i}" for i in range(draw(st.integers(1, 4)))]
    rng = random.Random(draw(st.integers(0, 10_000)))
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))
    atoms = [(p, args) for p, arity in vocab.items()
             for args in itertools.product(consts, repeat=arity) if rng.random() < density]
    return GlobalExample(consts, atoms, {p: vocab[p] for p in sorted(declared)} or None)


@settings(max_examples=200, deadline=None)
@given(declared_structures())
def test_vocabulary_is_the_signature_walk_as_a_fresh_copy(ex):
    # declared predicates first, then the others by name, whatever order
    # the atoms were given or iterate in
    want = dict(ex.vocab or {})
    want.update(sorted((a.pred, len(a.args)) for a in ex.atoms if a.pred not in want))
    got = ex.vocabulary()
    assert list(got.items()) == list(want.items())
    got["zzz"] = 7
    got.update({p: a + 1 for p, a in want.items()})
    assert list(ex.vocabulary().items()) == list(want.items())
    # the position arrays are no field, and equality, hashing and printing
    # ignore the declared predicates without atoms
    twin = GlobalExample(ex.constants, ex.atoms)
    assert twin == ex and hash(twin) == hash(ex) and "positions" not in repr(ex)
    again = pickle.loads(pickle.dumps(ex))
    assert again.vocabulary() == want and again == ex
    assert not any(rows.flags.writeable for rows in again.positions.values())


@settings(max_examples=200, deadline=None)
@given(declared_structures(), st.data())
def test_array_built_structures_agree_with_atom_built_ones(ex, data):
    # the parser, fragments, world spaces and the random generator build
    # position arrays directly; each agrees with the structure built from
    # the same ground atoms
    oracles.same_structure(parse_facts(format_facts(ex)), GlobalExample(ex.constants, ex.atoms))
    subset = data.draw(st.sets(st.sampled_from(ex.constants)))
    oracles.same_structure(fragment(ex, subset), oracles.fragment(ex, subset))
    vocab = ex.vocabulary()
    if sum(len(ex.constants) ** a for a in vocab.values()) <= 12:
        space = enumerate_worlds(ex.constants, vocab)
        bits = space.encode(ex)
        atom_built = GlobalExample(space.constants, space.world_atoms(bits), space.vocabulary)
        oracles.same_structure(space.world_example(bits), atom_built)
    seed, density = data.draw(st.integers(0, 10_000)), data.draw(st.sampled_from([0.0, 0.4, 1.0]))
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    n = len(ex.constants)
    got = random_structure(n, vocab, density, rng)
    oracles.same_structure(got, oracles.random_structure(n, vocab, density, oracle_rng))
    assert rng.getstate() == oracle_rng.getstate()


def test_fragment_restricts_atoms_and_keeps_vocabulary():
    ex = GlobalExample(
        ["a", "b", "c"],
        [("e", ("a", "b")), ("e", ("b", "c")), ("r", ("c",))],
    )
    sub = fragment(ex, ["a", "b"])
    assert sub.constants == ("a", "b")
    assert sub.atoms == frozenset({GroundAtom("e", ("a", "b"))})
    # vocabulary survives even when no atom of a predicate remains
    assert sub.vocabulary()["r"] == 1


def test_fragment_keeps_base_constant_order():
    ex = GlobalExample(["a", "b", "c"], [])
    assert fragment(ex, ["c", "a"]).constants == ("a", "c")


def test_fragment_rejects_unknown_constants():
    ex = GlobalExample(["a"], [])
    with pytest.raises(DomainError):
        fragment(ex, ["q"])


# ---------------------------------------------------------------------------
# canonical forms

def _relabelings(example: GlobalExample):
    n = len(example.constants)
    for perm in itertools.permutations(range(1, n + 1)):
        mapping = dict(zip(example.constants, (str(i) for i in perm)))
        yield GlobalExample(
            sorted(mapping.values()),
            [(a.pred, tuple(mapping[c] for c in a.args)) for a in example.atoms],
        )


def test_canonical_form_is_relabeling_invariant():
    ex = GlobalExample(["x", "y", "z"], [("e", ("x", "y")), ("e", ("y", "z"))])
    forms = {canonicalize(local_of(g)) for g in _relabelings(ex)}
    assert len(forms) == 1


def test_class_size_counts_distinct_labelings():
    # single directed edge on two constants: two labelings, no symmetry
    edge = GlobalExample(["x", "y"], [("e", ("x", "y"))])
    cf = canonicalize(local_of(edge))
    assert cf.class_size == 2
    # symmetric pair: the swap is an automorphism
    both = GlobalExample(["x", "y"], [("e", ("x", "y")), ("e", ("y", "x"))])
    assert canonicalize(local_of(both)).class_size == 1
    empty = GlobalExample(["x", "y"], [])
    assert canonicalize(local_of(empty)).class_size == 1


def test_class_sizes_sum_to_labelings():
    # over all 2-constant graphs, class_size = k!/|Aut|
    for bits in range(16):
        atoms = []
        pairs = [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]
        for i, pair in enumerate(pairs):
            if bits >> i & 1:
                atoms.append(("e", pair))
        cf = canonicalize(local_of(GlobalExample(["x", "y"], atoms)))
        assert math.factorial(2) % cf.class_size == 0


def test_canonical_form_keeps_its_hash_out_of_equality_and_repr():
    form = canonicalize(local_of(GlobalExample(["x", "y"], [("e", ("x", "y")), ("r", ("y",))])))
    twin = CanonicalForm(form.width, form.atoms, form.automorphisms)
    assert form == twin and hash(form) == hash(twin) == hash((2, form.atoms, 1))
    assert form != CanonicalForm(form.width, form.atoms, 2)
    assert repr(form) == f"CanonicalForm(width=2, atoms={form.atoms!r}, automorphisms=1)"
    # another process hashes strings under another seed, so a form pickled
    # there hashes again here
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    code = (
        "import pickle, sys; from relmarg.data import CanonicalForm; "
        "sys.stdout.buffer.write(pickle.dumps(CanonicalForm(2, (('e', (1, 2)),), 1)))"
    )
    sent = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONHASHSEED": seed},
        capture_output=True, check=True,
    ).stdout
    assert hash(pickle.loads(sent)) == hash((2, (("e", (1, 2)),), 1))


def test_canonicalize_width_cap():
    wide = GlobalExample([f"c{i}" for i in range(9)], [])
    with pytest.raises(CapExceededError):
        canonicalize(local_of(wide))


# ---------------------------------------------------------------------------
# facts format

def test_parse_facts_full_form():
    text = """# friendships
@constants alice, bob, eve
fr(alice,bob).
fr(bob, alice)
sm(alice)
"""
    ex = parse_facts(text)
    assert ex.constants == ("alice", "bob", "eve")
    assert GroundAtom("fr", ("bob", "alice")) in ex.atoms
    assert len(ex.atoms) == 3


def test_parse_facts_without_directive_collects_constants():
    ex = parse_facts("e(a,b)\ne(b,c)\n")
    assert set(ex.constants) == {"a", "b", "c"}


def test_parse_facts_reports_line_numbers():
    with pytest.raises(FactsSyntaxError) as exc:
        parse_facts("e(a,b)\ne(a,\n")
    assert exc.value.line == 2


def test_parse_facts_rejects_arity_conflicts():
    with pytest.raises(FactsSyntaxError):
        parse_facts("e(a,b)\ne(a)\n")


def test_parse_facts_reads_arity_zero_atoms():
    ex = parse_facts("@constants c1, c2\nq()\nq( ).\nr(c1)\n")
    assert ex.atoms == frozenset({GroundAtom("q", ()), GroundAtom("r", ("c1",))})
    assert ex.vocabulary() == {"q": 0, "r": 1}
    assert format_facts(ex) == "@constants c1, c2\nq()\nr(c1)\n"
    for text in ("q()\nq(a)\n", "q(a)\nq()\n", "q(,)\n", "q(a,)\n"):
        with pytest.raises(FactsSyntaxError):
            parse_facts(text)


def test_format_parse_facts_round_trip():
    ex = GlobalExample(
        ["alice", "bob", "eve"],
        [("fr", ("alice", "bob")), ("sm", ("alice",))],
    )
    again = parse_facts(format_facts(ex))
    assert again.constants == ex.constants
    assert again.atoms == ex.atoms


@st.composite
def random_examples(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    consts = [f"c{i}" for i in range(n)]
    atoms = [("q", ())] if draw(st.booleans()) else []
    for c in consts:
        if draw(st.booleans()):
            atoms.append(("r", (c,)))
    for c1, c2 in itertools.product(consts, repeat=2):
        if draw(st.booleans()):
            atoms.append(("e", (c1, c2)))
    return GlobalExample(consts, atoms)


@settings(max_examples=200, deadline=None)
@given(random_examples())
def test_facts_round_trip_random(ex):
    again = parse_facts(format_facts(ex))
    assert again.constants == ex.constants
    assert again.atoms == ex.atoms


@settings(max_examples=100, deadline=None)
@given(random_examples())
def test_canonical_form_stable_under_constant_shuffle(ex):
    relabeled = next(iter(_relabelings(ex)))
    assert canonicalize(local_of(ex)) == canonicalize(local_of(relabeled))


@st.composite
def local_examples(draw):
    """A width 1-4 local example over up to three predicates of arity 1-3,
    from empty to full."""
    k = draw(st.integers(1, 4))
    arities = draw(st.lists(st.integers(1, 3), max_size=3))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(0, 10_000)))
    atoms = [
        (f"p{i}", args)
        for i, arity in enumerate(arities)
        for args in itertools.product(range(1, k + 1), repeat=arity)
        if rng.random() < density
    ]
    return LocalExample(k, atoms)


@settings(max_examples=300, deadline=None)
@given(local_examples())
@example(LocalExample(1))
@example(LocalExample(4))
def test_canonicalize_matches_brute_force(local):
    assert canonicalize(local) == oracles.canonicalize(local)
