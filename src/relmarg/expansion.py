"""Blow a structure up to a multiple of its size while preserving its local look.

The l-level expansion of (A, C) with |C| = n lives on l*n constants; position
i and position j are congruent iff i = j (mod n).  Each atom is copied by
replacing each of its distinct constants, independently of the other
constants in that atom, by every congruent constant.  Width-k fragment
statistics of the result stay within a closed-form bound of the original's,
and adding independent noise on the congruent atom slots keeps every local
example possible, which is what pushes estimated marginals into the interior
of the polytope.

A statistic of an expansion needs no expansion: permuting the copies of a
residue class is an automorphism, so ``expanded_statistics`` evaluates one
representative grounding per residue pattern on the truth tables of the
first few copies.  The model kind orders the patterns, multisets for Model A
and sequences for Model B, and ``residue_groundings`` lists them as one
array of rows, kept read-only for later calls when it has at most
``stats.LISTING_CELLS`` positions.  A row's shape, its sorted copy
indices, fixes how many groundings it stands for; ``stats.distinct_rows``
numbers the shapes, so a weight is computed once per shape and the rows
that hold are counted per shape.  Its cost does not grow with the level.
It reads the expansions of many samples at once, one structure column
each, as integer hits over integer totals, and is the one reader of
expanded statistics: ``expanded_statistic`` is its one-sample case and
``estimation.run_error_experiment`` its batch of trials.  ``expand`` and
``noisy_expand`` materialise an expansion for the CLI ``expand`` command,
the noisy pipeline and the oracles of the verification suites and tests,
under ``EXPANSION_CAP``, as position arrays: ``expand`` copies each
predicate's rows with one pattern of repeated arguments by position
arithmetic, and ``noisy_expand`` finds the absent noise slots by a search
of the sorted rows, so neither names an atom.
``mixture_residual`` solves the mixture decomposition of a Model A
marginal over one common denominator.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
import random
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import stats
from .data import CanonicalForm, GlobalExample, canonical_rows, position_grid, row_keys
from .errors import CapExceededError, DomainError
from .logic import Formula
from .stats import (
    CheckedFormula,
    ModelKind,
    check_formulas,
    grounding_truths,
    structure_tables,
)

# constants, atoms and noise slots one expansion may materialise
EXPANSION_CAP = 1_000_000


def _extended_names(constants: tuple[str, ...], level: int) -> list[str]:
    names = list(constants)
    taken = set(names)
    for i in range(len(constants) + 1, level * len(constants) + 1):
        cand = f"c{i}"
        while cand in taken:
            cand += "_"
        names.append(cand)
        taken.add(cand)
    return names


def _repeat_patterns(rows: np.ndarray) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """The (atoms, arity) position array ``rows`` split by pattern of
    repeated arguments: for each pattern met, the index of the first
    argument with each argument's value (``args.index``) and its rows."""
    members: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(rows.tolist()):
        members.setdefault(tuple(map(row.index, row)), []).append(i)
    return [(first, rows[i]) for first, i in members.items()]


def _check_size(
    example: GlobalExample,
    level: int,
    patterns: Mapping[str, list[tuple[tuple[int, ...], np.ndarray]]],
    noise_slots: int = 0,
):
    """Raise ``CapExceededError`` before building an expansion with more than
    ``EXPANSION_CAP`` constants, atoms (each atom of the ``_repeat_patterns``
    of a predicate has level^(distinct arguments) copies) and noise slots
    together."""
    size = level * len(example.constants) + noise_slots
    size += sum(
        len(rows) * level ** len(set(first)) for split in patterns.values() for first, rows in split
    )
    if size > EXPANSION_CAP:
        raise CapExceededError(
            f"a level-{level} expansion of {len(example.constants)} constants would "
            f"build {size} constants, atoms and noise slots, over the cap of {EXPANSION_CAP}",
            size,
            EXPANSION_CAP,
        )


def expand(example: GlobalExample, level: int) -> GlobalExample:
    """The ``level``-fold expansion of ``example``.

    New constants extend the base order as c_{n+1} .. c_{l*n}; restricting the
    result to the first n constants gives back the base structure.

    Each predicate's atoms with one pattern of repeated arguments are copied
    together, over their d distinct argument slots, by position arithmetic
    alone: copy (c_1, ..., c_d) of a base atom puts slot j at position
    ``residue_j + c_j * n``, so the (base atoms, level^d, d) position array
    holds exactly the level^d copies that ``_check_size`` charges.  Each
    argument reads its slot's column.  No atom is named or checked again.
    """
    if level < 1:
        raise DomainError("expansion level must be at least 1")
    if not example.constants:
        raise DomainError("cannot expand an empty constant set")
    if level == 1:
        return example
    patterns = {p: _repeat_patterns(rows) for p, rows in example.positions.items()}
    _check_size(example, level, patterns)
    n = len(example.constants)
    positions = {}
    for p, split in patterns.items():
        copied = []
        for first, rows in split:
            slots = sorted(set(first))  # the d distinct arguments
            copies = position_grid(level, len(slots)) * n  # (level^d, d)
            held = (rows[:, None, slots] + copies)[..., list(map(slots.index, first))]
            copied.append(held.reshape(len(rows) * len(copies), len(first)))
        rows = np.concatenate(copied) if copied else example.positions[p]
        positions[p] = canonical_rows(rows, n * level)
    names = _extended_names(example.constants, level)
    return GlobalExample._from_positions(tuple(names), positions, example.vocab)


# ---------------------------------------------------------------------------
# statistics of an expansion, without building it

def residue_groundings(
    kind: ModelKind, width: int, n: int, level: int
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """One representative per class of interchangeable groundings of the
    level-``level`` expansion of ``n`` constants, as an (R, ``width``)
    position array; the shape of each row, an index into the shapes; and
    the number of groundings a row of each shape stands for.

    Position ``r + t*n`` of the expansion is copy t of residue r.  Permuting
    the copies of a residue is an automorphism of the expansion, so a Model A
    subset holds or fails with its residue multiset and a Model B
    substitution with its residue sequence (its matrix is quantifier-free and
    injectivity gives equal residues distinct copies): ``kind.residue_orders``.
    The representative gives the i-th argument of residue r copy i, so it
    lies in the first ``min(level, width)`` copies.  A row's shape is its
    sorted copies, which fix how many residues it uses c times, so every row
    of a shape stands for the same prod_r ``kind.ways(level, c_r)``
    groundings, c_r arguments having residue r, read off its first row;
    rows that use a residue more than ``level`` times stand for none and
    are dropped.  Shapes are numbered in the order of their first rows
    (``stats.distinct_rows``).
    By Vandermonde the weights of the rows sum to the groundings over ``n *
    level`` constants.  Weights are a tuple of Python ints: at large levels
    they overflow int64.

    A listing of more than ``TABLE_CELL_CAP`` cells, ``kind.residue_count``
    rows of ``width`` positions, raises ``CapExceededError`` before any row
    is listed, on every call.  Past that check, a listing of at most
    ``stats.LISTING_CELLS`` cells is kept (``stats.LISTINGS`` of them) and
    every call of the same kind, width, n and level shares it, so both
    arrays are read-only; a longer one is built afresh on each call.
    """
    listed = kind.residue_count(n, width)
    stats.check_cells(
        listed * width, f"residue groundings of {listed * width} cells "
        f"({listed} rows of width {width} over {n} constants)"
    )
    if listed * width > stats.LISTING_CELLS:
        return _residue_listing.__wrapped__(kind, width, n, level)
    return _residue_listing(kind, width, n, level)


@functools.lru_cache(maxsize=stats.LISTINGS)
def _residue_listing(
    kind: ModelKind, width: int, n: int, level: int
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """``residue_groundings`` after its cap check.  The rows come from the
    kind's ``itertools`` order through one ``np.fromiter``."""
    listed = kind.residue_count(n, width)
    flat = itertools.chain.from_iterable(kind.residue_orders(range(n), width))
    residues = np.fromiter(flat, dtype=np.intp, count=listed * width).reshape(listed, width)
    copies = np.zeros_like(residues)  # earlier arguments with the same residue
    for i, j in itertools.combinations(range(width), 2):
        copies[:, j] += residues[:, i] == residues[:, j]
    kept = (copies < level).all(axis=1)
    residues, copies = residues[kept], copies[kept]
    # sorted copies rise from 0 in steps of 0 or 1, so a shape is its steps
    steps = np.diff(np.sort(copies, axis=1), axis=1)
    row, _, shape = stats.distinct_rows(steps, 2)
    # a shape's weight from its first row: residue x used r.count(x) times
    weights = tuple(
        math.prod(kind.ways(level, r.count(x)) for x in set(r)) for r in residues[row].tolist()
    )
    rows = residues + copies * n
    # a kept listing is shared by every call, so no caller may write it
    rows.flags.writeable = shape.flags.writeable = False
    return rows, shape, weights


def representative_tables(
    tables: Mapping[str, np.ndarray], positions: np.ndarray, copies: int
) -> dict[str, np.ndarray]:
    """Truth tables of the first ``copies`` copies of T expansions, one
    structure column each, read off the base ``tables``: row t of the
    (T, m) ``positions`` lists the base constants of expansion t, and
    expanded position ``r + c*m`` is copy c of ``positions[t, r]``.  A
    predicate of arity a gets shape ``(m * copies,) * a + (T,)``, so an
    arity-0 one gets its base truth once per structure, shape (T,).

    As ``expand`` builds it, an atom holds at expanded positions iff the base
    atom holds at their residues and arguments with equal residue are the
    same copy.  ``expanded_statistics`` sizes the blocks of ``positions``
    so that their tables fit ``TABLE_CELL_CAP`` cells.
    """
    structures, m = positions.shape
    size = m * copies
    copy, residue = np.divmod(np.arange(size), m)
    at = positions.T[residue]  # (size, T): base position of each expanded one
    out = {}
    for pred, table in tables.items():
        arity = table.ndim - 1
        # argument a varies along axis a, the structure along the last axis
        args = tuple(
            at.reshape((1,) * a + (size,) + (1,) * (arity - 1 - a) + (structures,))
            for a in range(arity)
        )
        # the base structure axis read once per structure, so that an arity-0
        # truth has one entry per structure too
        held = table[args + (np.zeros(structures, dtype=np.intp),)]
        if arity > 1:
            grid, copy_grid = np.ix_(*[residue] * arity), np.ix_(*[copy] * arity)
            for i, j in itertools.combinations(range(arity), 2):
                held = held & ((grid[i] != grid[j]) | (copy_grid[i] == copy_grid[j]))[..., None]
        out[pred] = held
    return out


def expanded_statistics(
    checked: Sequence[CheckedFormula],
    tables: Mapping[str, np.ndarray],
    positions: np.ndarray,
    level: int,
) -> tuple[list[list[int]], list[int]]:
    """The statistic of each checked formula in the level-``level``
    expansion of each sample, as integer hits and totals: one list per
    formula with the hits in the expansion of each row of the (T, m)
    ``positions`` into the base ``tables``, and each formula's number of
    groundings over ``m * level`` constants.  Hits over total is the exact
    statistic.

    Each width's ``residue_groundings`` are listed once, and each
    representative is evaluated on ``representative_tables`` of the first
    ``min(level, widest width)`` copies.  The rows that hold are counted per
    sample and row shape in int64, one matrix product of a block's truths
    and the shapes' one-hot columns per block of rows, and each sample's
    counts meet the Python-int shape weights once, at the end, so the hits
    are exact at any level.  One sample's tables or one width's residue
    listing over ``TABLE_CELL_CAP`` cells raise ``CapExceededError``;
    otherwise samples go in blocks whose tables fit the cap together, so a
    formula is evaluated once per block.
    """
    structures, m = positions.shape
    copies = min(level, max(c.width for c in checked))
    size = m * copies
    cells = sum(size ** (t.ndim - 1) for t in tables.values())
    stats.check_cells(cells, f"truth tables of {cells} cells over {size} constants")
    step = stats.TABLE_CELL_CAP // max(cells, 1)
    residues = {key: residue_groundings(*key, m, level) for key in {(c.kind, c.width) for c in checked}}
    # rows that hold, per sample and shape
    counts = [np.zeros((structures, len(residues[c.kind, c.width][2])), np.int64) for c in checked]
    for start in range(0, structures, step):
        block = positions[start:start + step]
        grown = representative_tables(tables, block, copies)
        for held_rows, c in zip(counts, checked):
            rows, shape, weights = residues[c.kind, c.width]
            first = 0
            for held in grounding_truths(c, rows, grown, len(block)):
                one_hot = shape[first:first + len(held), None] == np.arange(len(weights))
                held_rows[start:start + len(block)] += np.matmul(held.T, one_hot, dtype=np.int64)
                first += len(held)
    # each sample's held rows per shape meet the Python-int shape weights once
    exact = [np.array(residues[c.kind, c.width][2], dtype=object) for c in checked]
    hits = [(h.astype(object) @ w).tolist() for h, w in zip(counts, exact)]
    return hits, [c.count(m * level) for c in checked]


def expanded_statistic(f: Formula, example: GlobalExample, kind: ModelKind, level: int) -> Fraction:
    """``statistic(f, expand(example, level), kind)``, without building the
    expansion: the one-sample case of ``expanded_statistics``, whose cost
    does not grow with ``level``, so no ``EXPANSION_CAP`` applies."""
    if level < 1:
        raise DomainError("expansion level must be at least 1")
    if not example.constants:
        raise DomainError("cannot expand an empty constant set")
    n = len(example.constants)
    (checked,) = check_formulas((f,), example.vocabulary(), kind, n * level)
    base = structure_tables(example, checked.vocabulary)
    ((hits,),), (total,) = expanded_statistics((checked,), base, np.arange(n)[None], level)
    return Fraction(hits, total)


def required_expansion_level(kind: ModelKind, formulas: Sequence[Formula]) -> int:
    """Smallest noisy-expansion level that makes every width reachable.

    Noise lands only on atoms over pairwise-congruent constants, so every
    width-k local example is reachable only when k constants can share a
    congruence class: level >= k for the widest grounding of the checked
    formulas, the subset width (Model A) or the longest prefix (Model B).
    """
    return kind.widest([c.width for c in check_formulas(formulas, {}, kind)])


def noisy_expand(
    example: GlobalExample,
    level: int,
    eps: float,
    rng: random.Random,
) -> GlobalExample:
    """Expand, then add each absent atom over pairwise-congruent constants
    independently with probability ``eps``.

    Every width-k local example is reachable only at level >= k (see
    :func:`required_expansion_level`); callers choose the level.

    The slots of a predicate are position rows ``r + t*n``, residue r in
    order and copies t in ``itertools.product`` order, predicates by name;
    ``rng.random()`` is drawn once per slot absent from the expansion, in
    that order, and the drawn atoms join the position arrays.
    """
    if not 0 <= eps <= 1:
        raise DomainError(f"noise probability {eps} outside [0, 1]")
    n = len(example.constants)
    vocab = example.vocabulary()
    patterns = {p: _repeat_patterns(rows) for p, rows in example.positions.items()}
    _check_size(example, level, patterns, sum(n * level**arity for arity in vocab.values()))
    expanded = expand(example, level)
    size = n * level
    positions = dict(expanded.positions)
    for pred in sorted(vocab):
        arity = vocab[pred]
        slots = np.arange(n)[:, None, None] + position_grid(level, arity) * n
        slots = slots.reshape(n * level**arity, arity)
        held = positions[pred]
        # sorted rows have sorted keys: a slot is held when a key lies between
        # its two insertion points
        keys, held_keys = row_keys(slots, size), row_keys(held, size)
        first, after = np.searchsorted(held_keys, keys), np.searchsorted(held_keys, keys, "right")
        absent = slots[first == after]
        drawn = np.array([rng.random() for _ in range(len(absent))]) < eps
        if drawn.any():
            positions[pred] = canonical_rows(np.concatenate([held, absent[drawn]]), size)
    return GlobalExample._from_positions(expanded.constants, positions, example.vocab)


# ---------------------------------------------------------------------------
# closed-form bounds

def expansion_diff_bound(n: int, k: int) -> Fraction:
    """Upper bound on the width-k statistic shift between a size-n structure
    and any of its expansions: 1 - ((n-k+1)/n)^(k-1)."""
    if not 1 <= k <= n:
        raise DomainError(f"width {k} outside 1..{n}")
    return 1 - Fraction(n - k + 1, n) ** (k - 1)


def gamma(n: int, k: int, l: int) -> Fraction:
    """Mixture weight of the off-diagonal part of an l-level expansion's
    width-k marginal: 1 - C(n,k) * l^k / C(n*l, k)."""
    if not 1 <= k <= n:
        raise DomainError(f"width {k} outside 1..{n}")
    if l < 1:
        raise DomainError("level must be at least 1")
    return 1 - Fraction(math.comb(n, k) * l**k, math.comb(n * l, k))


def mixture_residual(
    base: Mapping[CanonicalForm, Fraction],
    expanded: Mapping[CanonicalForm, Fraction],
    g: Fraction,
) -> dict[CanonicalForm, Fraction]:
    """Solve ``expanded = (1-g) * base + g * residual`` for the residual.

    Exact in rationals: values and ``g`` must be ints or ``Fraction``s, and
    a float raises ``DomainError``.  Every value is scaled to one common
    denominator D, so with g = p/q each key's residual is the one fraction
    (q * E - (q - p) * B) / (p * D) of the scaled integers E and B.  The
    residual is a probability distribution whenever the mixture
    decomposition holds, which the verification suites assert.
    """
    if not isinstance(g, numbers.Rational):
        raise DomainError(f"gamma {g!r} is not an exact rational")
    if g == 0:
        raise DomainError("gamma is zero; the residual is undefined")
    try:
        scale = math.lcm(*map(_DENOMINATOR, base.values()), *map(_DENOMINATOR, expanded.values()))
    except (AttributeError, TypeError):
        key, value = next(
            (key, value) for values in (base, expanded) for key, value in values.items()
            if not isinstance(value, numbers.Rational)
        )
        raise DomainError(f"value {value!r} of {key} is not an exact rational") from None
    p, q = int(g.numerator), int(g.denominator)
    # the scaled numerators, keyed in order of first appearance
    numerators = {key: (p - q) * _scaled(value, scale) for key, value in base.items()}
    for key, value in expanded.items():
        numerators[key] = numerators.get(key, 0) + q * _scaled(value, scale)
    return {key: Fraction(numerator, p * scale) for key, numerator in numerators.items()}


_DENOMINATOR = operator.attrgetter("denominator")


def _scaled(value: Fraction | int, scale: int) -> int:
    """``value * scale``, an integer when ``scale`` is a multiple of the
    denominator."""
    return int(value.numerator) * (scale // int(value.denominator))
