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
first few copies, weighted by the number of groundings it stands for.  The
model kind lists the patterns and weights: multisets for Model A, sequences
for Model B.  Its cost does not grow with the level.  It reads the
expansions of many samples at once, one structure column each, and is the
one reader of expanded statistics: ``expanded_statistic`` is its
one-sample case and ``estimation.run_error_experiment`` its batch of trials.
``expand`` and ``noisy_expand`` materialise an expansion for the CLI
``expand`` command, the noisy pipeline and the oracles of the verification
suites and tests, under ``EXPANSION_CAP``.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import stats
from .data import CanonicalForm, GlobalExample, GroundAtom
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


def _check_size(example: GlobalExample, level: int, noise_slots: int = 0):
    """Raise ``CapExceededError`` before building an expansion with more than
    ``EXPANSION_CAP`` constants, atoms (each atom has level^(distinct
    arguments) copies) and noise slots together."""
    size = level * len(example.constants) + noise_slots
    size += sum(level ** len(set(atom.args)) for atom in example.atoms)
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
    """
    if level < 1:
        raise DomainError("expansion level must be at least 1")
    if not example.constants:
        raise DomainError("cannot expand an empty constant set")
    if level == 1:
        return example
    _check_size(example, level)
    n = len(example.constants)
    names = _extended_names(example.constants, level)
    index = {c: i for i, c in enumerate(example.constants)}  # 0-based residues
    atoms = set()
    for atom in example.atoms:
        distinct = sorted(set(atom.args), key=atom.args.index)
        choices = [[names[index[c] + t * n] for t in range(level)] for c in distinct]
        for picks in itertools.product(*choices):
            relabel = dict(zip(distinct, picks))
            atoms.add(GroundAtom(atom.pred, tuple(relabel[a] for a in atom.args)))
    return GlobalExample(tuple(names), frozenset(atoms), example.vocab)


# ---------------------------------------------------------------------------
# statistics of an expansion, without building it

def residue_groundings(
    kind: ModelKind, width: int, n: int, level: int
) -> tuple[list[tuple[int, ...]], list[int]]:
    """One representative per class of interchangeable groundings of the
    level-``level`` expansion of ``n`` constants, and the number of groundings
    each stands for.

    Position ``r + t*n`` of the expansion is copy t of residue r.  Permuting
    the copies of a residue is an automorphism of the expansion, so a Model A
    subset holds or fails with its residue multiset and a Model B
    substitution with its residue sequence (its matrix is quantifier-free and
    injectivity gives equal residues distinct copies): ``kind.residue_orders``.
    The representative gives the i-th argument of residue r copy i, so it
    lies in the first ``min(level, width)`` copies, and stands for prod_r
    ``kind.ways(level, c_r)`` groundings, c_r arguments having residue r.  By
    Vandermonde the counts sum to the groundings over ``n * level``
    constants.  Counts are Python ints: at large levels they overflow int64.
    A listing of more than ``TABLE_CELL_CAP`` cells, ``kind.residue_count``
    rows of ``width`` positions, raises ``CapExceededError`` before any row
    is listed.
    """
    listed = kind.residue_count(n, width)
    stats.check_cells(
        listed * width, f"residue groundings of {listed * width} cells "
        f"({listed} rows of width {width} over {n} constants)"
    )
    rows, weights = [], []
    for residues in kind.residue_orders(range(n), width):
        copies: dict[int, int] = {}
        row = []
        for r in residues:
            row.append(r + copies.get(r, 0) * n)
            copies[r] = copies.get(r, 0) + 1
        weight = math.prod(kind.ways(level, c) for c in copies.values())
        if weight:  # no residue used more than ``level`` times
            rows.append(tuple(row))
            weights.append(weight)
    return rows, weights


def representative_tables(
    tables: Mapping[str, np.ndarray], positions: np.ndarray, copies: int
) -> dict[str, np.ndarray]:
    """Truth tables of the first ``copies`` copies of T expansions, one
    structure column each, read off the base ``tables``: row t of the
    (T, m) ``positions`` lists the base constants of expansion t, and
    expanded position ``r + c*m`` is copy c of ``positions[t, r]``.

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
        held = table[args + (0,)]
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
) -> list[list[Fraction]]:
    """The statistic of each checked formula in the level-``level``
    expansion of each sample, one list per formula with one exact value per
    row of the (T, m) ``positions`` into the base ``tables``.

    Each width's ``residue_groundings`` are listed once, and each
    representative is evaluated on ``representative_tables`` of the first
    ``min(level, widest width)`` copies; the weights of the rows that hold
    sum to the hits.  One sample's tables or one width's residue listing
    over ``TABLE_CELL_CAP`` cells raise ``CapExceededError``; otherwise
    samples go in blocks whose tables fit the cap together, so a formula is
    evaluated once per block.
    """
    structures, m = positions.shape
    copies = min(level, max(c.width for c in checked))
    size = m * copies
    cells = sum(size ** (t.ndim - 1) for t in tables.values())
    stats.check_cells(cells, f"truth tables of {cells} cells over {size} constants")
    step = stats.TABLE_CELL_CAP // max(cells, 1)
    residues = {
        key: residue_groundings(*key, m, level) for key in {(c.kind, c.width) for c in checked}
    }
    hits = [[0] * structures for _ in checked]
    for start in range(0, structures, step):
        block = positions[start:start + step]
        grown = representative_tables(tables, block, copies)
        for sums, c in zip(hits, checked):
            rows, weights = residues[c.kind, c.width]
            first = 0
            for held in grounding_truths(c, rows, grown, len(block)):
                chunk = weights[first:first + len(held)]
                for t, column in enumerate(held.T, start):
                    sums[t] += sum(itertools.compress(chunk, column))
                first += len(held)
    totals = [c.count(m * level) for c in checked]
    return [[Fraction(h, total) for h in sums] for sums, total in zip(hits, totals)]


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
    return expanded_statistics((checked,), base, np.arange(n)[None], level)[0][0]


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
    """
    if not 0 <= eps <= 1:
        raise DomainError(f"noise probability {eps} outside [0, 1]")
    n = len(example.constants)
    vocab = example.vocabulary()
    _check_size(example, level, sum(n * level**arity for arity in vocab.values()))
    expanded = expand(example, level)
    atoms = set(expanded.atoms)
    for pred in sorted(vocab):
        arity = vocab[pred]
        for residue in range(n):
            cls = [expanded.constants[residue + t * n] for t in range(level)]
            for args in itertools.product(cls, repeat=arity):
                atom = GroundAtom(pred, args)
                if atom not in expanded.atoms and rng.random() < eps:
                    atoms.add(atom)
    return GlobalExample(expanded.constants, frozenset(atoms), example.vocab)


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

    Exact in rationals; the residual is a probability distribution whenever
    the mixture decomposition holds, which the verification suites assert.
    """
    if g == 0:
        raise DomainError("gamma is zero; the residual is undefined")
    keep = 1 - g
    zero = Fraction(0)
    return {
        key: (expanded.get(key, zero) - keep * base.get(key, zero)) / g
        for key in dict.fromkeys([*base, *expanded])
    }
