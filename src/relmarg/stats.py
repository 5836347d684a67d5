"""Relational marginal statistics over global examples, exact in rationals.

Two sampling models, and the asymmetry between them is the whole point:

* Model A (fragment statistics): draw a uniformly random size-k subset S of
  the constants and ask whether the closed formula holds classically in the
  fragment over S.  Quantifiers range over all of S, so non-injective
  variable assignments (X and Y naming the same constant) count.
* Model B (substitution statistics): a formula ``forall V1..Vk: body`` is
  scored by the fraction of injective substitutions of V1..Vk into the full
  constant set whose grounded body holds.  Only injective assignments count,
  and only universally quantified formulas are admitted.

Both are the fraction of a formula's groundings that hold; they differ only
in what a grounding is.  ``ModelA``, ``ModelB`` and the ``CheckedFormula``
record of each formula (``check_formulas``) are the only code that knows
which variables a grounding binds, which body it decides, its width, and
how many and which groundings n constants have, and they check a formula
on its kept ``logic.Signature``; ``holds_over`` is the only
code that decides whether a formula holds at one.  It may decide each
local pattern once: every grounding row of either kind lists distinct
positions, so a formula holds at a row exactly when it holds on the row's
local pattern (for Model A, the subset's fragment), and its truth at a
grounding is read off a table of its truths over every local pattern.
Every statistic in the package goes through them, by exhaustive
enumeration, and is returned as a ``fractions.Fraction``; convert at the
boundary if floats are wanted.

``holds_over`` evaluates a formula over a batch of (grounding, structure)
pairs at once.  A grounding is a row of constant positions, a structure is a
column of the per-predicate truth tables, and an atom is a gather from those
tables.  A quantifier adds one broadcast axis per variable over the
domain, so its body is evaluated once for every assignment and any/all
reduce the axes.  Its work, one table read per atom and assignment of the
variables around it (``_axis_cells``), is charged for every grounding and
structure before anything is evaluated, and past ``QUANTIFIER_READ_CAP``
raises ``CapExceededError`` (``check_reads``).  One example has one
column (``structure_tables``, which fills each predicate's table by one
scatter of the example's position array); a world
space has one per world (``worlds.world_tables``, decoded only for this
evaluator: the hard-rule filter, pattern tables and count-matrix groups
past ``CLASS_TABLE_ATOMS``), and the expansions of an error experiment's
samples one per trial (``expansion.representative_tables``).
``grounding_truths`` decides a formula at blocks of groundings;
``count_groundings`` counts them for ``statistic``, a world space's
groups past ``CLASS_TABLE_ATOMS`` local atoms and the index-set estimator,
and ``expansion.expanded_statistics``, the one reader of expanded
statistics, counts them per row shape and weights each shape's count once.
A checked formula of either kind over at most ``CLASS_TABLE_ATOMS``
local atoms, whose evaluation would read more atoms than a pattern has
(reads counted off its atoms' depths), gets a
``PatternTable``: one ``holds_over`` call over its 2^M width-k local
worlds, its bound variables at the positions 0..k-1, gives its truth on
every pattern, and the truths are read at the groundings' pattern keys
(``_pattern_table``, at most 8 KiB a table, ``PATTERN_TABLES`` = 128
kept).  Other formulas go through ``holds_over`` at every grounding.
``WorldSpace.count_matrix`` reads every formula of a group within the limit
off a table over the group's layout, which the same cache keeps.  The
hard-rule filter of ``enumerate_worlds`` calls ``holds_over`` at a rule's
one grounding, and ``logic.holds`` (behind ``logic.evaluate``) at one
grounding of one structure: no other code in the package decides a
formula.

The groundings of n constants are listed by ``grounding_rows`` in the
kind's ``itertools`` order.  A listing of at most ``LISTING_CELLS`` = 2^14
positions is built once and kept as one read-only position array per order,
width and n (at most 130 KiB each, ``LISTINGS`` = 32 kept), which
``CheckedFormula.rows`` (behind ``statistic``, the ground truths of error
experiments and ``WorldSpace.count_matrix``) and the subset readers share;
a longer one is a ``RowStream``, which knows its length and which
``index_blocks`` reads block by block, so memory does not grow with C(n, k)
or P(n, v).  ``expansion.residue_groundings`` keeps
its residue listings under the same limit.

A formula's truth, a subset's class, a world and a shrunk world are each
read as a bit pattern over one order of the width-k local atoms, and
``PatternLayout`` is the one owner of that order: ``pattern_layout`` builds
the width k, the local atoms, each predicate's run (argument arrays and
columns) and the place values of a key (int16 when every key fits it,
int64 when every key fits that), all read-only, once per vocabulary and
width while its cache keeps it (``LAYOUTS``), and no reader of a layout
takes its width apart from it.  A world space keeps the width-n layout of
its vocabulary (``WorldSpace.layout``), so a world's bits are its key.
``gather_patterns`` reads the bits of a block of position rows over a
layout from truth tables, one gather per predicate, and ``pattern_keys``,
the one reader of pattern keys off truth tables, folds them into intp keys
in blocks of at most ``BLOCK_CELLS`` cells.  A world space reads its keys off
its worlds' bits instead (``worlds.world_keys``): its ``count_matrix``
and ``maxent.shrink_distribution``, which reads the keys of a world
space's m-subsets as world indexes of the space of m constants.
``grounding_truths`` reads a pattern table's truths at the keys,
``WorldSpace.encode`` reads a structure's key, and
``marginal_distribution_a`` reads the Model A marginal without building
fragments: each subset's class is read at its key from one table per
vocabulary and width that holds the class of every pattern, and
``np.bincount`` counts the classes (``_class_table``, which holds the
shared layout, so a call builds none; up to ``CLASS_TABLE_ATOMS`` = 12
local atoms, at most 4,096 patterns and 840 KiB a table, ``CLASS_TABLES`` =
4 tables kept).  Past that limit the bits are gathered over the shared
layout, ``distinct_rows`` counts a call's equal patterns and the distinct
ones are canonicalized together, once their k! relabellings each are
charged against ``TABLE_CELL_CAP``.  ``canonical_patterns`` canonicalizes a
batch over the caller's layout: one gather through a (permutation, local
atom) index array, read off the layout's runs, gives every relabelled
image, and a column-by-column reduction keeps the canonical one and counts
the automorphisms.  ``data.canonicalize`` is the
same call on one pattern: no other code in the package searches
relabellings.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .data import CanonicalForm, GlobalExample, LocalAtom, check_iso_width, position_grid
from .errors import CapExceededError, DomainError, FormulaSyntaxError
from .logic import (
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    PredAtom,
    Var,
    format_formula,
    merge_vocabulary,
    parse_formula,
    vocabulary_of,
)


@dataclass(frozen=True)
class ModelA:
    """Fragment statistics at a fixed subset width: a grounding is one of the
    C(n, k) size-k subsets, whose atoms are its fragment's, and decides the
    whole formula on it; an expansion's go by residue multiset, C(level, c)
    ways each."""

    width: int
    ways = math.comb
    orders = itertools.combinations
    residue_orders = itertools.combinations_with_replacement
    residue_count = staticmethod(lambda n, k: math.comb(n + k - 1, k))  # multisets

    def __post_init__(self):
        if self.width < 1:
            raise DomainError("Model A width must be at least 1")

    def bind(self, f: Formula) -> tuple[int, tuple[Var, ...], Formula]:
        """A grounding's width, the variables it binds, the body it decides."""
        return self.width, (), f

    def count(self, width: int, n: int) -> int:
        if width > n:
            raise DomainError(f"width {width} outside 1..{n}")
        return self.ways(n, width)

    def widest(self, widths: Sequence[int]) -> int:
        return self.width  # every grounding has the kind's width


@dataclass(frozen=True)
class ModelB:
    """Injective-substitution statistics: a grounding is one of the P(n, v)
    injective substitutions of the v prefix variables and decides the matrix;
    an expansion's groundings go by residue sequence, P(level, c) ways each."""

    ways = math.perm
    orders = itertools.permutations
    residue_orders = staticmethod(lambda pool, k: itertools.product(pool, repeat=k))
    residue_count = staticmethod(lambda n, k: n**k)

    def bind(self, f: Formula) -> tuple[int, tuple[Var, ...], Formula]:
        """The width (per formula: the prefix length), prefix and matrix of a
        universal prefix over every variable, each bound once, and a
        quantifier-free matrix."""
        vs, matrix, prefix = (), f, 0
        while isinstance(matrix, Forall):
            vs, matrix, prefix = vs + matrix.vars, matrix.body, prefix + 1
        # the matrix is quantifier-free when the prefix holds every
        # quantifier, and then its variables outside the prefix are free
        signature = f.signature
        if not vs or signature.quantifiers > prefix or signature.free:
            need = "a universally quantified formula with a quantifier-free matrix"
        elif len(set(vs)) < len(vs):
            need = "a universal prefix that binds each variable once"
        else:
            return len(vs), vs, matrix
        raise DomainError(f"Model B statistics require {need}, got: {format_formula(f)}")

    def count(self, width: int, n: int) -> int:
        if width > n:
            raise DomainError(f"formula has {width} variables but the domain has {n} constants")
        return self.ways(n, width)

    def widest(self, widths: Sequence[int]) -> int:
        if not widths:
            raise DomainError("no formulas to derive a level from")
        return max(widths)


MODEL_B = ModelB()
ModelKind = ModelA | ModelB


@dataclass(frozen=True)
class CheckedFormula:
    """A formula checked under ``kind``: each grounding binds ``bound`` to
    ``width`` constant positions and decides ``body``.  ``vocabulary`` is
    the formula's own, and ``formula`` the formula as checked."""

    kind: ModelKind
    width: int
    bound: tuple[Var, ...]
    body: Formula
    vocabulary: Mapping[str, int] = field(compare=False)
    formula: Formula = field(compare=False)

    def count(self, n: int) -> int:
        """Groundings over ``n`` constants; raises when there are none."""
        return self.kind.count(self.width, n)

    def rows(self, n: int) -> np.ndarray | RowStream:
        """The groundings over ``n`` constants, in the kind's order:
        ``grounding_rows``, a shared read-only (rows, width) position array
        within ``LISTING_CELLS`` cells and a ``RowStream`` past it."""
        return grounding_rows(self.kind, self.width, n)

    def hits(self, tables: Mapping[str, np.ndarray], n: int) -> int:
        """How many groundings hold in the structure on ``n`` constants
        whose truth tables are ``tables``."""
        return int(count_groundings(self, self.rows(n), tables, 1)[0])

    def statistic(self, tables: Mapping[str, np.ndarray], n: int) -> Fraction:
        """The fraction of the groundings that hold in the structure on ``n``
        constants whose truth tables are ``tables``."""
        return Fraction(self.hits(tables, n), self.count(n))


def check_formulas(
    formulas: Sequence[Formula], vocabulary: Mapping[str, int], kind: ModelKind, n: int | None = None
) -> tuple[CheckedFormula, ...]:
    """The record of each formula: first every formula must pass
    ``check_formula``, then each in turn must bind under ``kind`` and, given
    ``n``, have groundings over ``n`` constants."""
    vocabularies = [check_formula(f, vocabulary) for f in formulas]
    out = []
    for f, own in zip(formulas, vocabularies):
        out.append(CheckedFormula(kind, *kind.bind(f), own, f))
        if n is not None:
            out[-1].count(n)
    return tuple(out)


def formula_width(kind: ModelKind, f: Formula) -> int:
    """Subset width used by Model A, prefix length used by Model B."""
    return check_formulas((f,), {}, kind)[0].width


def check_formula(f: Formula, vocabulary: Mapping[str, int]) -> dict[str, int]:
    """Raise unless ``f`` is closed, constant-free and fits ``vocabulary``;
    return its own vocabulary."""
    signature = f.signature
    if signature.free:
        raise DomainError(f"formula is not closed: {format_formula(f)}")
    if signature.constants:
        raise DomainError(f"formula must be constant-free: {format_formula(f)}")
    own = vocabulary_of(f)
    merge_vocabulary(own, vocabulary)
    return own


# ---------------------------------------------------------------------------
# the evaluator: one formula over a batch of (grounding, structure) pairs

# (grounding, structure) cells evaluated at once, and the dense-table budget
# of one structure
BLOCK_CELLS = 1 << 20
TABLE_CELL_CAP = 1 << 26
# table reads (``_axis_cells``) that one evaluation over quantifier axes may
# charge: the width-7 statistic of four binary atoms charges 3.95e8 on 10
# constants and 6.7e12 on 30
QUANTIFIER_READ_CAP = 1 << 34

# Row listings of at most LISTING_CELLS positions are kept, LISTINGS of each
# kind.  A grounding or subset listing (``grounding_rows``) holds 8 bytes a
# position, at most 130 KiB (128.6 KiB under tracemalloc, Python 3.11); an
# expansion's residue listing (``expansion.residue_groundings``) holds 8
# bytes a position and 8 a row, its shape index, so at most 260 KiB at
# width 1 (257.7 KiB), beside one Python-int weight per shape.  Full
# caches hold at most 12.2 MiB beside those weights.  The benchmark
# workloads use at most 21 grounding and 8 residue listings, each within
# the limit.  A longer listing is built afresh on every call, and a
# grounding listing is then streamed, so memory does not grow with it.
LISTING_CELLS = 1 << 14
LISTINGS = 32


def grounding_rows(kind: ModelKind, width: int, n: int) -> np.ndarray | RowStream:
    """The ``kind.orders`` of ``width`` of the positions 0..n-1, the
    groundings of a width-``width`` formula over ``n`` constants (for Model
    A, the size-``width`` subsets).  Within ``LISTING_CELLS`` cells they are
    one read-only (rows, width) intp array that every call of the same
    order, width and n shares; past it, a ``RowStream`` of tuples that
    ``index_blocks`` reads one block at a time."""
    if kind.ways(n, width) * width > LISTING_CELLS:
        return RowStream(kind, width, n)
    return _listing(kind.orders, width, n)


@dataclass(frozen=True)
class RowStream:
    """The groundings of a listing past ``LISTING_CELLS``, never held
    whole: each iteration yields ``kind.orders(range(n), width)`` afresh,
    and its length is their number, which the work of a formula over them
    is charged by (``grounding_truths``)."""

    kind: ModelKind
    width: int
    n: int

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return self.kind.orders(range(self.n), self.width)

    def __len__(self) -> int:
        return self.kind.ways(self.n, self.width)


@functools.lru_cache(maxsize=LISTINGS)
def _listing(orders, width: int, n: int) -> np.ndarray:
    """``orders(range(n), width)`` as one read-only (rows, width) array."""
    flat = itertools.chain.from_iterable(orders(range(n), width))
    rows = np.fromiter(flat, dtype=np.intp).reshape(-1, width)
    rows.flags.writeable = False
    return rows


def structure_tables(example: GlobalExample, vocabulary: Mapping[str, int]) -> dict[str, np.ndarray]:
    """Truth tables of one structure for the predicates in ``vocabulary``:
    ``tables[p][i, j, ..., 0]`` is whether ``p`` holds of the constants at
    positions i, j, ...  Raises ``CapExceededError`` when the tables would
    have more than ``TABLE_CELL_CAP`` cells.

    Each predicate's table is filled by one scatter of the structure's
    position array of it."""
    n = len(example.constants)
    cells = sum(n**arity for arity in vocabulary.values())
    check_cells(cells, f"truth tables of {cells} cells over {n} constants")
    positions = example.positions
    tables = {}
    for p, arity in vocabulary.items():
        table = tables[p] = np.zeros((n,) * arity + (1,), dtype=bool)
        rows = positions.get(p)
        if rows is not None and len(rows):
            table[(*rows.T, 0)] = True
    return tables


def check_cells(size: int, what: str, cap: int | None = None):
    """Raise ``CapExceededError`` when ``what``, of ``size`` cells or bytes,
    exceed ``cap`` (``TABLE_CELL_CAP`` cells unless given)."""
    cap = TABLE_CELL_CAP if cap is None else cap
    if size > cap:
        raise CapExceededError(f"{what} exceed the cap of {cap}", size, cap)


def check_reads(reads: int):
    """Raise ``CapExceededError`` when an evaluation over quantifier axes
    would make more than ``QUANTIFIER_READ_CAP`` table reads."""
    check_cells(reads, f"{reads} table reads over quantifier axes", QUANTIFIER_READ_CAP)


def holds_over(
    f: Formula,
    tables: Mapping[str, np.ndarray],
    shape: tuple[int, int],
    domain: np.ndarray,
    env: dict[str, np.ndarray],
    cells: int,
) -> np.ndarray:
    """Whether ``f`` holds at each of G groundings in each of S structures,
    as a bool array of ``shape`` = (G, S).

    ``env`` binds free variables (and constants, by name) to position arrays
    of length G or 1, and quantifiers range over ``domain``, a (D, G) or
    (D, 1) position array whose column g is grounding g's domain.  Each
    quantified variable binds a leading axis of its own over the D domain
    positions, the body is evaluated once over every assignment, and any
    (exists) or all (forall) reduces the quantifier's axes; over an empty
    domain exists is false and forall true.  An atom gathers ``tables[p]``
    (shape ``(n,)*arity + (S,)``) at its argument positions, which
    broadcast, so the structure axis stays last; a predicate without a
    table is false everywhere.  Equality compares positions, and the
    connectives are ``~ & |``.

    ``cells`` is the work of one (grounding, structure), ``_axis_cells``:
    the call charges it for every pair before it evaluates anything
    (``check_reads``), and it takes the structures in slices of at most
    ``BLOCK_CELLS`` cells.
    """
    groundings, structures = shape
    check_reads(cells * groundings * structures)
    step = max(1, BLOCK_CELLS // max(cells * groundings, 1))
    out = np.empty(shape, dtype=bool)
    for start in range(0, structures, step):
        part = {p: table[..., start:start + step] for p, table in tables.items()}
        out[:, start:start + step] = _holds(f, part, domain, env, 0)
    return out


def _holds(g, tables, domain, env, depth) -> np.ndarray:
    """``g`` inside ``depth`` quantified variables: an array whose last two
    axes are (grounding, structure), after the axes of those variables,
    the innermost quantifier's first; leading axes that it does not read
    may be missing, and any axis may have size 1."""
    if isinstance(g, PredAtom):
        table = tables.get(g.pred.name)
        if table is None:
            return np.False_
        return table[tuple(env[t.name] for t in g.args)]
    if isinstance(g, Eq):
        return (env[g.left.name] == env[g.right.name])[..., None]
    if isinstance(g, Not):
        return ~_holds(g.sub, tables, domain, env, depth)
    if isinstance(g, (And, Or)):
        parts = (_holds(p, tables, domain, env, depth) for p in g.parts)
        return functools.reduce(operator.and_ if isinstance(g, And) else operator.or_, parts)
    exists = isinstance(g, Exists)
    size, m = len(domain), len(g.vars)
    if not size:
        return np.bool_(not exists)
    # variable i binds axis i, before the axes of the variables bound
    # around this quantifier; the body binds into a copy, because a
    # quantified variable may also be free outside this scope
    inner = dict(env)
    for i, v in enumerate(g.vars):
        axes = (1,) * i + (size,) + (1,) * (m - 1 - i + depth)
        inner[v.name] = domain.reshape(axes + domain.shape[1:])
    body = _holds(g.body, tables, domain, inner, depth + m)
    axes = tuple(range(body.ndim - depth - 2))  # the quantifier's axes that the body reads
    return body.any(axis=axes) if exists else body.all(axis=axes)


def count_groundings(
    checked: CheckedFormula,
    rows: np.ndarray | RowStream,
    tables: Mapping[str, np.ndarray],
    structures: int,
) -> np.ndarray:
    """How many of the grounding ``rows`` of a checked formula (constant
    positions, as from ``CheckedFormula.rows``) hold in each structure, as
    an int array of length ``structures``; no fragment is built.  Rows are
    evaluated in blocks of at most ``BLOCK_CELLS`` (grounding, structure)
    cells, so memory does not grow with their number."""
    counts = np.zeros(structures, dtype=np.int64)
    for held in grounding_truths(checked, rows, tables, structures):
        counts += held.sum(axis=0)
    return counts


def grounding_truths(
    checked: CheckedFormula,
    rows: np.ndarray | RowStream,
    tables: Mapping[str, np.ndarray],
    structures: int,
) -> Iterator[np.ndarray]:
    """Whether a checked formula holds at each grounding row in each
    structure, as consecutive (rows, ``structures``) bool blocks;
    ``count_groundings`` sums them.

    With a ``_pattern_table`` (every row of either kind lists distinct
    positions: a subset, an injective substitution, a residue or index-set
    row), the truths are read off the table at the rows' pattern keys over
    the formula's local atoms (``pattern_keys``): blocks of at most
    ``BLOCK_CELLS`` (grounding, structure, local atom) cells.  Otherwise
    the work of every row in every structure is charged first
    (``check_reads``), and ``holds_over`` decides blocks of rows whose
    ``_axis_cells`` come to at most ``BLOCK_CELLS``, each row its own
    domain and, for Model B, its prefix's binding."""
    table = _pattern_table(checked)
    if table is not None:
        for keys in pattern_keys(tables, table.layout, rows, structures):
            yield table.truth[keys]
        return
    cells = _axis_cells(checked.formula, checked.width, len(checked.bound))
    check_reads(cells * len(rows) * structures)
    for block in index_blocks(rows, checked.width, BLOCK_CELLS // max(cells * structures, 1)):
        env = {v.name: c for v, c in zip(checked.bound, block.T)}
        yield holds_over(checked.body, tables, (len(block), structures), block.T, env, cells)


def index_blocks(rows: Iterable[Sequence[int]], width: int, step: int) -> Iterator[np.ndarray]:
    """``rows`` of ``width`` positions as int arrays of at most ``step`` (at
    least one) rows each.  An array of rows, such as a kept listing of
    ``grounding_rows`` or ``expansion.residue_groundings``, is sliced into
    views (read-only when it is); any other iterable, such as a listing
    past ``LISTING_CELLS``, is read one block at a time through
    ``np.fromiter``, so a stream of rows is never held whole."""
    step = max(1, step)
    if isinstance(rows, np.ndarray):
        for start in range(0, len(rows), step):
            yield rows[start:start + step]
        return
    rows = iter(rows)
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(rows, step))
        block = np.fromiter(flat, dtype=np.intp).reshape(-1, width)
        if not len(block):
            return
        yield block


def statistic(f: Formula, example: GlobalExample, kind: ModelKind) -> Fraction:
    """The marginal statistic of ``f`` under the chosen model: the fraction
    of its groundings in ``example`` that hold."""
    n = len(example.constants)
    (checked,) = check_formulas((f,), example.vocabulary(), kind, n)
    return checked.statistic(structure_tables(example, checked.vocabulary), n)


def distinct_rows(
    rows: np.ndarray, radix: int | Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First index and multiplicity of each distinct row of ``rows``, in
    order of first appearance, and the index of each row's distinct row in
    that order.

    Entries of column j are integers in ``0..radix[j]-1`` (an int radix
    serves every column).  Each row is keyed by one int64.  The columns are
    folded into a mixed-radix key one run at a time, one matrix product a
    run; before a column that would overflow int64, the partial key is
    re-ranked to ``0..V-1`` over its V distinct values (``np.unique``'s
    inverse) and folding goes on from there.  So a radix times the row
    count must fit int64.  Keys from a key space no larger than the row
    count are counted (``_counted_keys``); others are sorted by
    ``np.unique``.
    """
    radices = [radix] * rows.shape[1] if isinstance(radix, int) else [int(r) for r in radix]
    rows = rows.astype(np.int64, copy=False)
    limit = np.iinfo(np.int64).max
    key, size, start, place = None, 1, 0, []  # the key's values lie in 0..size-1
    for j, r in enumerate(radices):
        if size * r > limit:
            part = rows[:, start:j] @ np.array(place, dtype=np.int64)
            values, key = np.unique(part if key is None else key + part, return_inverse=True)
            size, start, place = len(values), j, []
        place.append(size)
        size *= r
    part = rows[:, start:] @ np.array(place, dtype=np.int64)
    key = part if key is None else key + part
    if size <= len(key):
        first, counts, inverse = _counted_keys(key, size)
    else:
        _, first, inverse, counts = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True
        )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], counts[order], rank[inverse]


def _counted_keys(key: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique``'s first index, count and inverse of keys in
    ``0..size-1``, in key order, read off (size,) tables: one
    ``np.bincount`` and one ``np.minimum.at``, no sort."""
    counts = np.bincount(key, minlength=size)
    first = np.full(size, len(key), dtype=np.intp)
    np.minimum.at(first, key, np.arange(len(key)))
    present = np.flatnonzero(counts)
    slot = np.empty(size, dtype=np.intp)
    slot[present] = np.arange(len(present))
    return first[present], counts[present], slot[key]


# Local atoms up to which a vocabulary and width get a class table: the
# table holds all 2^M patterns over M local atoms, so each atom more doubles
# it.  At 12 atoms, 4,096 patterns, the widest table (12 unary predicates
# at width 1, every pattern a class of its own) holds at most 840 KiB (825
# KiB under tracemalloc, Python 3.11, each form keeping its hash, with its
# layout); every vocabulary and width that the estimation workloads and
# verify suites use, {e/2, r/1} at width 3 the widest, has at most 12.  CLASS_TABLES tables
# are kept, as many as those use, so a full cache holds at most 3.3 MiB.
CLASS_TABLE_ATOMS = 12
CLASS_TABLES = 4


def marginal_distribution_a(example: GlobalExample, k: int) -> dict[CanonicalForm, Fraction]:
    """Distribution over canonical width-k local examples induced by Model A.

    Each size-k subset contributes 1/C(n,k) of mass to the isomorphism class
    of its fragment; within a class the mass splits uniformly over the
    ``class_size`` labellings.

    No fragment is built: a subset's fragment is its bit pattern over the
    M local atoms ``p(a1, ..., ar)`` with positions ``ai`` in 0..k-1, read
    in blocks of at most ``BLOCK_CELLS`` cells.  A pattern's class depends
    only on the vocabulary, k and the pattern: up to ``CLASS_TABLE_ATOMS``
    local atoms each subset's class is read from the class table of the
    vocabulary and width (``_class_table``, built once while the cache
    keeps it, with its layout) at the subset's ``pattern_keys`` key, and
    ``np.bincount`` counts the classes of each block; past that the bits
    are gathered over the shared layout (``gather_patterns``),
    the distinct patterns of each block are counted together, those of
    the blocks so far are merged whenever more have come since the last
    merge than the cap below admits (``_merge_patterns``), and the distinct
    patterns of the call are canonicalized together (``_pattern_classes``).
    A class's mass is its subset count over C(n,k), and classes appear in
    the order of their first subset.  A width over ``ISO_WIDTH_CAP`` raises
    ``CapExceededError`` before anything is built, as do truth tables over
    ``TABLE_CELL_CAP`` (see ``structure_tables``) and, at a merge and before
    any pattern is canonicalized, distinct patterns whose k! relabellings
    each come to more than ``TABLE_CELL_CAP``.
    """
    n = len(example.constants)
    if not 1 <= k <= n:
        raise DomainError(f"width {k} outside 1..{n}")
    check_iso_width(k)
    vocabulary = example.vocabulary()
    tables = structure_tables(example, vocabulary)
    total = math.comb(n, k)
    subsets = grounding_rows(ModelA(k), k, n)
    if sum(k**arity for arity in vocabulary.values()) <= CLASS_TABLE_ATOMS:  # local atoms
        table = _class_table(tuple(sorted(vocabulary.items())), k)
        forms = table.forms
        counts = np.zeros(len(forms), dtype=np.int64)
        first = np.full(len(forms), total)  # each class's first subset
        start = 0
        for keys in pattern_keys(tables, table.layout, subsets, 1):
            classes = table.classes[keys[:, 0]]
            counts += np.bincount(classes, minlength=len(forms))
            np.minimum.at(first, classes, np.arange(start, start + len(classes)))
            start += len(classes)
        seen = np.flatnonzero(counts)
        seen = seen[np.argsort(first[seen])]
        return {forms[c]: Fraction(int(counts[c]), total) for c in seen.tolist()}
    layout = pattern_layout(vocabulary, k)
    most = TABLE_CELL_CAP // math.factorial(k)  # the distinct patterns that the cap admits
    rows, counts = [], []  # the distinct patterns of each block, and their subsets
    fresh = 0  # patterns since the last merge
    for block in index_blocks(subsets, k, BLOCK_CELLS // max(len(layout.local), 1)):
        bits = gather_patterns(tables, layout, block, 1)[:, :, 0]
        first, count, _ = distinct_rows(bits, 2)
        rows.append(bits[first])
        counts.append(count)
        fresh += len(first)
        if fresh > most:  # so that memory stays bounded and the cap stops early
            rows, counts = _merge_patterns(rows, counts, k)
            fresh = 0
    (rows,), (counts,) = _merge_patterns(rows, counts, k)
    classes, forms = _pattern_classes(rows, layout)
    # a class first appears at the first row of its first subset's pattern
    mass: dict[int, int] = {}  # class -> subsets
    for c, count in zip(classes.tolist(), counts.tolist()):
        mass[c] = mass.get(c, 0) + count
    return {forms[c]: Fraction(count, total) for c, count in mass.items()}


def _merge_patterns(
    rows: list[np.ndarray], counts: list[np.ndarray], k: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The blocks of (P, M) bool patterns ``rows`` and their subset
    ``counts`` as one block of their distinct patterns, in order of first
    appearance, each with its summed count.  Raises ``CapExceededError``
    when the k! relabellings of each distinct pattern come to more than
    ``TABLE_CELL_CAP``."""
    rows, counts = np.concatenate(rows), np.concatenate(counts)
    first, _, inverse = distinct_rows(rows, 2)
    relabellings = len(first) * math.factorial(k)
    check_cells(relabellings, f"{relabellings} relabellings of {len(first)} distinct patterns")
    total = np.zeros(len(first), dtype=np.int64)
    np.add.at(total, inverse, counts)
    return [rows[first]], [total]


def _pattern_classes(
    patterns: np.ndarray, layout: PatternLayout
) -> tuple[np.ndarray, tuple[CanonicalForm, ...]]:
    """The class index of each row of the (P, M) bool ``patterns`` over the
    local atoms of ``layout``, and one form per class in the order of its
    first row, by one ``canonical_patterns`` call.  The forms share the
    local atoms, labelled 1..k at the layout's width k."""
    images, automorphisms = canonical_patterns(patterns, layout)
    first, _, classes = distinct_rows(images, 2)
    labelled = [(p, tuple(a + 1 for a in args)) for p, args in layout.local]
    k = layout.width
    forms = tuple(
        CanonicalForm(k, tuple(itertools.compress(labelled, images[i])), int(automorphisms[i]))
        for i in first.tolist()
    )
    return classes, forms


class ClassTable(NamedTuple):
    """The classes of every local pattern of one vocabulary at one width:
    ``forms[classes[key]]`` is the canonical form of the pattern whose
    ``pattern_keys`` key over ``layout`` is ``key``."""

    classes: np.ndarray
    forms: tuple[CanonicalForm, ...]
    layout: PatternLayout


@functools.lru_cache(maxsize=CLASS_TABLES)
def _class_table(signature: tuple[tuple[str, int], ...], k: int) -> ClassTable:
    """The ``ClassTable`` of the vocabulary ``dict(signature)`` at width k:
    ``_pattern_classes`` of every pattern over its local atoms, row i the
    pattern whose bit j is local atom j, with the shared layout, so that a
    marginal builds none.  Only for at most ``CLASS_TABLE_ATOMS`` local
    atoms."""
    layout = _layout(signature, k)
    ids = np.arange(1 << len(layout.local), dtype=np.int64)
    patterns = (ids[:, None] >> np.arange(len(layout.local)) & 1).astype(bool)
    classes, forms = _pattern_classes(patterns, layout)
    # every call shares the cached array, so none may write it
    classes.flags.writeable = False
    return ClassTable(classes, forms, layout)


class PatternTable(NamedTuple):
    """A checked formula decided on every local pattern over a layout at
    its width: ``truth[key]`` is whether it holds on the pattern whose
    ``pattern_keys`` key over ``layout`` is ``key``."""

    truth: np.ndarray
    layout: PatternLayout


# Pattern tables kept, one per checked formula and layout: a table holds at
# most 2^CLASS_TABLE_ATOMS = 4,096 truths, at most 8 KiB beside its shared
# layout (4.6 KiB under tracemalloc, Python 3.11, at 12 local atoms, with
# the cache entries of both keys that reach it), so a full cache holds at
# most 1 MiB beside the formulas of its keys.  Distinct keys, tables and
# None, over one job list at seed 1: fit 80, geometry 56, estimate 16, and
# the verify suites 84; a kept table serves every later call.
PATTERN_TABLES = 128


@functools.lru_cache(maxsize=PATTERN_TABLES)
def _pattern_table(
    checked: CheckedFormula, layout: PatternLayout | None = None
) -> PatternTable | None:
    """The ``PatternTable`` of a checked formula of width k over ``layout``,
    a width-k layout (predicates of the layout that the formula does not
    name are read and ignored, those it names outside the layout are false
    everywhere).  Without a layout, the table over the formula's own
    vocabulary, or None when its M local atoms are more than
    ``CLASS_TABLE_ATOMS`` or at least the table reads of ``holds_over`` at
    a grounding, in which a pattern key would read no fewer atoms
    (``_table_reads``); the per-formula readers of truth tables ask this.
    The truths come from one ``holds_over`` call over the 2^M width-k
    local worlds, world i the pattern whose key is i:
    ``worlds.world_tables`` decodes their tables over the layout, the
    ``bound`` variables are bound to the positions 0..k-1, and quantifiers
    range over them, the domain ``np.arange(k)[:, None]``.  Its truth at a
    grounding row is its truth on the row's pattern when the row lists
    distinct positions, as every row of either kind does."""
    # worlds imports this module, so the decode is imported at call time
    from .worlds import world_tables

    k, body = checked.width, checked.body
    if layout is None:
        atoms = sum(k**arity for arity in checked.vocabulary.values())  # local atoms
        reads = _table_reads(checked.formula, k, len(checked.bound))
        if atoms > CLASS_TABLE_ATOMS or atoms >= reads:
            return None
        return _pattern_table(checked, pattern_layout(checked.vocabulary, k))
    worlds = np.arange(1 << len(layout.local))
    tables = world_tables(worlds, layout, checked.vocabulary)
    domain = np.arange(k)[:, None]
    env = {v.name: at for v, at in zip(checked.bound, domain)}
    cells = _axis_cells(checked.formula, k, len(checked.bound))
    truth = holds_over(body, tables, (1, len(worlds)), domain, env, cells)[0]
    # every call shares the cached array, so none may write it
    truth.flags.writeable = False
    return PatternTable(truth, layout)


def _table_reads(f: Formula, k: int, bound: int = 0) -> int:
    """Table reads of ``holds_over`` per grounding of the formula ``f`` at
    width k, whose grounding binds the ``bound`` variables of its universal
    prefix: one per atom occurrence and assignment of the other variables
    of the quantifiers around it, read off the atoms' depths
    (``f.signature``)."""
    return sum(k ** (depth - bound) for depth in f.signature.depths)


def _axis_cells(f: Formula, size: int, bound: int = 0) -> int:
    """The work of ``holds_over`` per (grounding, structure) on the formula
    ``f`` over a domain of ``size`` positions, whose grounding binds the
    ``bound`` variables of its universal prefix: its table reads, and no
    fewer than the size^q cells of its q deepest axes, which an equality
    below every atom reads (``f.signature.nesting``)."""
    return max(_table_reads(f, size, bound), size ** (f.signature.nesting - bound))


@dataclass(frozen=True, eq=False)
class PatternLayout:
    """The order of the local atoms of one vocabulary at ``width`` k, which
    a bit pattern, its key and a world of k constants all follow: bit j of
    a pattern, ``place[j]`` in its key, is ``local[j]``, and each
    predicate's consecutive atoms form one run ``(name, args, columns)``,
    with ``args`` the (arity, atoms) array of their arguments and
    ``columns`` their slice of the pattern; a predicate of arity at least 1
    has an empty run at width 0.  ``place`` is int16 when every key fits
    it, int64 when every key fits that, and None past that; all arrays are
    read-only.  A layout is compared and hashed as its own identity, so a
    cache such as the pattern tables' can key on it; ``pattern_layout``
    shares one per vocabulary and width."""

    width: int
    local: tuple[LocalAtom, ...]
    runs: tuple[tuple[str, np.ndarray, slice], ...]
    place: np.ndarray | None


# Layouts kept, one per vocabulary and width.  A layout holds its local
# atoms, one argument array a predicate and its place values: at most 16
# KiB for a world space's, which has at most 24 atoms (15.4 KiB under
# tracemalloc, Python 3.11, for 24 unary predicates at width 1); a marginal
# or canonical form past CLASS_TABLE_ATOMS local atoms keeps one of its
# width, under 0.7 KiB an atom.  Distinct layouts over one job list at seed
# 1: fit 22, geometry 11, estimate 4, and the verify suites 18.
LAYOUTS = 64


def pattern_layout(vocabulary: Mapping[str, int], k: int) -> PatternLayout:
    """The ``PatternLayout`` of ``vocabulary`` at width ``k``, over
    ``local_atoms(vocabulary, k)``: one read-only object that every call
    with the same predicates and arities, in any key order, shares while
    the cache of ``LAYOUTS`` keeps it."""
    return _layout(tuple(sorted(vocabulary.items())), k)


@functools.lru_cache(maxsize=LAYOUTS)
def _layout(signature: tuple[tuple[str, int], ...], k: int) -> PatternLayout:
    vocabulary = dict(signature)
    local = local_atoms(vocabulary, k)
    runs, start = [], 0
    for p, arity in signature:
        args = position_grid(k, arity).T
        args.flags.writeable = False
        runs.append((p, args, slice(start, start + args.shape[1])))
        start += args.shape[1]
    # a key is at most 2^M - 1, which a signed integer of M + 1 bits holds
    dtype = next((t for t in (np.int16, np.int64) if len(local) < np.iinfo(t).bits), None)
    place = None
    if dtype is not None:
        place = (1 << np.arange(len(local), dtype=np.int64)).astype(dtype)
        place.flags.writeable = False
    return PatternLayout(k, tuple(local), tuple(runs), place)


def pattern_keys(
    tables: Mapping[str, np.ndarray],
    layout: PatternLayout,
    rows: Iterable[Sequence[int]],
    structures: int,
) -> Iterator[np.ndarray]:
    """The key of the bit pattern of each row of ``layout.width`` positions
    in ``rows`` (an array or a stream, as ``index_blocks`` reads them) over
    the local atoms of ``layout`` in each structure: the sum of the
    ``place`` values of its set bits, folded in ``place``'s dtype, as
    consecutive (rows, ``structures``) intp blocks, which index a table
    faster than a narrower dtype does.  Each block is one
    ``gather_patterns`` of at most ``BLOCK_CELLS`` (row, structure, local
    atom) cells, at least one row.  The keys of a world space's k-subsets
    are the indexes of their fragments, relabelled onto the first k
    constants, in the space of k constants; ``layout.place`` must not be
    None."""
    cells = structures * len(layout.local)
    for block in index_blocks(rows, layout.width, BLOCK_CELLS // max(cells, 1)):
        bits = gather_patterns(tables, layout, block, structures)
        # the fold is fastest in place's dtype, an index read in intp's
        yield np.einsum("gas,a->gs", bits, layout.place).astype(np.intp)


def gather_patterns(
    tables: Mapping[str, np.ndarray],
    layout: PatternLayout,
    block: np.ndarray,
    structures: int,
) -> np.ndarray:
    """The bit pattern of each row of positions in ``block`` over the local
    atoms of ``layout`` in each structure, as a (rows, atoms, structures)
    bool array.  Local atom ``p(a1, ..., ar)`` of the row ``s`` is
    ``tables[p][s[a1], ..., s[ar]]``; each run is read by one gather for
    every row at once, ``np.take`` of the rows of the (cells, structures)
    table at the row-major flat positions ``s[args_1] * n^(r-1) + ... +
    s[args_r]``, with ``args_i`` the i-th arguments of the run.  A
    predicate without a table is false everywhere, as in ``holds_over``,
    and an arity-0 table is read whole."""
    bits = np.empty((len(block), len(layout.local), structures), dtype=bool)
    for p, args, columns in layout.runs:
        table = tables.get(p)
        if table is None:
            bits[:, columns] = False
            continue
        if len(args):
            n = table.shape[0]
            at = sum(block[:, a] * n ** (len(args) - 1 - i) for i, a in enumerate(args))
            table = np.take(table.reshape(n ** len(args), structures), at, axis=0)
        # an arity-0 table, one truth per structure, broadcasts over the rows
        bits[:, columns] = table
    return bits


def local_atoms(vocabulary: Mapping[str, int], k: int) -> list[LocalAtom]:
    """The width-``k`` local atoms ``(p, (a1, ..., ar))``, positions 0..k-1,
    in the column order of ``canonical_patterns``: predicates sorted, so a
    sorted atom tuple lists its atoms' indices in increasing order, then
    argument positions in ``itertools.product`` order."""
    return [
        (p, args) for p in sorted(vocabulary)
        for args in itertools.product(range(k), repeat=vocabulary[p])
    ]


def canonical_patterns(
    patterns: np.ndarray, layout: PatternLayout
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical image and automorphism count of each local example in
    ``patterns``: of its images under the k! relabellings of the layout's
    width k, the one whose sorted atom tuple is least, and how many
    relabellings reach it.

    Column j of the (P, M) bool ``patterns`` is the j-th local atom of
    ``layout``, whose order is the order of the atom tuples.
    Of two atom sets of one size, the sorted tuple that is smaller is the
    one holding the first atom where they differ, so the least sorted image
    is the lexicographically greatest image pattern,
    and every image of a pattern has its size.  Row i of a (permutations,
    M) gather holds the index of each local atom's image under permutation
    i, so ``pattern[gather]`` is every image at once; the greatest is found
    column by column, and the permutations that reach it are the
    automorphisms.  Blocks of patterns and permutations hold at most
    ``BLOCK_CELLS`` (pattern, permutation, atom) cells, at least one pattern
    and one permutation each; the best image of earlier permutations joins
    each block as candidate 0 (all-false, with no hits, before the first
    block of permutations, so it wins only for the empty pattern and then
    adds nothing).
    """
    m = patterns.shape[1]
    best = np.zeros_like(patterns)
    hits = np.zeros(len(patterns), dtype=np.int64)
    perms = itertools.permutations(range(layout.width))
    while chunk := list(itertools.islice(perms, max(1, BLOCK_CELLS // max(m, 1)))):
        gather = _relabel_gather(layout, np.array(chunk, dtype=np.intp))
        step = max(1, BLOCK_CELLS // (len(chunk) * max(m, 1)))
        for start in range(0, len(patterns), step):
            block = slice(start, start + step)
            images = np.concatenate([best[block, None], patterns[block][:, gather]], axis=1)
            alive = np.ones(images.shape[:2], dtype=bool)
            for j in range(m):
                column = images[:, :, j]
                alive &= column | ~(column & alive).any(axis=1, keepdims=True)
            best[block] = images[np.arange(len(images)), alive.argmax(axis=1)]
            hits[block] = alive[:, 1:].sum(axis=1) + np.where(alive[:, 0], hits[block], 0)
    return best, hits


def _relabel_gather(layout: PatternLayout, perms: np.ndarray) -> np.ndarray:
    """(len(perms), M) array whose row i holds, for each local atom of
    ``layout``, the index of its image when positions are relabelled by
    ``perms[i]``: within its predicate's run, the row-major place of the
    relabelled arguments."""
    gather = np.empty((len(perms), len(layout.local)), dtype=np.intp)
    for _, args, columns in layout.runs:
        places = (perms[:, a] * layout.width ** (len(args) - 1 - i) for i, a in enumerate(args))
        gather[:, columns] = columns.start + sum(places)
    return gather


# ---------------------------------------------------------------------------
# constraint sets

@dataclass(frozen=True)
class MarginalConstraint:
    """A formula paired with its target marginal value.

    ``theta`` is an exact ``Fraction`` when read from text (``p/q``, an
    integer, or a decimal, which converts exactly) and a float when given as
    a JSON number.
    """

    formula: Formula
    theta: Fraction | float

    def __post_init__(self):
        check_formula(self.formula, {})
        if not 0 <= self.theta <= 1:
            raise DomainError(f"theta {self.theta} outside [0, 1]")


def parse_theta(text: str) -> Fraction:
    """Exact parse of a probability literal: ``p/q``, integer, or decimal
    (decimals convert exactly, so ``0.4`` means 2/5, not the nearest float)."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad theta value {text!r}: {exc}") from None


def parse_constraints(text: str, source: str = "<constraints>") -> list[MarginalConstraint]:
    """Parse a constraint file: ``theta ; formula`` lines, or a JSON array of
    objects with ``formula`` and ``theta`` fields."""
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            entries = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormulaSyntaxError(f"bad JSON: {exc.msg}", exc.lineno, exc.colno, source)
        return [_json_constraint(entry, f"{source}: entry {i}")
                for i, entry in enumerate(entries, start=1)]
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ";" not in line:
            raise FormulaSyntaxError("expected 'theta ; formula'", lineno, 1, source)
        theta_text, formula_text = line.split(";", 1)
        f = parse_formula(formula_text.strip(), source=f"{source}:{lineno}")
        out.append(MarginalConstraint(f, parse_theta(theta_text)))
    return out


def _json_constraint(entry, where: str) -> MarginalConstraint:
    try:
        if not isinstance(entry, dict):
            raise DomainError("expected an object with 'formula' and 'theta' fields")
        formula, theta = entry.get("formula"), entry.get("theta")
        if not isinstance(formula, str):
            raise DomainError("'formula' must be a string")
        if isinstance(theta, str):
            theta = parse_theta(theta)
        elif isinstance(theta, (int, float)) and not isinstance(theta, bool):
            theta = float(theta)
        else:
            got = json.dumps(theta) if "theta" in entry else "nothing"
            raise DomainError(f"'theta' must be a number or a string, got {got}")
        return MarginalConstraint(parse_formula(formula, source=where), theta)
    except DomainError as exc:
        raise DomainError(f"{where}: {exc}") from None


def read_constraints(path) -> list[MarginalConstraint]:
    with open(path, encoding="utf-8") as fh:
        return parse_constraints(fh.read(), source=str(path))


def parse_formulas(text: str, source: str = "<formulas>") -> list[Formula]:
    """One formula per line, ``#`` comments; used for hard-rule files."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(parse_formula(line, source=f"{source}:{lineno}"))
    return out


def read_formulas(path) -> list[Formula]:
    with open(path, encoding="utf-8") as fh:
        return parse_formulas(fh.read(), source=str(path))
