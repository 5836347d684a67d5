"""Exhaustive possible-world spaces over a fixed domain and vocabulary.

A world is a subset of the ground atoms, encoded as an integer bit pattern
over the atom order of the space's layout, the width-n ``stats.PatternLayout``
of its vocabulary read at its n constants, so a world's bits are its pattern
key.  A world space enumerates every pattern satisfying the hard rules, in
ascending pattern order, and caches the per-world statistic counts and
their distinct rows, each with its first world and its multiplicity
(``WorldSpace.distinct_rows``).  The max-entropy solver and the polytope
code share the distinct rows, so the fit's work grows with them, not with
the worlds.  The atom count is capped because everything downstream is
exponential in it by design.

Nothing here walks one world at a time.  ``world_keys`` reads the pattern
key of every grounding row in every world straight off the worlds' bits:
``count_matrix`` groups its formulas by width, reads each group's keys
once over the layout of the space's predicates that the group names, and
sums each formula's ``stats._pattern_table`` truths at them; so does
``maxent.shrink_distribution`` for its m-subsets.  ``world_tables``
decodes worlds into truth tables for ``stats.holds_over`` alone, the
evaluator that also serves single examples and decides a formula over
every world at once: the hard-rule filter evaluates each rule at its one
grounding, a pattern table decides its formula on its 2^M local worlds,
and a group of more than ``stats.CLASS_TABLE_ATOMS`` local atoms is
counted by ``stats.count_groundings``.  ``world_example`` reads a world's
position arrays off its runs' set bits, and ``encode`` reads a
structure's key over the layout with ``stats.pattern_keys``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import stats
from .data import GlobalExample, GroundAtom
from .errors import CapExceededError, DomainError
from .logic import Formula, merge_vocabulary, vocabulary_of
from .stats import (
    CLASS_TABLE_ATOMS,
    TABLE_CELL_CAP,
    ModelKind,
    PatternLayout,
    _axis_cells,
    _pattern_table,
    check_cells,
    check_formulas,
    count_groundings,
    distinct_rows,
    grounding_rows,
    holds_over,
    index_blocks,
    pattern_keys,
    pattern_layout,
    structure_tables,
)

DEFAULT_ATOM_CAP = 24
# bytes that the truth tables, and apart from them the count matrices and
# distinct rows kept, of one world space may take: TABLE_CELL_CAP int64
# counts.  The truth tables of every space enumerate_worlds admits, at most
# DEFAULT_ATOM_CAP one-byte atoms by 2^DEFAULT_ATOM_CAP worlds, fit.
WORLD_TABLE_BYTE_CAP = 8 * TABLE_CELL_CAP
# the mask of bit i of a byte
_BITS = (1 << np.arange(8)).astype(np.uint8)


def world_tables(
    worlds: np.ndarray, layout: PatternLayout, named: Container[str]
) -> dict[str, np.ndarray]:
    """Truth tables over an array of bit patterns over ``layout``, for the
    predicates in ``named``, as ``stats.holds_over`` reads them:
    ``tables[p][i, j, ..., w]`` is the bit of local atom ``p(i, j, ...)``
    in world w.  A run's arguments are in product order, which is
    row-major, so its columns reshape into its table directly.  Over a
    width-k layout, world i is the local pattern whose key is i."""
    # atom bit k is bit k % 8 of byte k // 8 of the little-endian pattern
    octets = worlds.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
    octets = np.ascontiguousarray(octets.T[:(len(layout.local) + 7) // 8])
    tables = {}
    for pred, args, columns in layout.runs:
        if pred in named:
            table = np.empty((args.shape[1], len(worlds)), dtype=bool)
            for i, k in enumerate(range(columns.start, columns.stop)):
                np.not_equal(octets[k // 8] & (1 << k % 8), 0, out=table[i])
            tables[pred] = table.reshape((layout.width,) * len(args) + (len(worlds),))
    return tables


def world_keys(
    worlds: np.ndarray,
    space: PatternLayout,
    layout: PatternLayout,
    rows: Iterable[Sequence[int]],
) -> Iterator[np.ndarray]:
    """The key over ``layout`` of the pattern of each row of
    ``layout.width`` positions in ``rows`` (an array or a stream, as
    ``stats.index_blocks`` reads them) in each of the bit patterns
    ``worlds`` over ``space``, as consecutive (rows, worlds) intp blocks:
    what ``stats.pattern_keys`` reads over the ``world_tables`` of the
    worlds, read off their bits.  The predicates of ``layout`` must be
    predicates of ``space``, and ``layout.place`` must not be None.

    Local atom ``p(a1, ..., ar)`` of the row s is the space's atom ``p(s[a1],
    ..., s[ar])``, the bit at the start of p's run plus the row-major place
    ``s[a1] * n^(r-1) + ... + s[ar]``, over the space's width n.  A block
    reads one byte a (row, local atom, world) cell, the world's byte that
    holds the atom's bit, masks the bit and folds the bits into keys; it
    has at most ``stats.BLOCK_CELLS`` cells and at least one row."""
    # atom bit b is bit b % 8 of byte b // 8 of the little-endian pattern;
    # octets[b // 8, w] is that byte of world w
    octets = worlds.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
    octets = np.ascontiguousarray(octets.T[:(len(space.local) + 7) // 8])
    start = {p: columns.start for p, _, columns in space.runs}
    n, cells = space.width, len(worlds) * len(layout.local)
    for block in index_blocks(rows, layout.width, stats.BLOCK_CELLS // max(cells, 1)):
        at = np.empty((len(block), len(layout.local)), dtype=np.intp)
        for p, args, columns in layout.runs:
            place = 0
            for a in args:
                place = place * n + block[:, a]
            at[:, columns] = start[p] + place
        byte, bit = np.divmod(at, 8)
        bits = octets[byte]
        bits &= _BITS[bit][..., None]
        # the fold is fastest in place's dtype, an index read in intp's
        yield np.einsum("raw,a->rw", bits != 0, layout.place).astype(np.intp)


class DistinctRows(NamedTuple):
    """The distinct rows of a count matrix, in order of first appearance,
    read-only: ``rows[inverse]`` is the matrix, ``first[v]`` is the first
    world with row v and ``multiplicity[v]`` the number of worlds with it."""

    rows: np.ndarray
    first: np.ndarray
    multiplicity: np.ndarray
    inverse: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self)


@dataclass
class WorldSpace:
    """The worlds over ``constants`` that satisfy ``hard_rules``: int64 bit
    patterns, ascending, over ``layout``, the width-n ``PatternLayout`` of
    the vocabulary, so bit j of a world is ``atoms[j]``, local atom j read
    at the constants, and a world's bits are its key."""

    constants: tuple[str, ...]
    vocabulary: dict[str, int]
    hard_rules: tuple[Formula, ...]
    atoms: tuple[GroundAtom, ...]
    worlds: np.ndarray
    layout: PatternLayout = field(repr=False)
    _counts: dict = field(repr=False, default_factory=dict)
    _rows: dict = field(repr=False, default_factory=dict)

    def __len__(self):
        return len(self.worlds)

    def world_atoms(self, bits: int) -> frozenset[GroundAtom]:
        return frozenset(a for i, a in enumerate(self.atoms) if bits >> i & 1)

    def world_example(self, bits: int) -> GlobalExample:
        """The world ``bits`` as a structure, each predicate's position
        array read off the set bits of its run's columns."""
        drawn = {
            p: args.T[[j for j in range(args.shape[1]) if bits >> columns.start + j & 1]]
            for p, args, columns in self.layout.runs
        }
        positions = {p: drawn[p] for p in self.vocabulary}
        return GlobalExample._from_positions(self.constants, positions, self.vocabulary)

    def encode(self, world: GlobalExample) -> int:
        """Bit pattern of a GlobalExample over this space's constants and
        atoms: the ``stats.pattern_keys`` key, over the layout, of the row
        of the world's positions of the constants in its truth tables."""
        if set(world.constants) != set(self.constants):
            raise DomainError("world is over a different constant set")
        for p, rows in world.positions.items():
            if len(rows) and self.vocabulary.get(p) != rows.shape[1]:
                atom = GroundAtom(p, tuple(world.constants[i] for i in rows[0]))
                raise DomainError(f"atom {atom} does not exist in this world space")
        tables = structure_tables(world, self.vocabulary)
        row = np.array([list(map(world.constants.index, self.constants))], dtype=np.intp)
        return int(next(pattern_keys(tables, self.layout, row, 1))[0, 0])

    def world_index(self, bits: int) -> int:
        i = int(np.searchsorted(self.worlds, bits))
        if i >= len(self.worlds) or int(self.worlds[i]) != bits:
            raise DomainError(f"bit pattern {bits} is not a world of this space (hard rules?)")
        return i

    # -- statistics ---------------------------------------------------------

    def normalizers(self, formulas: Sequence[Formula], kind: ModelKind) -> np.ndarray:
        """Statistic denominators: subset count for Model A, injective
        substitution count per formula for Model B, as the kind counts them."""
        n = len(self.constants)
        return np.array([kind.count(kind.bind(f)[0], n) for f in formulas], dtype=np.int64)

    def count_matrix(self, formulas: Sequence[Formula], kind: ModelKind) -> np.ndarray:
        """Unnormalized statistic counts, one row per world, one column per
        formula.  Raises ``CapExceededError`` before allocating when the
        truth tables (named atoms by worlds, one byte each) or the matrix
        (worlds by formulas, eight bytes each) would take more than
        ``WORLD_TABLE_BYTE_CAP`` bytes.  Matrices are cached beside the
        distinct rows (``distinct_rows``); a new one that would take the two
        past that cap empties both first (``_keep``).
        A cached matrix of the same kind that holds every requested formula
        answers from its columns, and the cache does not change.

        The formulas are grouped by width, which with the kind fixes their
        groundings.  A group's layout is the space's predicates that it
        names, at its width; up to ``stats.CLASS_TABLE_ATOMS`` local atoms,
        ``world_keys`` reads the key of every grounding in every world once,
        and each formula's column sums its pattern table over that layout
        at the keys.  A wider group decodes its predicates' truth tables
        (``world_tables``) and counts each formula with
        ``stats.count_groundings``."""
        key = (tuple(formulas), kind)
        cached = self._counts.get(key)
        if cached is not None:
            return cached
        for (held, held_kind), matrix in self._counts.items():
            if held_kind == kind:
                column = {f: j for j, f in enumerate(held)}
                if all(f in column for f in formulas):
                    return matrix[:, [column[f] for f in formulas]]
        n, w = len(self.constants), len(self.worlds)
        checked = check_formulas(formulas, self.vocabulary, kind, n)
        named = {p for c in checked for p in c.vocabulary}
        table_bytes = w * sum(n**a for p, a in self.vocabulary.items() if p in named)
        check_cells(
            table_bytes, f"truth tables of {table_bytes} bytes over {w} worlds", WORLD_TABLE_BYTE_CAP
        )
        matrix_bytes = 8 * w * len(formulas)
        check_cells(
            matrix_bytes,
            f"counts of {w} worlds by {len(formulas)} formulas in {matrix_bytes} bytes",
            WORLD_TABLE_BYTE_CAP,
        )
        out = np.zeros((w, len(formulas)), dtype=np.int64)
        groups: dict[int, list[int]] = {}  # width -> columns
        for j, c in enumerate(checked):
            groups.setdefault(c.width, []).append(j)
        for k, columns in groups.items():
            own = {p for j in columns for p in checked[j].vocabulary}
            layout = pattern_layout({p: a for p, a in self.vocabulary.items() if p in own}, k)
            if len(layout.local) > CLASS_TABLE_ATOMS:
                tables = world_tables(self.worlds, self.layout, own)
                for j in columns:
                    out[:, j] = count_groundings(checked[j], checked[j].rows(n), tables, w)
                continue
            truths = [_pattern_table(checked[j], layout).truth for j in columns]
            rows = grounding_rows(kind, k, n)
            for keys in world_keys(self.worlds, self.layout, layout, rows):
                for j, truth in zip(columns, truths):
                    out[:, j] += truth[keys].sum(axis=0)
        self._keep(self._counts, key, out)
        return out

    def distinct_rows(self, formulas: Sequence[Formula], kind: ModelKind) -> DistinctRows:
        """The ``DistinctRows`` of ``count_matrix(formulas, kind)``, which the
        max-entropy solver and the polytope read: a model sees a world only
        through its row.  Kept beside the count matrices, in the same cache
        (``_keep``); a request that the matrix answers from a wider matrix's
        columns gets the distinct rows of those columns."""
        key = (tuple(formulas), kind)
        kept = self._rows.get(key)
        if kept is not None:
            return kept
        counts = self.count_matrix(formulas, kind)
        first, multiplicity, inverse = distinct_rows(counts, self.normalizers(formulas, kind) + 1)
        out = DistinctRows(counts[first], first, multiplicity, inverse)
        for a in out:
            a.flags.writeable = False
        self._keep(self._rows, key, out)
        return out

    def _keep(self, cache: dict, key, value) -> None:
        """Keep ``value`` in ``cache`` (``_counts`` or ``_rows``); one that
        would take the bytes of both past ``WORLD_TABLE_BYTE_CAP`` empties
        both first."""
        held = sum(v.nbytes for c in (self._counts, self._rows) for v in c.values())
        if value.nbytes + held > WORLD_TABLE_BYTE_CAP:
            self._counts.clear()
            self._rows.clear()
        cache[key] = value


def check_atom_cap(n: int, vocabulary: Mapping[str, int]) -> int:
    """The number of ground atoms over ``n`` constants; raises
    ``CapExceededError`` when it exceeds ``DEFAULT_ATOM_CAP``.  Needs only the
    domain size, so callers can check before naming any constant."""
    n_atoms = sum(n**arity for arity in vocabulary.values())
    if n_atoms > DEFAULT_ATOM_CAP:
        raise CapExceededError(
            f"{n_atoms} ground atoms exceed the enumeration cap of {DEFAULT_ATOM_CAP}",
            n_atoms,
            DEFAULT_ATOM_CAP,
        )
    return n_atoms


def enumerate_worlds(
    constants: Iterable[str],
    vocabulary: Mapping[str, int],
    hard_rules: Iterable[Formula] = (),
) -> WorldSpace:
    """Build the world space over ``constants`` filtered by ``hard_rules``.

    Worlds are int bit patterns over the atom order of the space's layout,
    ``stats.pattern_layout(vocabulary, n)``, read at the constants:
    predicates sorted by name, argument tuples in product order over the
    constant order.
    """
    constants = tuple(constants)
    if len(set(constants)) != len(constants):
        raise DomainError("duplicate constants")
    vocabulary, n = dict(vocabulary), len(constants)
    n_atoms = check_atom_cap(n, vocabulary)
    layout = pattern_layout(vocabulary, n)
    atoms = tuple(GroundAtom(p, tuple(constants[i] for i in args)) for p, args in layout.local)
    hard_rules = tuple(hard_rules)
    cset = set(constants)
    for rule in hard_rules:
        signature = rule.signature
        if signature.free:
            raise DomainError("hard rules must be closed formulas")
        unknown = set(signature.constants) - cset
        if unknown:
            raise DomainError(f"hard rule uses unknown constant(s): {', '.join(sorted(unknown))}")
        merge_vocabulary(vocabulary_of(rule), vocabulary)
    # a hard rule is evaluated at its one grounding: every constant's
    # position is in the domain, and the rule's constants are bound by name
    domain = np.arange(n)[:, None]
    env = dict(zip(constants, domain))
    worlds = np.arange(1 << n_atoms, dtype=np.int64)
    for rule in hard_rules:
        tables = world_tables(worlds, layout, vocabulary_of(rule))
        held = holds_over(rule, tables, (1, len(worlds)), domain, env, _axis_cells(rule, n))
        worlds = worlds[held[0]]
    return WorldSpace(constants, vocabulary, hard_rules, atoms, worlds, layout)
