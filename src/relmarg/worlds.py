"""Exhaustive possible-world spaces over a fixed domain and vocabulary.

A world is a subset of the ground atoms, encoded as an integer bit pattern
over a dense, deterministic atom order.  A world space enumerates every
pattern satisfying the hard rules, in ascending pattern order, and caches the
per-world statistic counts that the max-entropy solver and the polytope code
share.  The atom count is capped because everything downstream is exponential
in it by design.

Nothing here walks one world at a time.  ``world_tables`` reads each
predicate's truth table off the bit patterns, one column per world, and the
evaluator that also serves single examples (``stats.holds_over``) decides a
formula over every world at once: the hard-rule filter evaluates each rule at
its one grounding, and ``count_matrix`` counts each formula's true groundings
with ``stats.count_groundings``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Iterable, Mapping, Sequence

import numpy as np

from .data import GlobalExample, GroundAtom, position_grid
from .errors import CapExceededError, DomainError
from .logic import Formula, constants_of, free_vars, merge_vocabulary, vocabulary_of
from .stats import (
    TABLE_CELL_CAP,
    ModelKind,
    check_cells,
    check_formulas,
    count_groundings,
    holds_over,
    local_atoms,
)

DEFAULT_ATOM_CAP = 24
# bytes that the truth tables, and apart from them the count matrix, of one
# world space may take: a matrix of TABLE_CELL_CAP int64 counts.  The truth
# tables of every space enumerate_worlds admits, at most DEFAULT_ATOM_CAP
# one-byte atoms by 2^DEFAULT_ATOM_CAP worlds, fit.
WORLD_TABLE_BYTE_CAP = 8 * TABLE_CELL_CAP


def world_tables(
    worlds: np.ndarray, n: int, vocabulary: Mapping[str, int], named: Container[str]
) -> dict[str, np.ndarray]:
    """Truth tables over an array of bit patterns, for the predicates in
    ``named``: ``tables[p][i, j, ..., w]`` is bit ``offset(p) + (i, j, ...)``
    of world w.  Atoms are in the order of ``stats.local_atoms(vocabulary,
    n)``, sorted predicates with argument tuples in product order, which is
    row-major, so each predicate's bits reshape into its table directly.
    With ``n`` = k these are the local atoms of a ``stats.PatternLayout`` of
    width k, so world i is the local pattern whose key is i."""
    # atom bit k is bit k % 8 of byte k // 8 of the little-endian pattern
    n_bytes = (sum(n**arity for arity in vocabulary.values()) + 7) // 8
    octets = worlds.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
    octets = np.ascontiguousarray(octets.T[:n_bytes])
    tables = {}
    offset = 0
    for pred in sorted(vocabulary):
        size = n ** vocabulary[pred]
        if pred in named:
            table = np.empty((size, len(worlds)), dtype=bool)
            for i, k in enumerate(range(offset, offset + size)):
                np.not_equal(octets[k // 8] & (1 << k % 8), 0, out=table[i])
            tables[pred] = table.reshape((n,) * vocabulary[pred] + (len(worlds),))
        offset += size
    return tables


@dataclass
class WorldSpace:
    constants: tuple[str, ...]
    vocabulary: dict[str, int]
    hard_rules: tuple[Formula, ...]
    atoms: tuple[GroundAtom, ...]
    worlds: np.ndarray  # int64 bit patterns, ascending
    _index: dict[GroundAtom, int] = field(repr=False, default_factory=dict)
    _counts: dict = field(repr=False, default_factory=dict)

    def __len__(self):
        return len(self.worlds)

    def world_atoms(self, bits: int) -> frozenset[GroundAtom]:
        return frozenset(a for i, a in enumerate(self.atoms) if bits >> i & 1)

    def world_example(self, bits: int) -> GlobalExample:
        """The world ``bits`` as a structure, its position arrays read off
        the bits of each predicate's run of atoms."""
        n, offset, drawn = len(self.constants), 0, {}
        for p in sorted(self.vocabulary):
            grid = position_grid(n, self.vocabulary[p])
            drawn[p] = grid[[i for i in range(len(grid)) if bits >> offset + i & 1]]
            offset += len(grid)
        positions = {p: drawn[p] for p in self.vocabulary}
        return GlobalExample._from_positions(self.constants, positions, self.vocabulary)

    def encode(self, world: GlobalExample) -> int:
        """Bit pattern of a GlobalExample over this space's constants and atoms."""
        if set(world.constants) != set(self.constants):
            raise DomainError("world is over a different constant set")
        bits = 0
        for atom in world.atoms:
            i = self._index.get(atom)
            if i is None:
                raise DomainError(f"atom {atom} does not exist in this world space")
            bits |= 1 << i
        return bits

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
        ``WORLD_TABLE_BYTE_CAP`` bytes.  Matrices are cached; a new one that
        would take the cache past that cap replaces all the cached ones.
        A cached matrix of the same kind that holds every requested formula
        answers from its columns, and the cache does not change."""
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
        tables = world_tables(self.worlds, n, self.vocabulary, named)
        out = np.zeros((w, len(formulas)), dtype=np.int64)
        for j, c in enumerate(checked):
            out[:, j] = count_groundings(c, c.rows(n), tables, w)
        if out.nbytes + sum(c.nbytes for c in self._counts.values()) > WORLD_TABLE_BYTE_CAP:
            self._counts.clear()
        self._counts[key] = out
        return out


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

    Worlds are int bit patterns over the atom order of
    ``stats.local_atoms(vocabulary, n)`` read at the constants: predicates
    sorted by name, argument tuples in product order over the constant order.
    """
    constants = tuple(constants)
    if len(set(constants)) != len(constants):
        raise DomainError("duplicate constants")
    vocabulary = dict(vocabulary)
    n_atoms = check_atom_cap(len(constants), vocabulary)
    atoms = [
        GroundAtom(p, tuple(constants[i] for i in args))
        for p, args in local_atoms(vocabulary, len(constants))
    ]
    hard_rules = tuple(hard_rules)
    cset = set(constants)
    for rule in hard_rules:
        if free_vars(rule):
            raise DomainError("hard rules must be closed formulas")
        unknown = constants_of(rule) - cset
        if unknown:
            raise DomainError(f"hard rule uses unknown constant(s): {', '.join(sorted(unknown))}")
        merge_vocabulary(vocabulary_of(rule), vocabulary)
    # a hard rule is evaluated at its one grounding: every constant's
    # position is in the domain, and the rule's constants are bound by name
    n = len(constants)
    positions = [np.array([i]) for i in range(n)]
    worlds = np.arange(1 << n_atoms, dtype=np.int64)
    for rule in hard_rules:
        tables = world_tables(worlds, n, vocabulary, vocabulary_of(rule))
        env = dict(zip(constants, positions))
        worlds = worlds[holds_over(rule, tables, (1, len(worlds)), positions, env)[0]]
    index = {a: i for i, a in enumerate(atoms)}
    return WorldSpace(constants, vocabulary, hard_rules, tuple(atoms), worlds, index)
