"""Relational structures: global examples, fragments, local examples.

A global example is a finite relational structure (A, C): a set of ground
atoms A over an ordered constant set C.  It is held as C and, per predicate,
one sorted, repeat-free, read-only array of the constant positions of its
atoms, the form that truth tables, expansions and fragments read; the atom
set is a view built on demand.  Only the constructor (reading the atoms it
is given, in one checking pass) and that view handle ``GroundAtom``s: the
facts parser, fragments, expansions, random structures and world spaces
build the arrays directly.  A fragment keeps the atoms whose constants all
lie inside a chosen subset.  Local examples are fragments re-labelled onto
the canonical constants 1..k; their isomorphism classes are represented by
a lexicographically minimal canonical form.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import CapExceededError, DomainError, FactsSyntaxError, VocabularyError

ISO_WIDTH_CAP = 8
_INT64_MAX = np.iinfo(np.int64).max

_NAME_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_ATOM_RE = re.compile(r"([a-z][A-Za-z0-9_]*)\(([^()]*)\)\s*\.?\Z")


@dataclass(frozen=True)
class GroundAtom:
    pred: str
    args: tuple[str, ...]

    def __str__(self):
        return f"{self.pred}({','.join(self.args)})"


class _AtomView:
    """The ``atoms`` field of a ``GlobalExample``, a data descriptor.  The
    dataclass ``__init__`` hands it the given atoms, which ``__post_init__``
    reads into position arrays; the first read builds the frozenset of
    ground atoms from the arrays and keeps it.  Read on the class, it is the
    field's default, the empty set."""

    def __get__(self, example, owner=None):
        if example is None:
            return frozenset()
        kept = example.__dict__
        if "_atoms" not in kept:
            kept["_atoms"] = frozenset(itertools.starmap(GroundAtom, _named_atoms(example)))
        return kept["_atoms"]

    def __set__(self, example, atoms):
        example.__dict__["_given"] = atoms


@dataclass(frozen=True)
class GlobalExample:
    """Ground atoms over an ordered constant set, plus an optional declared vocabulary.

    The declared vocabulary lets atom-free predicates exist (an empty structure
    over a unary predicate is a legal model); it is merged with the vocabulary
    inferred from the atoms.

    A structure is held as its constants and ``positions``: a read-only
    map from each predicate of its vocabulary (the declared ones first,
    then the others by name) to one sorted, repeat-free, read-only (atoms,
    arity) array of constant positions, read from the given atoms in one
    checking pass.  ``atoms`` is a view of the arrays, built on its first
    read.  Equality and hashing compare the constants and the arrays of the
    predicates that have atoms, which is comparing the constants and the
    atom sets, without building the view.
    """

    constants: tuple[str, ...]
    atoms: frozenset[GroundAtom] = _AtomView()
    # excluded from equality and hashing: the declared vocabulary widens the
    # signature but never changes which atoms hold
    vocab: Mapping[str, int] | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "constants", tuple(self.constants))
        if self.vocab is not None:
            object.__setattr__(self, "vocab", dict(self.vocab))
        if len(set(self.constants)) != len(self.constants):
            raise DomainError("duplicate constants")
        positions = _read_atoms(self.constants, self.__dict__.pop("_given"), self.vocab or {})
        object.__setattr__(self, "positions", MappingProxyType(positions))

    @classmethod
    def _from_positions(
        cls,
        constants: tuple[str, ...],
        positions: dict[str, np.ndarray],
        vocab: Mapping[str, int] | None = None,
    ) -> GlobalExample:
        """The structure over the distinct ``constants`` whose position
        arrays are ``positions``, in vocabulary order, each sorted and
        repeat-free (``canonical_rows``) and in range; nothing is checked
        and no atom is built.  The arrays become read-only."""
        example = object.__new__(cls)
        for rows in positions.values():
            rows.flags.writeable = False
        vocab = None if vocab is None else dict(vocab)
        positions = MappingProxyType(positions)
        example.__dict__.update(constants=constants, vocab=vocab, positions=positions)
        return example

    def __reduce__(self):
        return type(self)._from_positions, (self.constants, dict(self.positions), self.vocab)

    def _key(self) -> tuple:
        """The constants and each predicate that has atoms with its arity
        and the bytes of its array, by name."""
        held = [(p, rows) for p, rows in self.positions.items() if len(rows)]
        return self.constants, tuple(sorted((p, rows.shape[1], rows.tobytes()) for p, rows in held))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def vocabulary(self) -> dict[str, int]:
        """Each predicate's arity: the declared ones first, then the others
        by name.  A fresh map, so the caller may change it."""
        return {p: rows.shape[1] for p, rows in self.positions.items()}

    def __str__(self):
        return f"({{{', '.join(_facts(self))}}}, {{{', '.join(self.constants)}}})"


def _read_atoms(
    constants: tuple[str, ...], atoms: Iterable, declared: Mapping[str, int]
) -> dict[str, np.ndarray]:
    """The position arrays of ``atoms`` (``GroundAtom``s or (predicate,
    arguments) pairs) over ``constants``, one per predicate, the
    ``declared`` ones first and then the others by name.  Raises the error
    of ``_atom_error`` when an atom uses a constant outside ``constants`` or
    a second arity."""
    args: dict[str, list[tuple]] = {}
    for atom in atoms:
        if isinstance(atom, GroundAtom):
            args.setdefault(atom.pred, []).append(atom.args)
        else:
            args.setdefault(atom[0], []).append(tuple(atom[1]))
    position = {c: i for i, c in enumerate(constants)}
    out = {}
    for p in [*declared, *sorted(args.keys() - declared.keys())]:
        held = args.get(p, [])
        arity = declared[p] if p in declared else len(held[0])
        try:
            if set(map(len, held)) - {arity}:
                raise KeyError(p)
            flat = map(position.__getitem__, itertools.chain.from_iterable(held))
            rows = np.fromiter(flat, dtype=np.intp, count=len(held) * arity)
        except KeyError:
            raise _atom_error(constants, args, declared) from None
        out[p] = canonical_rows(rows.reshape(len(held), arity), len(constants))
    return out


def _atom_error(
    constants: tuple[str, ...], args: Mapping[str, list[tuple]], declared: Mapping[str, int]
) -> DomainError | VocabularyError:
    """The error for the first atom in (predicate, arguments) order, of the
    predicates' argument lists ``args``, that uses a constant outside
    ``constants`` or a second arity, a declared arity coming first; there
    must be one."""
    known = set(constants)
    arity = dict(declared)
    for pred, held in sorted((p, a) for p, rows in args.items() for a in rows):
        for arg in held:
            if arg not in known:
                atom = GroundAtom(pred, held)
                return DomainError(f"atom {atom} uses constant {arg!r} outside the constant set")
        seen = arity.setdefault(pred, len(held))
        if seen != len(held):
            return VocabularyError(f"predicate {pred!r} used with arities {seen} and {len(held)}")
    raise AssertionError("no offending atom")


def row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """The row-major index of each row of ``rows``, positions in 0..n-1:
    int64 when n**arity fits it, Python ints (dtype object) past that."""
    arity = rows.shape[1]
    place = [n**i for i in range(arity - 1, -1, -1)]
    if n**arity <= _INT64_MAX:
        return rows @ np.array(place, dtype=np.int64)
    return rows.astype(object) @ np.array(place, dtype=object)


def canonical_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """``rows`` of positions in 0..n-1 in row-major order without repeats,
    read-only: the form of a ``GlobalExample``'s position arrays."""
    if len(rows) > 1:
        rows = rows[np.unique(row_keys(rows, n), return_index=True)[1]]
    rows.flags.writeable = False
    return rows


def position_grid(n: int, arity: int) -> np.ndarray:
    """Every row of ``arity`` positions in 0..n-1 in ``itertools.product``
    order, which is row-major, as one (n**arity, arity) array."""
    return np.indices((n,) * arity, dtype=np.intp).reshape(arity, n**arity).T


def _named_atoms(example: GlobalExample) -> list[tuple[str, tuple[str, ...]]]:
    """Each atom of ``example`` as its predicate and argument names, read
    off its arrays."""
    names = example.constants
    return [
        (p, tuple(map(names.__getitem__, row)))
        for p, rows in example.positions.items()
        for row in rows.tolist()
    ]


def _facts(example: GlobalExample) -> list[str]:
    """Each atom of ``example`` as text, in (predicate, arguments) order."""
    return [f"{p}({','.join(args)})" for p, args in sorted(_named_atoms(example))]


def fragment(example: GlobalExample, subset: Iterable[str]) -> GlobalExample:
    """The substructure induced by ``subset``: atoms whose constants all lie in it.

    The returned constant set is ``subset`` in the order of ``example``.
    Each position array keeps the rows whose positions all lie in the
    subset, renumbered in order, so they stay sorted.
    """
    chosen = set(subset)
    unknown = chosen - set(example.constants)
    if unknown:
        raise DomainError(f"unknown constant(s): {', '.join(sorted(unknown))}")
    inside = [c in chosen for c in example.constants]
    kept = tuple(itertools.compress(example.constants, inside))
    # each position's place in the fragment, -1 outside it
    place = np.full(len(inside), -1, dtype=np.intp)
    place[np.flatnonzero(inside)] = np.arange(len(kept))
    positions = {}
    for p, rows in example.positions.items():
        moved = place[rows]
        positions[p] = moved[(moved >= 0).all(axis=1)]
    # the substructure keeps the full signature, including predicates whose
    # atoms were all dropped
    return GlobalExample._from_positions(kept, positions, example.vocabulary())


# ---------------------------------------------------------------------------
# local examples and canonical forms

LocalAtom = tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class LocalExample:
    """A width-k structure over the canonical constants 1..k."""

    width: int
    atoms: frozenset[LocalAtom] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "atoms", frozenset(self.atoms))
        arity: dict[str, int] = {}
        for pred, args in sorted(self.atoms):
            if not all(1 <= a <= self.width for a in args):
                raise DomainError(f"local atom {pred}{args} outside width {self.width}")
            seen = arity.setdefault(pred, len(args))
            if seen != len(args):
                raise VocabularyError(
                    f"predicate {pred!r} used with arities {seen} and {len(args)}"
                )

    def __str__(self):
        atoms = ", ".join(
            f"{p}({','.join(map(str, args))})" for p, args in sorted(self.atoms)
        )
        return f"({{{atoms}}}, width {self.width})"


@dataclass(frozen=True, slots=True)
class CanonicalForm:
    """Lexicographically minimal relabelling of a local example's atom set."""

    width: int
    atoms: tuple[LocalAtom, ...]
    automorphisms: int
    # the hash of the compared fields, computed once: forms key the marginal
    # dicts that the mixture decomposition reads two to four times a form
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.width, self.atoms, self.automorphisms)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: an unpickled form hashes again
        return CanonicalForm, (self.width, self.atoms, self.automorphisms)

    @property
    def class_size(self) -> int:
        # distinct labelled members of the isomorphism class
        return math.factorial(self.width) // self.automorphisms


def check_iso_width(width: int):
    """Raise ``CapExceededError`` for an isomorphism search wider than
    ``ISO_WIDTH_CAP``."""
    if width > ISO_WIDTH_CAP:
        raise CapExceededError(
            f"isomorphism search over width {width} exceeds cap {ISO_WIDTH_CAP}",
            width,
            ISO_WIDTH_CAP,
        )


def canonicalize(local: LocalExample) -> CanonicalForm:
    """Canonical form and automorphism count of ``local``.

    Minimizes the sorted atom tuple over all k! relabellings; the number of
    relabellings attaining the minimum equals the automorphism group size.
    This is ``stats.canonical_patterns`` on one pattern: the atoms are
    encoded over the local atoms of their ``stats.pattern_layout``, and the
    canonical image is decoded back to atoms.
    """
    # stats imports this module, so the kernel is imported at call time
    from . import stats

    check_iso_width(local.width)
    layout = stats.pattern_layout({p: len(args) for p, args in local.atoms}, local.width)
    order = [(p, tuple(a + 1 for a in args)) for p, args in layout.local]
    pattern = np.array([[atom in local.atoms for atom in order]], dtype=bool)
    images, automorphisms = stats.canonical_patterns(pattern, layout, local.width)
    atoms = tuple(atom for atom, bit in zip(order, images[0]) if bit)
    return CanonicalForm(local.width, atoms, int(automorphisms[0]))


# ---------------------------------------------------------------------------
# facts files

def parse_facts(text: str, source: str = "<facts>") -> GlobalExample:
    """Parse a facts file: one ground atom per line, ``@constants`` directive,
    ``#`` comments, optional trailing periods.  Each atom is read as a row
    of constant positions, so no ``GroundAtom`` is built."""
    position: dict[str, int] = {}  # the constants, in order of appearance

    def intern(name: str, lineno: int):
        if not _NAME_RE.match(name):
            raise FactsSyntaxError(f"bad constant name {name!r}", lineno, source)
        position.setdefault(name, len(position))

    rows: dict[str, list[tuple[int, ...]]] = {}
    arity: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("@constants"):
            rest = line[len("@constants") :].strip().rstrip(".")
            for name in filter(None, (n.strip() for n in rest.split(","))):
                intern(name, lineno)
            continue
        m = _ATOM_RE.match(line)
        if m is None:
            raise FactsSyntaxError(f"cannot parse {line!r} as a ground atom", lineno, source)
        pred, arg_text = m.group(1), m.group(2)
        args = tuple(a.strip() for a in arg_text.split(","))
        if not args or any(not a for a in args):
            raise FactsSyntaxError(f"bad argument list in {line!r}", lineno, source)
        first = arity.setdefault(pred, len(args))
        if first != len(args):
            raise FactsSyntaxError(
                f"predicate {pred!r} used with arity {len(args)}, earlier {first}",
                lineno,
                source,
            )
        for arg in args:
            intern(arg, lineno)
        rows.setdefault(pred, []).append(tuple(map(position.__getitem__, args)))
    # position tuples sort in row-major order
    positions = {p: np.array(sorted(set(rows[p])), dtype=np.intp) for p in sorted(rows)}
    return GlobalExample._from_positions(tuple(position), positions)


def format_facts(example: GlobalExample) -> str:
    """Render to the facts format; the directive pins the constant order."""
    lines = [f"@constants {', '.join(example.constants)}", *_facts(example)]
    return "\n".join(lines) + "\n"


def read_facts(path) -> GlobalExample:
    with open(path, encoding="utf-8") as fh:
        return parse_facts(fh.read(), source=str(path))

