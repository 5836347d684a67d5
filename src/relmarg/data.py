"""Relational structures: global examples, fragments, local examples.

A global example is a finite relational structure (A, C): a set of ground
atoms A over an ordered constant set C.  A fragment keeps the atoms whose
constants all lie inside a chosen subset.  Local examples are fragments
re-labelled onto the canonical constants 1..k; their isomorphism classes are
represented by a lexicographically minimal canonical form.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import CapExceededError, DomainError, FactsSyntaxError, VocabularyError

ISO_WIDTH_CAP = 8

_NAME_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_ATOM_RE = re.compile(r"([a-z][A-Za-z0-9_]*)\(([^()]*)\)\s*\.?\Z")
_PRED, _ARGS = operator.attrgetter("pred"), operator.attrgetter("args")


@dataclass(frozen=True)
class GroundAtom:
    pred: str
    args: tuple[str, ...]

    def __str__(self):
        return f"{self.pred}({','.join(self.args)})"


@dataclass(frozen=True)
class GlobalExample:
    """Ground atoms over an ordered constant set, plus an optional declared vocabulary.

    The declared vocabulary lets atom-free predicates exist (an empty structure
    over a unary predicate is a legal model); it is merged with the vocabulary
    inferred from the atoms.
    """

    constants: tuple[str, ...]
    atoms: frozenset[GroundAtom] = frozenset()
    # excluded from equality and hashing: the declared vocabulary widens the
    # signature but never changes which atoms hold
    vocab: Mapping[str, int] | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "constants", tuple(self.constants))
        atoms = self.atoms
        # a frozenset of ground atoms is kept as it is, without hashing again
        if type(atoms) is not frozenset or not set(map(type, atoms)) <= {GroundAtom}:
            atoms = frozenset(
                a if isinstance(a, GroundAtom) else GroundAtom(a[0], tuple(a[1])) for a in atoms
            )
        object.__setattr__(self, "atoms", atoms)
        if self.vocab is not None:
            object.__setattr__(self, "vocab", dict(self.vocab))
        if len(set(self.constants)) != len(self.constants):
            raise DomainError("duplicate constants")
        if self._atom_error(atoms) is not None:
            # report the first offending atom in sorted order, whichever one
            # the set order met first
            raise self._atom_error(sorted(atoms, key=lambda a: (a.pred, a.args)))

    def _atom_error(self, atoms: Iterable[GroundAtom]) -> DomainError | VocabularyError | None:
        """The error for the first atom, in the order of ``atoms``, that uses
        a constant outside the constant set or a second arity."""
        cset = set(self.constants)
        arity: dict[str, int] = dict(self.vocab or {})
        for atom in atoms:
            for arg in atom.args:
                if arg not in cset:
                    return DomainError(f"atom {atom} uses constant {arg!r} outside the constant set")
            seen = arity.setdefault(atom.pred, len(atom.args))
            if seen != len(atom.args):
                return VocabularyError(
                    f"predicate {atom.pred!r} used with arities {seen} and {len(atom.args)}"
                )
        return None

    def vocabulary(self) -> dict[str, int]:
        vocab = dict(self.vocab or {})
        vocab.update(zip(map(_PRED, self.atoms), map(len, map(_ARGS, self.atoms))))
        return vocab

    def __str__(self):
        atoms = ", ".join(str(a) for a in sorted(self.atoms, key=lambda a: (a.pred, a.args)))
        return f"({{{atoms}}}, {{{', '.join(self.constants)}}})"


def fragment(example: GlobalExample, subset: Iterable[str]) -> GlobalExample:
    """The substructure induced by ``subset``: atoms whose constants all lie in it.

    The returned constant set is ``subset`` in the order of ``example``.
    """
    chosen = set(subset)
    unknown = chosen - set(example.constants)
    if unknown:
        raise DomainError(f"unknown constant(s): {', '.join(sorted(unknown))}")
    kept = tuple(c for c in example.constants if c in chosen)
    atoms = frozenset(a for a in example.atoms if all(arg in chosen for arg in a.args))
    # the substructure keeps the full signature, including predicates whose
    # atoms were all dropped
    return GlobalExample(kept, atoms, example.vocabulary())


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
    encoded over the local atoms in its order (``stats.local_atoms``), and
    the canonical image is decoded back to atoms.
    """
    # stats imports this module, so the kernel is imported at call time
    from . import stats

    check_iso_width(local.width)
    vocabulary = {p: len(args) for p, args in local.atoms}
    order = [
        (p, tuple(a + 1 for a in args)) for p, args in stats.local_atoms(vocabulary, local.width)
    ]
    pattern = np.array([[atom in local.atoms for atom in order]], dtype=bool)
    images, automorphisms = stats.canonical_patterns(pattern, vocabulary, local.width)
    atoms = tuple(atom for atom, bit in zip(order, images[0]) if bit)
    return CanonicalForm(local.width, atoms, int(automorphisms[0]))


# ---------------------------------------------------------------------------
# facts files

def parse_facts(text: str, source: str = "<facts>") -> GlobalExample:
    """Parse a facts file: one ground atom per line, ``@constants`` directive,
    ``#`` comments, optional trailing periods."""
    constants: list[str] = []
    seen = set()

    def intern(name: str, lineno: int):
        if not _NAME_RE.match(name):
            raise FactsSyntaxError(f"bad constant name {name!r}", lineno, source)
        if name not in seen:
            seen.add(name)
            constants.append(name)

    atoms = []
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
        atoms.append(GroundAtom(pred, args))
    return GlobalExample(tuple(constants), frozenset(atoms))


def format_facts(example: GlobalExample) -> str:
    """Render to the facts format; the directive pins the constant order."""
    lines = [f"@constants {', '.join(example.constants)}"]
    lines.extend(str(a) for a in sorted(example.atoms, key=lambda a: (a.pred, a.args)))
    return "\n".join(lines) + "\n"


def read_facts(path) -> GlobalExample:
    with open(path, encoding="utf-8") as fh:
        return parse_facts(fh.read(), source=str(path))

