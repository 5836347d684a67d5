"""Blow a structure up to a multiple of its size while preserving its local look.

The l-level expansion of (A, C) with |C| = n lives on l*n constants; position
i and position j are congruent iff i = j (mod n).  Each atom is copied by
replacing each of its distinct constants, independently of the other
constants in that atom, by every congruent constant.  Width-k fragment
statistics of the result stay within a closed-form bound of the original's,
and adding independent noise on the congruent atom slots keeps every local
example possible, which is what pushes estimated marginals into the interior
of the polytope.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Mapping

from .data import CanonicalForm, GlobalExample, GroundAtom
from .errors import CapExceededError, DomainError
from .stats import ModelA, formula_width

# constants, atoms and noise slots one expansion may materialise
EXPANSION_CAP = 1_000_000


def congruent(i: int, j: int, n: int) -> bool:
    """Whether 1-based constant positions i and j are congruent modulo n."""
    if n < 1 or i < 1 or j < 1:
        raise DomainError("positions and modulus must be positive")
    return (i - j) % n == 0


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


def required_expansion_level(kind, formulas: Iterable) -> int:
    """Smallest noisy-expansion level that makes every width reachable.

    For fragment statistics this is the subset width; for substitution
    statistics, the largest variable count among the formulas.
    """
    if isinstance(kind, ModelA):
        return kind.width
    widths = [formula_width(kind, f) for f in formulas]
    if not widths:
        raise DomainError("no formulas to derive a level from")
    return max(widths)


def noisy_expand(
    example: GlobalExample,
    level: int,
    eps: float,
    rng: random.Random,
    min_level: int | None = None,
) -> GlobalExample:
    """Expand, then add each absent atom over pairwise-congruent constants
    independently with probability ``eps``.

    ``min_level`` (from :func:`required_expansion_level`) guards the level
    needed for the statistics that will be read off the result.
    """
    if not 0 <= eps <= 1:
        raise DomainError(f"noise probability {eps} outside [0, 1]")
    if min_level is not None and level < min_level:
        raise DomainError(
            f"expansion level {level} too small; minimum admissible level is {min_level}"
        )
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
    keys = set(base) | set(expanded)
    zero = Fraction(0)
    return {
        key: (expanded.get(key, zero) - (1 - g) * base.get(key, zero)) / g for key in keys
    }
