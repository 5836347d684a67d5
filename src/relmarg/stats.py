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
in what a grounding is.  ``normalizer``, ``groundings`` and ``grounding_test``
are the only code that knows, and every statistic in the package goes
through them.  All statistics are computed by exhaustive enumeration and
returned as ``fractions.Fraction``; convert at the boundary if floats are
wanted.

Two evaluators sit under the groundings.  ``grounding_test`` walks the
formula with ``logic.holds`` on one structure, for the statistic of a single
example.  ``grounding_columns`` is its vector twin for world spaces: it
evaluates the formula over every world at once, as numpy boolean columns, and
``WorldSpace.count_matrix`` and the hard-rule filter in ``enumerate_worlds``
go through it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .data import CanonicalForm, GlobalExample, GroundAtom, as_local, canonicalize, fragment
from .errors import DomainError, FormulaSyntaxError
from .logic import (
    And,
    Eq,
    Exists,
    Formula,
    Not,
    Or,
    PredAtom,
    Var,
    constants_of,
    format_formula,
    free_vars,
    holds,
    merge_vocabulary,
    parse_formula,
    quantifier_free,
    strip_foralls,
    vars_of,
    vocabulary_of,
)


@dataclass(frozen=True)
class ModelA:
    """Fragment statistics at a fixed subset width."""

    width: int

    def __post_init__(self):
        if self.width < 1:
            raise DomainError("Model A width must be at least 1")


@dataclass(frozen=True)
class ModelB:
    """Injective-substitution statistics; width is per formula (its variable count)."""


MODEL_B = ModelB()
ModelKind = ModelA | ModelB


def formula_width(kind: ModelKind, f: Formula) -> int:
    """Subset width used by Model A, variable count used by Model B."""
    if isinstance(kind, ModelA):
        return kind.width
    return len(vars_of(f))


def check_formula(f: Formula, vocabulary: Mapping[str, int]):
    """Raise unless ``f`` is closed, constant-free and fits ``vocabulary``."""
    if free_vars(f):
        raise DomainError(f"formula is not closed: {format_formula(f)}")
    if constants_of(f):
        raise DomainError(f"formula must be constant-free: {format_formula(f)}")
    merge_vocabulary(vocabulary_of(f), vocabulary)


def universal_parts(f: Formula) -> tuple[tuple[Var, ...], Formula]:
    """Prefix variables and matrix of a universally quantified formula.

    Raises unless ``f`` is a chain of universal quantifiers over every
    variable, with a quantifier-free matrix; Model B statistics are not
    defined for anything else.
    """
    vs, matrix = strip_foralls(f)
    if not vs or not quantifier_free(matrix) or vars_of(matrix) - set(vs):
        raise DomainError(
            "Model B statistics require a universally quantified formula "
            f"with a quantifier-free matrix, got: {format_formula(f)}"
        )
    return vs, matrix


# ---------------------------------------------------------------------------
# groundings: the only code that knows what Model A and Model B sample

def normalizer(f: Formula, kind: ModelKind, n: int) -> int:
    """Number of groundings of ``f`` over ``n`` constants: C(n, k) size-k
    subsets for Model A, P(n, v) injective substitutions of the v prefix
    variables for Model B."""
    if isinstance(kind, ModelA):
        if not 1 <= kind.width <= n:
            raise DomainError(f"width {kind.width} outside 1..{n}")
        return math.comb(n, kind.width)
    v = len(universal_parts(f)[0])
    if v > n:
        raise DomainError(f"formula has {v} variables but the domain has {n} constants")
    return math.perm(n, v)


def groundings(
    f: Formula, kind: ModelKind, constants: Sequence[str]
) -> Iterator[tuple[str, ...]]:
    """The groundings ``normalizer`` counts, in a fixed order."""
    if isinstance(kind, ModelA):
        return itertools.combinations(constants, kind.width)
    return itertools.permutations(constants, len(universal_parts(f)[0]))


def grounding_test(f: Formula, kind: ModelKind) -> Callable[[frozenset, tuple[str, ...]], bool]:
    """``test(atoms, grounding)``: whether ``f`` holds at one grounding.

    Model A evaluates ``f`` with the subset as the domain: atoms inside the
    subset are exactly the fragment's atoms, so no fragment is built.  Model
    B evaluates the matrix under the substitution.
    """
    if isinstance(kind, ModelA):
        return functools.partial(holds, f)
    vs, matrix = universal_parts(f)
    names = [v.name for v in vs]
    return lambda atoms, combo: holds(matrix, atoms, (), dict(zip(names, combo)))


class WorldColumns:
    """Boolean columns over an array of worlds (int bit patterns over the
    atom positions in ``index``): the vector counterpart of an atom set.

    ``atom(a)`` is true at the worlds that contain ``a`` and is built once; an
    atom outside ``index`` is false everywhere.  Columns are shared, so
    callers never modify them in place.
    """

    def __init__(self, worlds: np.ndarray, index: Mapping[GroundAtom, int]):
        self.worlds = worlds
        self.index = index
        self.false = np.zeros(len(worlds), dtype=bool)
        self.true = ~self.false
        self._atoms: dict[GroundAtom, np.ndarray] = {}

    def atom(self, atom: GroundAtom) -> np.ndarray:
        column = self._atoms.get(atom)
        if column is None:
            i = self.index.get(atom)
            column = self.false if i is None else (self.worlds >> i & 1).astype(bool)
            self._atoms[atom] = column
        return column


def holds_columns(
    f: Formula, columns: WorldColumns, domain: Iterable[str], env: dict[str, str] | None = None
) -> np.ndarray:
    """Vector twin of ``logic.holds``: whether ``f`` holds in each world of
    ``columns``, as one boolean column.

    Connectives become ``~ & |``, equality a constant column, and a
    quantifier reduces its body's columns over ``domain`` with ``|`` or ``&``.
    """
    dom = tuple(domain)
    env = {} if env is None else env

    def ev(g: Formula) -> np.ndarray:
        if isinstance(g, PredAtom):
            names = tuple(env[t.name] if isinstance(t, Var) else t.name for t in g.args)
            return columns.atom(GroundAtom(g.pred.name, names))
        if isinstance(g, Eq):
            l = env[g.left.name] if isinstance(g.left, Var) else g.left.name
            r = env[g.right.name] if isinstance(g.right, Var) else g.right.name
            return columns.true if l == r else columns.false
        if isinstance(g, Not):
            return ~ev(g.sub)
        if isinstance(g, And):
            return functools.reduce(operator.and_, map(ev, g.parts))
        if isinstance(g, Or):
            return functools.reduce(operator.or_, map(ev, g.parts))
        names = [v.name for v in g.vars]
        exists = isinstance(g, Exists)
        out = columns.false if exists else columns.true
        for combo in itertools.product(dom, repeat=len(names)):
            env.update(zip(names, combo))
            out = out | ev(g.body) if exists else out & ev(g.body)
        for n in names:
            env.pop(n, None)
        return out

    return ev(f)


def grounding_columns(
    f: Formula, kind: ModelKind, columns: WorldColumns
) -> Callable[[tuple[str, ...]], np.ndarray]:
    """Vector twin of ``grounding_test``: ``column(grounding)`` is true at the
    worlds of ``columns`` where ``f`` holds at that grounding."""
    if isinstance(kind, ModelA):
        return functools.partial(holds_columns, f, columns)
    vs, matrix = universal_parts(f)
    names = [v.name for v in vs]
    return lambda combo: holds_columns(matrix, columns, (), dict(zip(names, combo)))


def statistic(f: Formula, example: GlobalExample, kind: ModelKind) -> Fraction:
    """The marginal statistic of ``f`` under the chosen model: the fraction
    of its groundings in ``example`` that hold."""
    check_formula(f, example.vocabulary())
    total = normalizer(f, kind, len(example.constants))
    test, atoms = grounding_test(f, kind), example.atoms
    hits = sum(1 for g in groundings(f, kind, example.constants) if test(atoms, g))
    return Fraction(hits, total)


def prob_model_a(f: Formula, example: GlobalExample, k: int) -> Fraction:
    """Probability that the fragment over a uniform size-k subset satisfies ``f``."""
    return statistic(f, example, ModelA(k))


def prob_model_b(f: Formula, example: GlobalExample) -> Fraction:
    """Fraction of injective substitutions under which the matrix holds."""
    return statistic(f, example, MODEL_B)


def marginal_distribution_a(example: GlobalExample, k: int) -> dict[CanonicalForm, Fraction]:
    """Distribution over canonical width-k local examples induced by Model A.

    Each size-k subset contributes 1/C(n,k) of mass to the isomorphism class
    of its fragment; within a class the mass splits uniformly over the
    ``class_size`` labellings.
    """
    n = len(example.constants)
    if not 1 <= k <= n:
        raise DomainError(f"width {k} outside 1..{n}")
    dist: dict[CanonicalForm, Fraction] = {}
    share = Fraction(1, math.comb(n, k))
    for subset in itertools.combinations(example.constants, k):
        cf = canonicalize(as_local(fragment(example, subset)))
        dist[cf] = dist.get(cf, Fraction(0)) + share
    return dist


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


def format_constraints(constraints: Iterable[MarginalConstraint]) -> str:
    lines = [f"{c.theta} ; {format_formula(c.formula)}" for c in constraints]
    return "\n".join(lines) + "\n"


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
