"""Relational marginal polytopes: realizable statistic vectors over a world space.

The polytope is the convex hull of the per-world normalized statistic
vectors; a target vector is realizable by some distribution over worlds iff
it lies in the hull.  Distances come from Wolfe's nearest-point algorithm
(Wolfe 1976), which is finite and exact up to floating-point rounding: it
walks through affinely independent vertex subsets, each time projecting onto
the subset's affine hull, so membership queries are reliable well below the
1e-8 declaration threshold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError
from .logic import Formula
from .stats import ModelKind, distinct_rows
from .worlds import WorldSpace

MEMBERSHIP_TOL = 1e-8
ETA_PROBES = 16  # random directions eta_interior probes beyond the axes


@dataclass(frozen=True)
class MarginalPolytope:
    formulas: tuple[Formula, ...]
    kind: ModelKind
    domain_size: int
    vertices: tuple[tuple[Fraction, ...], ...]
    generators: tuple[int, ...]  # one witness world per distinct vertex

    @property
    def dim(self) -> int:
        return len(self.formulas)

    @functools.cached_property
    def float_vertices(self) -> np.ndarray:
        """The vertices as a float array, one row per vertex, converted once."""
        return np.array(self.vertices, dtype=float)

    def rank(self) -> int:
        """Rank of the vertex set around its centroid (dim iff full-dimensional)."""
        if not self.vertices or self.dim == 0:
            return 0
        v = self.float_vertices
        return int(np.linalg.matrix_rank(v - v.mean(axis=0), tol=1e-12))


def polytope_vertices(
    formulas: Sequence[Formula], space: WorldSpace, kind: ModelKind
) -> MarginalPolytope:
    """Candidate vertex set: distinct normalized statistic vectors over the space,
    in order of first appearance, each with the first world that has it.

    Interior duplicates are kept; membership tests do not care.
    """
    formulas = tuple(formulas)
    if len(space) == 0:
        raise DomainError("empty world space (hard rules unsatisfiable)")
    counts = space.count_matrix(formulas, kind)
    norms = [int(n) for n in space.normalizers(formulas, kind)]
    # equal count rows are equal statistic vectors: deduplicate the integers
    # and build Fractions for the distinct rows only
    first = distinct_rows(counts, [n + 1 for n in norms])[0]
    return MarginalPolytope(
        formulas,
        kind,
        len(space.constants),
        tuple(tuple(Fraction(int(c), n) for c, n in zip(counts[i], norms)) for i in first),
        tuple(int(space.worlds[i]) for i in first),
    )


def hull_distance(point: Sequence[float], polytope: MarginalPolytope) -> float:
    """Euclidean distance from ``point`` to the convex hull of the vertices.

    Wolfe's nearest-point algorithm on the vertices shifted by ``point``: a
    corral of vertices with convex weights ``lam`` holds the current point x.
    A major step adds the vertex that most decreases the linear bound; minor
    steps move x to the affine nearest point of the corral, dropping vertices
    whose weight would turn non-positive.  The loop ends when no vertex
    improves on x or |x|^2 stops decreasing.
    """
    if len(point) != polytope.dim:
        raise DomainError(
            f"point has dimension {len(point)}, polytope has {polytope.dim}"
        )
    if polytope.dim == 0:
        return 0.0
    p = np.array([float(c) for c in point], dtype=float)
    vs = polytope.float_vertices - p
    sq = (vs * vs).sum(axis=1)
    tol = 1e-12 * float(sq.max())
    corral = [int(np.argmin(sq))]
    lam = np.ones(1)
    x = vs[corral[0]]
    best = float(x @ x)
    while True:
        scores = vs @ x
        j = int(np.argmin(scores))
        if best - float(scores[j]) <= tol or j in corral:
            break
        corral.append(j)
        lam = np.append(lam, 0.0)
        while True:
            k = len(corral)
            s = vs[corral]
            system = np.ones((k + 1, k + 1))
            system[:k, :k] = s @ s.T
            system[k, k] = 0.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            mu = np.linalg.lstsq(system, rhs, rcond=None)[0][:k]
            if (mu > 0).all():
                lam = mu
                break
            # step toward mu until the first weight reaches zero; a weight
            # that is zero already (the vertex just added) gives a step of 0
            blocking = np.flatnonzero(mu <= 0)
            steps = lam[blocking] / np.maximum(lam[blocking] - mu[blocking], 1e-300)
            first = int(np.argmin(steps))
            theta = float(steps[first])
            lam = lam + theta * (mu - lam)
            lam[blocking[first]] = 0.0
            keep = lam > 0
            corral = [c for c, kept in zip(corral, keep) if kept]
            lam = lam[keep]
        y = lam @ vs[corral]
        norm = float(y @ y)
        if norm >= best:
            break
        x, best = y, norm
    return float(np.linalg.norm(x))


@dataclass(frozen=True)
class EtaVerdict:
    """Probe-based interiority verdict: rejection is sound, acceptance only
    says that no probe left the hull."""

    inside: bool
    eta: float
    rejected_direction: tuple[float, ...] | None
    probes_checked: int


def eta_interior(
    point: Sequence[float],
    eta: float,
    polytope: MarginalPolytope,
) -> EtaVerdict:
    """Check that the eta-ball around ``point`` sits inside the hull, by probing
    the 2*dim coordinate directions plus ``ETA_PROBES`` random unit directions
    drawn from a generator seeded with 0, so a verdict is reproducible."""
    if eta < 0:
        raise DomainError("eta must be non-negative")
    d = polytope.dim
    if d == 0:
        return EtaVerdict(True, eta, None, 0)
    p = np.array([float(c) for c in point], dtype=float)
    directions = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        directions.extend((e, -e))
    rng = np.random.default_rng(0)
    for _ in range(ETA_PROBES):
        v = rng.standard_normal(d)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            directions.append(v / norm)
    checked = 0
    for direction in directions:
        checked += 1
        if hull_distance(p + eta * direction, polytope) >= MEMBERSHIP_TOL:
            return EtaVerdict(False, eta, tuple(float(c) for c in direction), checked)
    return EtaVerdict(True, eta, None, checked)


def interiority_margin(m: int, k: int, l: int, eta: float) -> float:
    """Margin at size m that keeps an l-coordinate target eta-interior at every
    larger size: each coordinate moves at most the width-k shift bound under
    domain growth, so the vector moves at most sqrt(l) times that."""
    if not 1 <= k <= m:
        raise DomainError(f"width {k} outside 1..{m}")
    if l < 1:
        raise DomainError("level must be at least 1")
    if eta < 0:
        raise DomainError("eta must be non-negative")
    return eta + math.sqrt(l) * float(1 - Fraction(m - k + 1, m) ** (k - 1))


@dataclass(frozen=True)
class RealizabilityVerdict:
    realizable: bool
    distance: float
    polytope: MarginalPolytope


def realizability_check(
    theta: Sequence, formulas: Sequence[Formula], space: WorldSpace, kind: ModelKind
) -> RealizabilityVerdict:
    """Whether the target vector is a mixture of world statistics, with the
    hull distance as diagnosis."""
    polytope = polytope_vertices(formulas, space, kind)
    distance = hull_distance([float(t) for t in theta], polytope)
    return RealizabilityVerdict(distance < MEMBERSHIP_TOL, distance, polytope)
