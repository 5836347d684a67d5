"""Relational marginal polytopes: realizable statistic vectors over a world space.

The polytope is the convex hull of the per-world normalized statistic
vectors; a target vector is realizable by some distribution over worlds iff
it lies in the hull.  A polytope holds the distinct integer count rows; the
statistic vectors are the rows divided by the normalizers.

Each polytope has an exact H-representation, computed once from its count
rows: the affine hull as integer equalities and the facets as primitive
integer pairs (a, b) with a.x <= b.  ``rank`` reads the exact affine rank
off it.  One fraction-free elimination, ``_reduce``, does the integer
linear algebra: on the differences from the first row it gives the affine
hull, and on the projections of rank + 1 independent rows the rays of the
simplex they bound.  From that simplex the facets come from the
double-description method in Python integers, whose work grows with the
rays it holds, not with the number of vertex subsets.

``hull_distance`` answers most queries from these constraints by two
projection certificates.  Project the point p onto the affine hull, giving
p'; if every facet keeps p' at least ``INSIDE_SLACK`` inside, p' is the
nearest point (for a full-dimensional polytope the distance is exactly 0.0).
Otherwise move p' onto the facet it violates most, within the affine hull;
if every other facet keeps that point q ``INSIDE_SLACK`` inside, q is the
nearest point.  Either point is the nearest point of a set (the affine hull,
or its intersection with one facet's half-space) that contains the
polytope, so when it lies in the polytope it is the polytope's nearest
point.  Both certificates cost one matrix product with p.  The constraints
are one stacked float array: orthonormal equality rows, then unit facet
normals that lie in the affine hull's direction space.  So ``rows @ p -
offsets`` gives p's offset from the affine hull and every facet gap of p'
at once, and moving p' a step along facet j's normal shifts each gap by
step times the two normals' dot product.

Points near a lower-dimensional face, and every point of a polytope past
``FACET_WORK_CAP``, which has no facets, go to Wolfe's nearest-point
algorithm (Wolfe 1976).  It is finite and exact up to floating-point
rounding: it walks through affinely independent vertex subsets, each time
projecting onto the subset's affine hull, so membership queries are
reliable well below the 1e-8 declaration threshold.  It keeps the Gram
matrix of its current subset and grows it by one row and column per added
vertex, so each projection is one small linear solve.

``eta_interior`` applies the first certificate to all its probes at once:
on a full-dimensional polytope, a probe that every facet keeps
``INSIDE_SLACK`` inside is inside.  ``hull_distance`` decides every other
probe, so the verdicts are those of probing with ``hull_distance`` alone.

``hull_distance`` builds a polytope's facets at its first query, so that
every query of a polytope asked many questions reads them.  For one query
the H-representation costs more than the one Wolfe run it would save, so
``realizability_check``, which asks one question of a fresh polytope, calls
Wolfe's loop directly and builds no facets.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .expansion import expansion_diff_bound
from .logic import Formula
from .stats import ModelKind
from .worlds import WorldSpace

MEMBERSHIP_TOL = 1e-8
ETA_PROBES = 16  # random directions eta_interior probes beyond the axes
# steps the double description may take (see ``_facets``).  Past this a
# polytope stores no facets, and every query goes to Wolfe's loop.  At 2^19
# a refused run stops in about 0.1 s on small integers, and in 0.05-0.30 s on
# 400 rational sphere points in dimensions 3-6 with 1,100-3,000-digit scaled
# coordinates (2-core host, Python 3.11).
FACET_WORK_CAP = 1 << 19
# a projection certificate of hull_distance holds when every facet it
# checks keeps its point INSIDE_SLACK away, far more than float rounding
INSIDE_SLACK = 1e-9

Constraint = tuple[tuple[int, ...], int]


@dataclass(frozen=True)
class HRepresentation:
    """Exact constraints of the convex hull of a vertex set: every point x of
    the hull has a.x = b for each equality and a.x <= b for each facet.  Each
    (a, b) is a primitive integer vector and offset in statistic
    coordinates.  ``rank`` is the affine rank of the vertices.  ``facets`` are
    sorted, and None when the double description would take more than
    ``FACET_WORK_CAP`` steps."""

    rank: int
    equalities: tuple[Constraint, ...]
    facets: tuple[Constraint, ...] | None


class _UnitConstraints(NamedTuple):
    """An H-representation as one float array, so that one product
    ``rows @ x - offsets`` evaluates every constraint at x.  The first
    ``equalities`` rows are orthonormal and span the equality normals: their
    values are the offset of x from the affine hull.  The other rows are the
    facet normals, projected into the hull's direction space and scaled to
    unit length: their values are the facet gaps of x's projection onto the
    affine hull, which is inside a facet where its gap is at most 0."""

    rows: np.ndarray
    offsets: np.ndarray
    equalities: int


@dataclass(frozen=True, eq=False)
class MarginalPolytope:
    """Distinct count rows, the normalizers that divide their columns into
    statistics, and one witness world per row.  Equality is identity."""

    counts: np.ndarray  # int64 from count_matrix, or Python ints (dtype object)
    norms: tuple[int, ...]
    generators: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.norms)

    @functools.cached_property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        """The statistic vectors as exact rationals, built when read."""
        return tuple(
            tuple(Fraction(c, n) for c, n in zip(row, self.norms)) for row in self.counts.tolist()
        )

    @functools.cached_property
    def float_vertices(self) -> np.ndarray:
        """The statistic vectors as correctly rounded floats: int64 counts
        and norms are exact floats, and Python int division rounds correctly."""
        return np.asarray(self.counts / np.asarray(self.norms, dtype=self.counts.dtype), dtype=float)

    @functools.cached_property
    def _affine_hull(self) -> tuple[list[list[int]], list[int], tuple[Constraint, ...], list[int]]:
        """The count rows as Python integers, the pivot coordinates of their
        affine hull, its equalities and the indices of rank + 1 affinely
        independent rows."""
        rows = self.counts.tolist()
        return (rows, *_pivots_and_equalities(rows, self.norms))

    @functools.cached_property
    def h_representation(self) -> HRepresentation:
        """The exact H-representation, computed once."""
        rows, pivots, equalities, start = self._affine_hull
        return HRepresentation(len(pivots), equalities, _facets(rows, self.norms, pivots, start))

    @functools.cached_property
    def _unit_constraints(self) -> _UnitConstraints | None:
        """The H-representation as float arrays (see ``_UnitConstraints``);
        None without facets."""
        h = self.h_representation
        if h.facets is None:
            return None
        constraints = h.equalities + h.facets
        # each row divided by a power of two that brings its largest entry
        # below 2^64, so that long integers neither overflow a float nor
        # square past its range
        divisors = [1 << max(0, max(map(abs, a)).bit_length() - 64) for a, _ in constraints]
        rows = np.array([[x / s for x in a] for (a, _), s in zip(constraints, divisors)])
        offsets = np.array([b / s for (_, b), s in zip(constraints, divisors)])
        norms = np.linalg.norm(rows, axis=1)
        rows, offsets = rows / norms[:, None], offsets / norms
        k = len(h.equalities)
        if k:
            # the equalities E x = e as Q^T x = R^-T e, with E^T = Q R
            q, r = np.linalg.qr(rows[:k].T)
            rows[:k], offsets[:k] = q.T, np.linalg.solve(r.T, offsets[:k])
            # on the affine hull, a.x = n.x + (Q^T a).(Q^T x) for the part n
            # of a orthogonal to the equality normals
            along = rows[k:] @ q
            rows[k:] -= along @ q.T
            offsets[k:] -= along @ offsets[:k]
        lengths = np.linalg.norm(rows[k:], axis=1)
        rows[k:] /= lengths[:, None]
        offsets[k:] /= lengths
        return _UnitConstraints(rows, offsets, k)

    def rank(self) -> int:
        """Exact affine rank of the vertex set (dim iff full-dimensional)."""
        return len(self._affine_hull[1])


def _primitive(values: list[int]) -> list[int]:
    """``values`` divided by their gcd."""
    g = math.gcd(*values)
    return [x // g for x in values] if g > 1 else values


def _reduce(
    rows: Iterable[list[int]], stop: int | None = None
) -> tuple[list[tuple[int, list[int]]], list[int]]:
    """Fraction-free Gauss-Jordan elimination over integer rows, in order:
    the reduced basis of their span as (pivot, vector) pairs sorted by
    pivot, and the indices of the rows that added a vector.  The scan ends
    at the first row it meets with ``stop`` vectors in the basis, so a lazy
    ``rows`` is read at most one row further.

    Each row is reduced to zero at every pivot so far; if anything is left,
    it becomes primitive and positive at its first nonzero coordinate, its
    pivot, and every earlier vector is reduced to zero there.  So each
    vector is primitive, zero before its pivot and at every other pivot, and
    positive at its own: the basis is the span's unique reduced echelon
    form, whatever the order of the rows.
    """
    basis: list[tuple[int, list[int]]] = []
    added = []
    for i, x in enumerate(rows):
        if len(basis) == stop:
            break
        for pivot, b in basis:
            if x[pivot]:
                x = [b[pivot] * xi - x[pivot] * bi for xi, bi in zip(x, b)]
        lead = next((j for j, xi in enumerate(x) if xi), None)
        if lead is None:
            continue
        x = _primitive([-xi for xi in x] if x[lead] < 0 else x)
        basis = [
            (p, _primitive([x[lead] * bi - b[lead] * xi for bi, xi in zip(b, x)]) if b[lead] else b)
            for p, b in basis
        ]
        basis.append((lead, x))
        added.append(i)
    return sorted(basis), added


def _pivots_and_equalities(
    rows: list[list[int]], scales: Sequence[int]
) -> tuple[list[int], tuple[Constraint, ...], list[int]]:
    """Pivot coordinates and equalities of the affine hull of integer rows,
    and the indices of the rows that span it: the first row and each row
    that adds a basis vector.

    ``_reduce``, the elimination that also gives the facet search its
    starting simplex (``_simplex_rays``), runs over the differences from
    the first row, stopped at rank d, and gives the reduced basis of the
    difference space.  The projection onto
    the pivot coordinates is then injective on the affine hull, and each
    other coordinate f gives one equality, the null vector that is 1 at f
    and 0 at the other non-pivots, scaled to integers and mapped back to
    statistic coordinates, coordinate j over ``scales[j]``.
    """
    d = len(scales)
    origin = rows[0] if rows else [0] * d
    basis, added = _reduce(([a - b for a, b in zip(row, origin)] for row in rows[1:]), d)
    pivots = [p for p, _ in basis]
    equalities = []
    for f in range(d):
        if f in pivots:
            continue
        scale = math.lcm(*(b[p] for p, b in basis if b[f]))
        a = [0] * d
        a[f] = scale
        for p, b in basis:
            a[p] = -b[f] * scale // b[p]
        offset = sum(ai * oi for ai, oi in zip(a, origin))
        *a, offset = _primitive([ai * s for ai, s in zip(a, scales)] + [offset])
        equalities.append((tuple(a), offset))
    return pivots, tuple(equalities), [0] + [i + 1 for i in added]


def _facets(
    rows: Sequence[Sequence[int]], scales: Sequence[int], pivots: list[int], start: list[int]
) -> tuple[Constraint, ...] | None:
    """Facets of the integer rows, by the double-description method (Motzkin
    et al. 1953; Fukuda & Prodon 1996) on their projection y onto the pivot
    coordinates, where they span all r dimensions.

    The facets are the extreme rays of the cone of (a, b) with a.y <= b at
    every row.  The r + 1 affinely independent ``start`` rows bound a
    simplex, whose rays come from one elimination.  Each row in turn keeps
    the rays that satisfy it and adds the ray s_p q - s_q p, tight at the
    row, for each adjacent pair of a ray p that violates it by s_p > 0 and a
    ray q that satisfies it strictly, s_q < 0.  A ray carries its zero set,
    the rows it is tight at, as a bit mask; p and q are adjacent when their
    common zero set has at least r - 1 rows and lies in no other ray's zero
    set.  The steps are the work done: r + 1 products for each ray's slack
    at each row, each charged the 64-bit limbs of the row coordinate it
    multiplies, one step for each pair's count test, and one step per ray
    for each pair that passes it and is checked against every ray's zero
    set.  Past ``FACET_WORK_CAP`` steps no facet is computed.  A row is read
    and projected when the loop reaches it, so a refused run reads no row
    past the one where it stopped.
    """
    r, n = len(pivots), len(rows)
    if r == 0:
        return ()

    def project(i: int) -> list[int]:
        # a row y gives the constraint (a, b).(y, -1) <= 0
        row = rows[i]
        return [row[p] for p in pivots] + [-1]

    rays = _simplex_rays([project(i) for i in start])
    masks = [0] * len(rays)
    work = 0
    # the start rows first, which only mark the zero sets; each row is
    # projected when the loop reaches it
    first = set(start)
    for i in itertools.chain(start, itertools.filterfalse(first.__contains__, range(n))):
        y = project(i)
        slacks = [sum(a * c for a, c in zip(ray, y)) for ray in rays]
        out = [k for k, s in enumerate(slacks) if s > 0]
        inside = [k for k, s in enumerate(slacks) if s < 0]
        # one product per coordinate of the row in each slack, as long as
        # that coordinate, and one count test per pair
        limbs = sum(max(1, -(-c.bit_length() // 64)) for c in y)
        work += len(rays) * limbs + len(out) * len(inside)
        if work > FACET_WORK_CAP:
            return None
        new_rays, new_masks = [], []
        for p in out:
            for q in inside:
                common = masks[p] & masks[q]
                if common.bit_count() < r - 1:
                    continue
                # a pair that passes the count test scans every ray
                work += len(rays)
                if work > FACET_WORK_CAP:
                    return None
                if sum(m & common == common for m in masks) == 2:
                    new_rays.append(_primitive([
                        slacks[p] * c - slacks[q] * d for c, d in zip(rays[q], rays[p])
                    ]))
                    new_masks.append(common | 1 << i)
        kept = [k for k, s in enumerate(slacks) if s <= 0]
        rays = [rays[k] for k in kept] + new_rays
        masks = [masks[k] | 1 << i if slacks[k] == 0 else masks[k] for k in kept] + new_masks
    facets = []
    for *a, b in rays:
        normal = [0] * len(scales)
        for p, c in zip(pivots, a):
            normal[p] = c * scales[p]
        *normal, b = _primitive(normal + [b])
        facets.append((tuple(normal), b))
    return tuple(sorted(facets))


def _simplex_rays(ys: list[list[int]]) -> list[list[int]]:
    """The extreme rays of the cone of x with ys[j].x <= 0 for the r + 1
    independent rows ys: ray k solves ys[j].x = -[j == k], so it is tight at
    every row but row k.  ``_reduce``, the elimination that also gives the
    affine hull, leaves the rows [ys[j] | -e_j] as [D | R] with D diagonal,
    so ray k is R[p][k] / D[p][p] at coordinate p, scaled by the pivots' lcm
    to integers."""
    m = len(ys)
    basis, _ = _reduce([y + [-int(j == k) for k in range(m)] for j, y in enumerate(ys)])
    scale = math.lcm(*(b[p] for p, b in basis))
    return [_primitive([b[m + k] * (scale // b[p]) for p, b in basis]) for k in range(m)]


def polytope_vertices(
    formulas: Sequence[Formula], space: WorldSpace, kind: ModelKind
) -> MarginalPolytope:
    """Candidate vertex set: the distinct count rows over the space, in order
    of first appearance, each with the first world that has it, as the space
    keeps them (``WorldSpace.distinct_rows``), so a fit over the same
    formulas reads the same rows.

    Rows inside the hull are kept; membership tests do not care.
    """
    formulas = tuple(formulas)
    if len(space) == 0:
        raise DomainError("empty world space (hard rules unsatisfiable)")
    distinct = space.distinct_rows(formulas, kind)
    norms = tuple(int(n) for n in space.normalizers(formulas, kind))
    return MarginalPolytope(distinct.rows, norms, tuple(space.worlds[distinct.first].tolist()))


def hull_distance(point: Sequence[float], polytope: MarginalPolytope) -> float:
    """Euclidean distance from ``point`` to the convex hull of the vertices.

    The projection certificates of the module docstring answer the query
    when the nearest point is the projection onto the affine hull (exactly
    0.0 inside a full-dimensional polytope) or onto a single facet within
    it.  Both come from one product of the stacked constraint rows with the
    point.  They read the facets, which the polytope's first query builds.
    Any other point, and every point of a polytope without facets, goes to
    Wolfe's nearest-point loop, which grows its corral's Gram matrix by one
    row and column per vertex.
    """
    p, finite = _as_point(point, polytope)
    if not finite:
        return math.inf
    distance = _certified_distance(p, polytope) if polytope.dim else None
    return _wolfe_distance(p, polytope) if distance is None else distance


def _as_point(point: Sequence[float], polytope: MarginalPolytope) -> tuple[np.ndarray, bool]:
    """``point`` as a float array, after checking its dimension and NaNs,
    and whether every coordinate is finite: an infinite point lies at
    infinite distance, and a product with it would make 0 * inf = NaN."""
    if len(point) != polytope.dim:
        raise DomainError(
            f"point has dimension {len(point)}, polytope has {polytope.dim}"
        )
    coords = [float(c) for c in point]
    # on the Python floats: np.isnan(p).any() adds 5% to a geometry job
    finite = all(map(math.isfinite, coords))
    if not finite and any(map(math.isnan, coords)):
        raise DomainError("point has a NaN coordinate")
    return np.array(coords, dtype=float), finite


def _certified_distance(p: np.ndarray, polytope: MarginalPolytope) -> float | None:
    """The distance from ``p`` to the hull when a projection certificate
    gives it, else None."""
    c = polytope._unit_constraints
    if c is None:
        return None
    k = c.equalities
    values = c.rows @ p - c.offsets
    # p lies at distance off from its projection p' onto the affine hull,
    # and the facet normals are orthogonal to the step from p to p', so the
    # gaps at p are the gaps at p'
    off = math.sqrt(float(values[:k] @ values[:k])) if k else 0.0
    gaps = values[k:]
    # -inf for a single point, which has no facets
    step = float(gaps.max(initial=-math.inf))
    if step <= -INSIDE_SLACK:
        return off
    if step <= 0:
        return None
    # q: p' moved by step onto facet j along its unit normal n_j, which
    # shifts each facet's gap by -step * n.n_j
    j = int(gaps.argmax())
    normals = c.rows[k:]
    shifted = gaps - step * (normals @ normals[j])
    shifted[j] = -math.inf
    return math.hypot(off, step) if shifted.max() <= -INSIDE_SLACK else None


def _wolfe_distance(p: np.ndarray, polytope: MarginalPolytope) -> float:
    """``hull_distance`` by Wolfe's nearest-point algorithm on the vertices
    shifted by ``p``: a corral of vertices with convex weights ``lam`` holds
    the current point x.  A major step adds the vertex that most decreases
    the linear bound; minor steps move x to the affine nearest point of the
    corral, dropping vertices whose weight would turn non-positive.  The loop
    ends when no vertex improves on x or |x|^2 stops decreasing.

    The affine nearest point solves the bordered system [[0, 1^T], [1, G]]
    of the corral's Gram matrix G.  The loop keeps that system: a major step
    grows it by the new vertex's row and column, a minor step drops the rows
    of the vertices it drops.  ``np.linalg.solve`` solves it, and ``lstsq``
    only when the matrix is singular.  The distance is the norm of the point
    x itself, not lam^T G lam, which would cancel to about 1e-8 at interior
    points.
    """
    if polytope.dim == 0:
        return 0.0
    vs = polytope.float_vertices - p
    sq = (vs * vs).sum(axis=1)
    tol = 1e-12 * float(sq.max())
    corral = [int(sq.argmin())]
    lam = np.ones(1)
    x = vs[corral[0]]
    best = float(x @ x)
    system = np.array([[0.0, 1.0], [1.0, best]])
    while True:
        scores = vs @ x
        j = int(scores.argmin())
        if best - float(scores[j]) <= tol or j in corral:
            break
        k = len(corral)
        grown = np.empty((k + 2, k + 2))
        grown[:-1, :-1] = system
        grown[-1, 1:-1] = grown[1:-1, -1] = vs[corral] @ vs[j]
        grown[-1, 0] = grown[0, -1] = 1.0
        grown[-1, -1] = sq[j]
        system = grown
        corral.append(j)
        lam = np.append(lam, 0.0)
        while True:
            rhs = np.zeros(len(system))
            rhs[0] = 1.0
            try:
                mu = np.linalg.solve(system, rhs)[1:]
            except np.linalg.LinAlgError:
                mu = np.linalg.lstsq(system, rhs, rcond=None)[0][1:]
            if (mu > 0).all():
                lam = mu
                break
            # step toward mu until the first weight reaches zero; a weight
            # that is zero already (the vertex just added) gives a step of 0
            blocking = np.flatnonzero(mu <= 0)
            steps = lam[blocking] / np.maximum(lam[blocking] - mu[blocking], 1e-300)
            first = int(steps.argmin())
            theta = float(steps[first])
            lam = lam + theta * (mu - lam)
            lam[blocking[first]] = 0.0
            keep = lam > 0
            corral = [c for c, kept in zip(corral, keep) if kept]
            lam = lam[keep]
            rows = np.append(True, keep)
            system = system[np.ix_(rows, rows)]
        y = lam @ vs[corral]
        norm = float(y @ y)
        if norm >= best:
            break
        x, best = y, norm
    return math.sqrt(best)


@dataclass(frozen=True)
class EtaVerdict:
    """Probe-based interiority verdict: rejection is sound, acceptance only
    says that no probe left the hull.  Probes are checked in order until one
    leaves the hull; the facets decide only the probes they keep inside, and
    ``hull_distance`` decides the rest, so the verdict is the one that
    probing with ``hull_distance`` alone gives."""

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
    drawn from a generator seeded with 0, so a verdict is reproducible.  The
    first probe of an infinite eta or around an infinite point leaves the
    hull."""
    if not eta >= 0:
        raise DomainError("eta must be non-negative")
    p, finite = _as_point(point, polytope)
    d = polytope.dim
    if d == 0:
        return EtaVerdict(True, eta, None, 0)
    directions = _probe_directions(d)
    if math.isinf(eta) or not finite:
        return EtaVerdict(False, eta, tuple(float(x) for x in directions[0]), 1)
    probes = p + eta * directions
    # the first projection certificate of a full-dimensional polytope, whose
    # distance is 0.0, for every probe at once
    c = polytope._unit_constraints
    inside = np.zeros(len(probes), dtype=bool)
    if c is not None and not c.equalities:
        inside = (probes @ c.rows.T - c.offsets <= -INSIDE_SLACK).all(axis=1)
    for i in np.flatnonzero(~inside):
        if hull_distance(probes[i], polytope) >= MEMBERSHIP_TOL:
            return EtaVerdict(False, eta, tuple(float(x) for x in directions[i]), int(i) + 1)
    return EtaVerdict(True, eta, None, len(directions))


@functools.lru_cache(maxsize=None)
def _probe_directions(d: int) -> np.ndarray:
    """The unit directions ``eta_interior`` probes in dimension d, in order:
    +e_i and -e_i for each axis, then the random ones."""
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
    directions = np.array(directions)
    directions.flags.writeable = False
    return directions


def interiority_margin(m: int, k: int, l: int, eta: float) -> float:
    """Margin at size m that keeps an l-coordinate target eta-interior at every
    larger size: each coordinate moves at most the width-k shift bound under
    domain growth, so the vector moves at most sqrt(l) times that."""
    shift = expansion_diff_bound(m, k)
    if l < 1:
        raise DomainError(f"target coordinate count {l} must be at least 1")
    if not eta >= 0:
        raise DomainError("eta must be non-negative")
    return eta + math.sqrt(l) * float(shift)


@dataclass(frozen=True)
class RealizabilityVerdict:
    realizable: bool
    distance: float
    polytope: MarginalPolytope


def realizability_check(
    theta: Sequence, formulas: Sequence[Formula], space: WorldSpace, kind: ModelKind
) -> RealizabilityVerdict:
    """Whether the target vector is a mixture of world statistics, with the
    hull distance as diagnosis.  The polytope is fresh and gets one query,
    so the distance is Wolfe's loop (inf for an infinite ``theta``), not
    ``hull_distance``, which would build the facets: over the 88 calls of
    the seed-1 perfbench ``fit`` list, the affine hulls and facets took
    43-52 ms and the Wolfe runs 10-12 ms (ten runs on a 2-core host,
    Python 3.11)."""
    polytope = polytope_vertices(formulas, space, kind)
    p, finite = _as_point(theta, polytope)
    distance = _wolfe_distance(p, polytope) if finite else math.inf
    return RealizabilityVerdict(distance < MEMBERSHIP_TOL, distance, polytope)
