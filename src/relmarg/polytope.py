"""Relational marginal polytopes: realizable statistic vectors over a world space.

The polytope is the convex hull of the per-world normalized statistic
vectors; a target vector is realizable by some distribution over worlds iff
it lies in the hull.

Each polytope has an exact H-representation, computed once from its
rational vertices: the affine hull as integer equalities and the facets as
primitive integer pairs (a, b) with a.x <= b.  ``rank`` reads the exact
affine rank off it.

``hull_distance`` answers most queries from these constraints by two
projection certificates.  Project the point p onto the affine hull, giving
p'; if every facet keeps p' at least ``INSIDE_SLACK`` inside, p' is the
nearest point (for a full-dimensional polytope the distance is exactly 0.0).
Otherwise move p' onto the facet it violates most, within the affine hull;
if every other facet keeps that point q ``INSIDE_SLACK`` inside, q is the
nearest point.  Either point is the nearest point of a set (the affine hull,
or its intersection with one facet's half-space) that contains the
polytope, so when it lies in the polytope it is the polytope's nearest
point.  Points near a lower-dimensional face, and every point of a polytope
past ``FACET_WORK_CAP``, which has no facets, go to Wolfe's nearest-point
algorithm (Wolfe 1976).  It is finite and exact up to floating-point
rounding: it walks through affinely independent vertex subsets, each time
projecting onto the subset's affine hull, so membership queries are
reliable well below the 1e-8 declaration threshold.

``eta_interior`` uses the same constraints to decide its probe points: a
probe whose distance to the affine hull and to one facet within it bound
its distance to the hull clearly above the membership threshold is
outside, a probe that every facet of a full-dimensional polytope keeps at
1e-9 is inside, and only the rest go to ``hull_distance``.
The verdicts are those of probing with ``hull_distance`` alone.

A polytope builds its facets at its second hull query, not its first: for
one query the facet search costs more than the one Wolfe run it would
save.  ``realizability_check`` makes one query on a fresh polytope, so it
gets Wolfe's distance and builds no facets; when it used the certificates,
the perfbench ``fit`` workload lost about 8% of its throughput and its
90th-percentile job time rose 19%.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .logic import Formula
from .stats import ModelKind, distinct_rows, index_blocks
from .worlds import WorldSpace

MEMBERSHIP_TOL = 1e-8
ETA_PROBES = 16  # random directions eta_interior probes beyond the axes
# integer products the facet search may make, about r * (n + r**3) for each
# r-subset of n vertices: past this a polytope stores no facets, and every
# eta probe goes to hull_distance
FACET_WORK_CAP = 1 << 23
# cells in one chunk of the facet search
FACET_CHUNK_CELLS = 1 << 14
# a probe is decided outside when the constraints put it at least
# MEMBERSHIP_TOL * (1 + OUTSIDE_MARGIN) from the hull, so that Wolfe's float
# distance, which is never below the true one by more than rounding, would
# also reach MEMBERSHIP_TOL; and inside when every facet keeps it
# INSIDE_SLACK away.  A projection certificate of hull_distance holds when
# every facet it checks keeps its point INSIDE_SLACK away, far more than
# float rounding
OUTSIDE_MARGIN = 1e-4
INSIDE_SLACK = 1e-9

Constraint = tuple[tuple[int, ...], int]


@dataclass(frozen=True)
class HRepresentation:
    """Exact constraints of the convex hull of a vertex set: every point x of
    the hull has a.x = b for each equality and a.x <= b for each facet.  Each
    (a, b) is a primitive integer vector and offset in the vertices' own
    coordinates.  ``rank`` is the affine rank of the vertices.  ``facets`` is
    None when the search would make more than ``FACET_WORK_CAP`` products."""

    rank: int
    equalities: tuple[Constraint, ...]
    facets: tuple[Constraint, ...] | None


class _UnitConstraints(NamedTuple):
    """An H-representation as float arrays.  ``basis`` holds orthonormal
    rows that span the equality normals, and ``basis @ x == basis_offsets``
    on the affine hull.  ``normals`` and ``bounds`` are the facets as
    constraints ``normals @ x <= bounds`` on the affine hull, with each facet
    normal projected into the hull's direction space and scaled to unit
    length."""

    basis: np.ndarray
    basis_offsets: np.ndarray
    normals: np.ndarray
    bounds: np.ndarray


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

    @functools.cached_property
    def _affine_hull(self) -> tuple[list[list[int]], list[int], list[int], tuple[Constraint, ...]]:
        """Integer vertex rows, their per-coordinate scales, the pivot
        coordinates of the affine hull and its equalities."""
        rows, scales = _integer_rows(self.vertices, self.dim)
        return (rows, scales, *_pivots_and_equalities(rows, scales))

    @functools.cached_property
    def h_representation(self) -> HRepresentation:
        """The exact H-representation, computed once."""
        rows, scales, pivots, equalities = self._affine_hull
        return HRepresentation(len(pivots), equalities, _facets(rows, scales, pivots))

    @functools.cached_property
    def _unit_constraints(self) -> _UnitConstraints | None:
        """The H-representation as float arrays (see ``_UnitConstraints``);
        None without facets."""
        h = self.h_representation
        if h.facets is None:
            return None
        constraints = h.equalities + h.facets
        rows = np.array([a for a, _ in constraints], dtype=float)
        offsets = np.array([b for _, b in constraints], dtype=float)
        norms = np.linalg.norm(rows, axis=1)
        rows, offsets = rows / norms[:, None], offsets / norms
        k = len(h.equalities)
        # the equalities E x = e as Q^T x = R^-T e, with E^T = Q R
        q, r = np.linalg.qr(rows[:k].T)
        basis = q.T
        basis_offsets = np.linalg.solve(r.T, offsets[:k]) if k else np.zeros(0)
        # on the affine hull, a.x = n.x + (Q^T a).(Q^T x) for the part n of a
        # orthogonal to the equality normals
        facets = rows[k:]
        along = facets @ basis.T
        normals = facets - along @ basis
        bounds = offsets[k:] - along @ basis_offsets
        lengths = np.linalg.norm(normals, axis=1)
        return _UnitConstraints(basis, basis_offsets, normals / lengths[:, None], bounds / lengths)

    def _facets_for_query(self) -> bool:
        """Whether ``hull_distance`` reads the facets: once they are known,
        and from the polytope's second query on.  The first query leaves a
        mark in the instance dict, where ``cached_property`` keeps its
        values too."""
        if "h_representation" in self.__dict__ or "_queried" in self.__dict__:
            return True
        self.__dict__["_queried"] = True
        return False

    def rank(self) -> int:
        """Exact affine rank of the vertex set (dim iff full-dimensional)."""
        return len(self._affine_hull[2])


def _integer_rows(vertices, d: int) -> tuple[list[list[int]], list[int]]:
    """The rational vertices as integer rows: coordinate j is multiplied by
    the lcm of its denominators, which is returned as its scale."""
    scales = [math.lcm(*(v[j].denominator for v in vertices)) for j in range(d)]
    rows = [[c.numerator * (s // c.denominator) for c, s in zip(v, scales)] for v in vertices]
    return rows, scales


def _primitive(values: list[int]) -> list[int]:
    """``values`` divided by their gcd."""
    g = math.gcd(*values)
    return [x // g for x in values] if g > 1 else values


def _pivots_and_equalities(
    rows: list[list[int]], scales: list[int]
) -> tuple[list[int], tuple[Constraint, ...]]:
    """Pivot coordinates and equalities of the affine hull of integer rows.

    Fraction-free elimination on the differences from the first row keeps a
    basis of the difference space in reduced form: each basis row is zero at
    every other row's pivot and positive at its own.  The projection onto
    the pivot coordinates is then injective on the affine hull, and each
    other coordinate f gives one equality, the null vector that is 1 at f
    and 0 at the other non-pivots, scaled to integers and mapped back to the
    unscaled coordinates.
    """
    d = len(scales)
    basis: list[tuple[int, list[int]]] = []
    origin = rows[0] if rows else [0] * d
    for row in rows[1:]:
        if len(basis) == d:
            break
        x = [a - b for a, b in zip(row, origin)]
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
    basis.sort()
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
    return pivots, tuple(equalities)


def _facets(
    rows: list[list[int]], scales: list[int], pivots: list[int]
) -> tuple[Constraint, ...] | None:
    """Facets of the integer rows, from their projection onto the pivot
    coordinates, where they span all r dimensions.

    Every r-subset of rows spans a hyperplane whose normal is the vector of
    signed (r-1)-minors of the subset's r-1 edge vectors (a min and a max
    for r = 1, a cross product for r = 3).  A hyperplane with every row on
    one side is a facet; repeats, from subsets of one facet, are dropped by
    their primitive integer form.  Subsets are tested in chunks of at most
    ``FACET_CHUNK_CELLS`` cells, and past ``FACET_WORK_CAP`` products in all
    no facet is computed.
    """
    r, n = len(pivots), len(rows)
    if r == 0:
        return ()
    # a subset's cells: its row sign tests and its r cofactor matrices; each
    # cell takes at most r products
    cells = n + r**3
    if math.comb(n, r) * r * cells > FACET_WORK_CAP:
        return None
    projected = [[row[p] for p in pivots] for row in rows]
    # the elimination multiplies two (r-2)-minors of edges with entries up to
    # e, and the sign tests sum r coordinates times (r-1)-minors; by
    # Hadamard's bound a k-minor is at most (k^k e^2k)^(1/2).  Past int64,
    # compute in Python integers
    big = max(abs(c) for row in projected for c in row)
    e = 2 * big
    low, high = max(r - 2, 0), r - 1
    fits = low**low * e ** (2 * low) < 1 << 60 and (
        (r * big) ** 2 * high**high * e ** (2 * high) < 1 << 124
    )
    ys = np.array(projected, dtype=np.int64 if fits else object)
    signs = np.array([(-1) ** j for j in range(r)])
    others = [[k for k in range(r) if k != j] for j in range(r)]
    kept_normals, kept_offsets = [], []
    subsets = itertools.combinations(range(n), r)
    for block in index_blocks(subsets, r, FACET_CHUNK_CELLS // cells):
        points = ys[block]
        edges = points[:, 1:] - points[:, :1]
        # minors[:, j]: the edges without coordinate j
        minors = edges[:, :, others].transpose(0, 2, 1, 3)
        normals = signs * _det(minors.reshape(len(block) * r, r - 1, r - 1)).reshape(-1, r)
        offsets = (normals * points[:, 0]).sum(axis=1)
        sides = ys @ normals.T - offsets
        below, above = (sides <= 0).all(axis=0), (sides >= 0).all(axis=0)
        # a zero normal has every row on both sides
        keep = below != above
        sign = np.where(above[keep], -1, 1)
        kept_normals.append(sign[:, None] * normals[keep])
        kept_offsets.append(sign * offsets[keep])
    return _distinct_constraints(
        np.concatenate(kept_normals), np.concatenate(kept_offsets), scales, pivots
    )


def _distinct_constraints(
    normals: np.ndarray, offsets: np.ndarray, scales: list[int], pivots: list[int]
) -> tuple[Constraint, ...]:
    """The distinct primitive integer forms of the pivot-coordinate
    constraints ``normals @ y <= offsets`` in the unscaled coordinates, in
    order of first appearance.  The rows are scaled and divided by their gcd
    in one array: int64 when every scaled normal fits, Python integers
    otherwise."""
    d = len(scales)
    pivot_scales = [scales[p] for p in pivots]
    fits = normals.dtype == np.int64 and (
        int(np.abs(normals).max(initial=1)) * max(pivot_scales) < 1 << 63
    )
    dtype = np.int64 if fits else object
    rows = np.zeros((len(normals), d + 1), dtype=dtype)
    rows[:, pivots] = normals * np.array(pivot_scales, dtype=dtype)
    rows[:, d] = offsets
    # a kept normal is never zero, so no gcd is
    rows //= np.gcd.reduce(rows, axis=1)[:, None]
    return tuple((row[:d], row[d]) for row in dict.fromkeys(map(tuple, rows.tolist())))


def _det(m: np.ndarray) -> np.ndarray:
    """Determinants of the stacked square integer matrices ``m`` (shape
    ``(b, k, k)``), by fraction-free elimination (Bareiss 1968).  After the
    step on column c, each entry right of and below the pivots is a
    (c+2)-minor of its matrix, so every division is exact and no entry
    outgrows the largest minor.  A matrix whose column has no pivot is
    singular; it is replaced by the identity and its determinant set to 0."""
    m = m.copy()
    b, k = m.shape[0], m.shape[-1]
    if k == 0:
        return np.ones(b, dtype=m.dtype)
    at = np.arange(b)
    sign = np.ones(b, dtype=np.int64)
    singular = np.zeros(b, dtype=bool)
    previous = np.ones(b, dtype=m.dtype)
    for c in range(k - 1):
        nonzero = m[:, c:, c] != 0
        dead = ~nonzero.any(axis=1)
        if dead.any():
            singular |= dead
            m[dead] = np.eye(k, dtype=m.dtype)
            previous[dead] = 1
        pivot = c + nonzero.argmax(axis=1)
        swap = pivot != c
        if swap.any():
            top = m[at, c].copy()
            m[at, c] = m[at, pivot]
            m[at, pivot] = top
            sign[swap] = -sign[swap]
        lead = m[:, c, c].copy()
        m[:, c + 1:, c + 1:] = (
            m[:, c + 1:, c + 1:] * lead[:, None, None] - m[:, c + 1:, c:c + 1] * m[:, c:c + 1, c + 1:]
        ) // previous[:, None, None]
        previous = lead
    return np.where(singular, 0, sign * m[:, -1, -1])


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

    The projection certificates of the module docstring answer the query
    when the nearest point is the projection onto the affine hull (exactly
    0.0 inside a full-dimensional polytope) or onto a single facet within
    it.  They read the facets, which are built at the polytope's second
    query unless they are known already: a single query, as
    ``realizability_check`` makes, does not pay for the facet search.  Any
    other point, a first query, and every point of a polytope without
    facets go to Wolfe's nearest-point loop.
    """
    if len(point) != polytope.dim:
        raise DomainError(
            f"point has dimension {len(point)}, polytope has {polytope.dim}"
        )
    p = np.array([float(c) for c in point], dtype=float)
    certify = polytope.dim and polytope._facets_for_query()
    distance = _certified_distance(p, polytope) if certify else None
    return _wolfe_distance(p, polytope) if distance is None else distance


def _certified_distance(p: np.ndarray, polytope: MarginalPolytope) -> float | None:
    """The distance from ``p`` to the hull when a projection certificate
    gives it, else None."""
    c = polytope._unit_constraints
    if c is None:
        return None
    # p becomes its projection onto the affine hull, at distance off
    off = 0.0
    if len(c.basis):
        across = c.basis @ p - c.basis_offsets
        p = p - across @ c.basis
        off = float(np.linalg.norm(across))
    gaps = c.normals @ p - c.bounds
    if (gaps <= -INSIDE_SLACK).all():
        return off
    j = int(np.argmax(gaps))
    step = float(gaps[j])
    if step <= 0:
        return None
    # q: p moved onto facet j along its normal within the affine hull
    inside = c.normals @ (p - step * c.normals[j]) - c.bounds <= -INSIDE_SLACK
    inside[j] = True
    return math.hypot(off, step) if inside.all() else None


def _wolfe_distance(p: np.ndarray, polytope: MarginalPolytope) -> float:
    """``hull_distance`` by Wolfe's nearest-point algorithm on the vertices
    shifted by ``p``: a corral of vertices with convex weights ``lam`` holds
    the current point x.  A major step adds the vertex that most decreases
    the linear bound; minor steps move x to the affine nearest point of the
    corral, dropping vertices whose weight would turn non-positive.  The loop
    ends when no vertex improves on x or |x|^2 stops decreasing.
    """
    if polytope.dim == 0:
        return 0.0
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
    says that no probe left the hull.  Probes are checked in order until one
    leaves the hull; the polytope's H-representation decides most of them,
    and ``hull_distance`` decides the rest, so the verdict is the one that
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
    drawn from a generator seeded with 0, so a verdict is reproducible."""
    if eta < 0:
        raise DomainError("eta must be non-negative")
    d = polytope.dim
    if d == 0:
        return EtaVerdict(True, eta, None, 0)
    p = np.array([float(c) for c in point], dtype=float)
    directions = _probe_directions(d)
    probes = p + eta * directions
    decided = _decide_probes(probes, polytope)
    for checked, (direction, probe, side) in enumerate(zip(directions, probes, decided), 1):
        if side == 0:
            side = -1 if hull_distance(probe, polytope) >= MEMBERSHIP_TOL else 1
        if side < 0:
            return EtaVerdict(False, eta, tuple(float(c) for c in direction), checked)
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


def _decide_probes(probes: np.ndarray, polytope: MarginalPolytope) -> np.ndarray:
    """-1 for each probe the H-representation puts outside the hull, 1 for
    each it puts inside, 0 for each it leaves to ``hull_distance``.

    A probe q at distance ``off`` from the affine hull, whose projection
    there is ``gap`` outside a facet, is sqrt(off^2 + gap^2) from the part of
    the affine hull inside that facet, which contains the hull: a lower
    bound on the distance from q to the hull."""
    c = polytope._unit_constraints
    if c is None:
        return np.zeros(len(probes), dtype=int)
    # the normals are orthogonal to the basis, so these are also the gaps
    # of the probes' projections onto the affine hull
    gaps = probes @ c.normals.T - c.bounds
    bound = gaps.max(axis=1, initial=0.0)
    if len(c.basis):
        bound = np.hypot(np.linalg.norm(probes @ c.basis.T - c.basis_offsets, axis=1), bound)
    outside = bound >= MEMBERSHIP_TOL * (1 + OUTSIDE_MARGIN)
    # the first projection certificate of a full-dimensional polytope,
    # whose distance is 0.0
    inside = (gaps <= -INSIDE_SLACK).all(axis=1) & (len(c.basis) == 0)
    return np.where(outside, -1, np.where(inside, 1, 0))


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
    hull distance as diagnosis.  The polytope is fresh, so ``hull_distance``
    answers its one query by Wolfe's loop and builds no facets."""
    polytope = polytope_vertices(formulas, space, kind)
    distance = hull_distance(theta, polytope)
    return RealizabilityVerdict(distance < MEMBERSHIP_TOL, distance, polytope)
