"""Hull geometry: distances, membership, interiority margins, realizability."""

import itertools
import math
import os
import random
import subprocess
import sys
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relmarg import polytope
from relmarg.errors import DomainError
from relmarg.logic import parse_formula
from relmarg.polytope import (
    MEMBERSHIP_TOL,
    MarginalPolytope,
    eta_interior,
    hull_distance,
    interiority_margin,
    polytope_vertices,
    realizability_check,
)
from relmarg.stats import MODEL_B, ModelA, statistic
from relmarg.worlds import enumerate_worlds


def _poly(vertices):
    # rational vertices as integer rows: column j is scaled by the lcm of its
    # denominators, which serves as its normalizer
    vs = [[Fraction(c) for c in v] for v in vertices]
    d = len(vs[0]) if vs else 0
    norms = tuple(math.lcm(*(v[j].denominator for v in vs)) for j in range(d))
    rows = [[c.numerator * (n // c.denominator) for c, n in zip(v, norms)] for v in vs]
    counts = np.array(rows, dtype=object).reshape(len(vs), d)
    return MarginalPolytope(counts, norms, tuple(range(len(vs))))


# ---------------------------------------------------------------------------
# hull distance on hand-checkable geometry

def test_distance_on_a_segment():
    poly = _poly([(0,), (Fraction(2, 3),)])
    assert hull_distance([0.5], poly) == pytest.approx(0.0, abs=1e-12)
    assert hull_distance([1.0], poly) == pytest.approx(1 / 3, abs=1e-9)
    assert hull_distance([-0.25], poly) == pytest.approx(0.25, abs=1e-9)
    single = _poly([(Fraction(2, 3),)])
    assert hull_distance([2 / 3], single) == 0.0
    assert hull_distance([1.0], single) == pytest.approx(1 / 3, abs=1e-12)


def test_distance_to_unit_square():
    poly = _poly([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert hull_distance([0.5, 0.5], poly) == pytest.approx(0.0, abs=1e-12)
    assert hull_distance([2.0, 0.5], poly) == pytest.approx(1.0, abs=1e-9)
    assert hull_distance([2.0, 2.0], poly) == pytest.approx(math.sqrt(2), abs=1e-9)
    assert hull_distance([0.5, -0.3], poly) == pytest.approx(0.3, abs=1e-9)
    # (2, 2) moved onto the facet x <= 1 lands at (1, 2), outside y <= 1:
    # no projection certificate holds, and the Wolfe loop answers
    assert polytope._certified_distance(np.array([2.0, 2.0]), poly) is None


def test_distance_to_triangle_face():
    # closest point on the hypotenuse of the simplex
    poly = _poly([(0, 0), (1, 0), (0, 1)])
    assert hull_distance([1.0, 1.0], poly) == pytest.approx(math.sqrt(2) / 2, abs=1e-9)
    # a point exactly on that facet
    assert hull_distance([0.25, 0.75], poly) == pytest.approx(0.0, abs=1e-12)


def test_convex_combinations_are_members():
    rng = random.Random(8)
    poly = _poly([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    vs = np.array(poly.vertices, dtype=float)
    for _ in range(50):
        lam = np.array([rng.random() for _ in range(len(vs))])
        lam /= lam.sum()
        point = lam @ vs
        assert hull_distance(point, poly) < 1e-9


def test_distance_lower_bounds_via_separating_plane():
    # any unit direction g gives the certificate <g, p> - max_v <g, v> <= dist
    rng = random.Random(5)
    poly = _poly([(0, 0), (1, 0), (0, 1)])
    vs = np.array(poly.vertices, dtype=float)
    for _ in range(40):
        p = np.array([rng.uniform(-1, 2), rng.uniform(-1, 2)])
        d = hull_distance(p, poly)
        for _ in range(10):
            g = np.array([rng.gauss(0, 1), rng.gauss(0, 1)])
            n = np.linalg.norm(g)
            if n < 1e-9:
                continue
            g /= n
            certificate = float(g @ p) - max(float(g @ v) for v in vs)
            assert certificate <= d + 1e-9


def _oracle_distance(point, vs):
    # the nearest point is a convex combination of some affinely independent
    # vertex subset, where it is also the affine projection onto that subset
    best = math.inf
    for r in range(1, len(vs) + 1):
        for subset in itertools.combinations(range(len(vs)), r):
            base, rest = vs[subset[0]], vs[list(subset[1:])]
            alpha = np.linalg.lstsq((rest - base).T, point - base, rcond=None)[0]
            if 1.0 - alpha.sum() >= -1e-12 and (alpha >= -1e-12).all():
                projection = base + alpha @ (rest - base)
                best = min(best, float(np.linalg.norm(projection - point)))
    return best


@st.composite
def hull_queries(draw):
    d = draw(st.integers(1, 3))
    den = draw(st.sampled_from([1, 2, 3, 4]))
    # Wolfe's loop admits a vertex 1e-12 closer only when the polytope's
    # squared radius about the point is below the point's distance, so some
    # polytopes are small
    size = draw(st.sampled_from([Fraction(1), Fraction(1, 50)]))
    lattice = st.tuples(*[st.integers(-2 * den, 2 * den)] * d).map(
        lambda v: tuple(Fraction(c, den) * size for c in v)
    )
    vertices = draw(st.lists(lattice, min_size=1, max_size=5))
    index = st.integers(0, len(vertices) - 1)
    if draw(st.booleans()):
        vertices.append(vertices[draw(index)])
    if draw(st.booleans()):
        a, b = vertices[draw(index)], vertices[draw(index)]
        t = draw(st.sampled_from([Fraction(-1), Fraction(1, 2), Fraction(2)]))
        vertices.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
    # near-singular Gram matrices for Wolfe's corral: a copy of a vertex
    # moved by 1e-12, or a point 1e-12 off the line through two vertices
    near = draw(st.sampled_from([None, "duplicate", "collinear"]))
    if near is not None:
        a, b = vertices[draw(index)], vertices[draw(index)]
        t = Fraction(0) if near == "duplicate" else draw(
            st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2)]))
        axis = draw(st.integers(0, d - 1))
        vertices.append(tuple(x + t * (y - x) + Fraction(1e-12) * (j == axis)
                              for j, (x, y) in enumerate(zip(a, b))))
    vs = np.array(vertices, dtype=float)
    pick = st.integers(0, len(vs) - 1)
    kind = draw(st.sampled_from(["vertex", "midpoint", "lattice", "uniform"]))
    if kind == "vertex":
        point = vs[draw(pick)]
    elif kind == "midpoint":
        point = (vs[draw(pick)] + vs[draw(pick)]) / 2
    elif kind == "lattice":
        point = np.array(draw(lattice), dtype=float)
    else:
        point = np.array(draw(st.tuples(*[st.floats(-3, 3)] * d)))
    return vertices, point


@settings(max_examples=300, deadline=None)
@given(hull_queries())
def test_distance_matches_subset_projection_oracle(query):
    vertices, point = query
    poly = _poly(vertices)
    oracle = _oracle_distance(point, np.array(vertices, dtype=float))
    assert abs(hull_distance(point, poly) - oracle) <= 1e-9


def test_import_leaves_scipy_optimize_unloaded():
    # hull_distance is numpy only: scipy.optimize alone costs ~21 MiB of RSS
    # and ~0.2 s of import time; the package as a whole imports no scipy
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, relmarg; print('scipy.optimize' in sys.modules); "
         "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    optimize_loaded, scipy_modules = result.stdout.splitlines()
    assert optimize_loaded == "False"
    assert scipy_modules == "[]"


def test_wolfe_distance_falls_back_to_lstsq_when_solve_raises(monkeypatch):
    calls = []

    def singular(a, b):
        calls.append(len(a))
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    cases = [
        ([(0, 0), (1, 0), (0, 1), (1, 1)], [(2.0, 0.5), (2.0, 2.0), (0.3, -0.4), (0.5, 0.5)]),
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
         [(1.0, 1.0, 1.0), (-0.5, 0.2, 0.2), (0.2, 0.2, 0.2), (0.5, 0.5, -1.0)]),
    ]
    for vertices, points in cases:
        poly = _poly(vertices)
        for point in points:
            p = np.array(point)
            oracle = _oracle_distance(p, np.array(vertices, dtype=float))
            assert abs(polytope._wolfe_distance(p, poly) - oracle) <= 1e-9
    assert calls


def test_distance_validates_dimension():
    poly = _poly([(0, 0), (1, 1)])
    with pytest.raises(DomainError):
        hull_distance([0.5], poly)


def test_zero_dimensional_polytope():
    poly = MarginalPolytope(np.zeros((1, 0), dtype=np.int64), (), (0,))
    assert hull_distance([], poly) == 0.0


# ---------------------------------------------------------------------------
# statistic polytopes

def test_single_formula_polytope_over_unary_space():
    space = enumerate_worlds(["a", "b", "c"], {"r": 1})
    f = parse_formula("exists X: r(X)")
    poly = polytope_vertices([f], space, ModelA(2))
    assert poly.dim == 1
    assert set(poly.vertices) == {(Fraction(0),), (Fraction(2, 3),), (Fraction(1),)}
    assert poly.rank() == poly.dim == 1


def test_vertices_deduplicate_identical_statistics():
    space = enumerate_worlds(["a", "b", "c"], {"r": 1})
    f = parse_formula("forall X: r(X)")
    poly = polytope_vertices([f], space, MODEL_B)
    # eight worlds, but only four distinct statistic values 0, 1/3, 2/3, 1
    assert len(poly.vertices) == 4
    assert len(poly.generators) == 4


def test_pigeonhole_realizability():
    # "every 2-subset mixes marked and unmarked": achievable on two constants,
    # impossible on three, where some pair must agree
    space2 = enumerate_worlds(["a", "b"], {"r": 1})
    space3 = enumerate_worlds(["a", "b", "c"], {"r": 1})
    mixed = parse_formula("exists X, Y: X != Y & r(X) & ~r(Y)")
    v2 = realizability_check([Fraction(1)], [mixed], space2, ModelA(2))
    assert v2.realizable
    assert v2.distance < MEMBERSHIP_TOL

    poly3 = polytope_vertices([mixed], space3, ModelA(2))
    best = max(v[0] for v in poly3.vertices)
    assert best == Fraction(2, 3)
    v3 = realizability_check([Fraction(1)], [mixed], space3, ModelA(2))
    assert not v3.realizable
    assert v3.distance == pytest.approx(1 / 3, abs=1e-9)


def test_realizability_of_world_statistics():
    space = enumerate_worlds(["a", "b"], {"e": 2})
    f = parse_formula("forall X, Y: ~e(X,Y) | e(Y,X)")
    for bits in range(0, 16, 3):
        theta = [statistic(f, space.world_example(bits), MODEL_B)]
        verdict = realizability_check(theta, [f], space, MODEL_B)
        assert verdict.realizable


# ---------------------------------------------------------------------------
# eta-interiority

def test_eta_interior_accepts_deep_points():
    poly = _poly([(0, 0), (1, 0), (0, 1), (1, 1)])
    verdict = eta_interior([0.5, 0.5], 0.4, poly)
    assert verdict.inside
    assert verdict.rejected_direction is None
    assert verdict.probes_checked == 4 + 16  # coordinate pairs plus random probes


def test_eta_interior_rejects_near_boundary():
    poly = _poly([(0, 0), (1, 0), (0, 1), (1, 1)])
    verdict = eta_interior([0.05, 0.5], 0.1, poly)
    assert not verdict.inside
    assert verdict.rejected_direction is not None
    # the offending probe actually leaves the hull
    p = np.array([0.05, 0.5]) + 0.1 * np.array(verdict.rejected_direction)
    assert hull_distance(p, poly) >= MEMBERSHIP_TOL


def test_eta_interior_zero_eta_is_membership():
    poly = _poly([(0,), (1,)])
    assert eta_interior([0.5], 0.0, poly).inside
    assert not eta_interior([1.5], 0.0, poly).inside


def test_eta_interior_validates_eta():
    poly = _poly([(0,), (1,)])
    with pytest.raises(DomainError):
        eta_interior([0.5], -0.1, poly)


@pytest.mark.parametrize(("point", "eta"), [([math.nan, 0.5], 0.05), ([0.5, 0.5], math.nan)])
def test_eta_interior_refuses_nan(point, eta):
    # every probe of a NaN point is NaN, and NaN >= MEMBERSHIP_TOL is false
    poly = _poly([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(DomainError):
        eta_interior(point, eta, poly)


def test_hull_distance_and_realizability_check_refuse_a_nan_point():
    poly = _poly([(0, 0), (1, 0), (0, 1), (1, 1)])
    for _ in range(2):  # before the facets are built and once they exist
        with pytest.raises(DomainError, match="NaN coordinate"):
            hull_distance([0.5, math.nan], poly)
        hull_distance([0.5, 0.5], poly)
    space = enumerate_worlds(["a", "b"], {"r": 1})
    with pytest.raises(DomainError, match="NaN coordinate"):
        realizability_check([math.nan], [parse_formula("exists X: r(X)")], space, ModelA(1))


def test_interiority_margin_refuses_nan_eta():
    with pytest.raises(DomainError):
        interiority_margin(3, 2, 1, math.nan)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinite_points_and_eta_are_outside():
    # answered before any product with the point, so 0 * inf makes no NaN
    # and numpy warns of nothing, before the facets are built and once they
    # exist; realizability_check answers inf without a Wolfe run
    poly = _poly([(0, 0), (1, 0), (0, 1), (1, 1)])
    for point in ([math.inf, 0.5], [0.5, 0.5], [math.inf, 0.5], [-math.inf, math.inf]):
        assert hull_distance(point, poly) == (0.0 if point == [0.5, 0.5] else math.inf)
    verdict = eta_interior([math.inf, 0.5], 0.1, poly)
    assert not verdict.inside and verdict.rejected_direction == (1.0, 0.0)
    assert verdict.probes_checked == 1
    verdict = eta_interior([0.5, 0.5], math.inf, poly)
    assert not verdict.inside and verdict.rejected_direction == (1.0, 0.0)
    assert interiority_margin(3, 2, 1, math.inf) == math.inf
    space = enumerate_worlds(["a", "b"], {"r": 1})
    for theta in (math.inf, -math.inf):
        verdict = realizability_check([theta], [parse_formula("exists X: r(X)")], space, ModelA(1))
        assert not verdict.realizable and verdict.distance == math.inf


def test_polytope_vertices_refuses_an_empty_world_space():
    never = parse_formula("exists X: r(X) & ~r(X)")
    space = enumerate_worlds(["a", "b"], {"r": 1}, hard_rules=[never])
    assert len(space) == 0
    with pytest.raises(DomainError, match="empty world space"):
        polytope_vertices([parse_formula("exists X: r(X)")], space, ModelA(1))


def test_eta_interior_of_a_polytope_without_formulas_is_inside_unprobed():
    poly = polytope_vertices([], enumerate_worlds(["a", "b"], {"r": 1}), ModelA(1))
    assert poly.dim == 0 and poly.vertices == ((),)
    verdict = eta_interior([], 0.3, poly)
    assert verdict.inside and verdict.probes_checked == 0
    assert verdict.rejected_direction is None


def test_eta_interior_is_seed_deterministic():
    poly = _poly([(0, 0), (1, 0), (0, 1)])
    a = eta_interior([0.2, 0.2], 0.15, poly)
    b = eta_interior([0.2, 0.2], 0.15, poly)
    assert a == b


# ---------------------------------------------------------------------------
# interiority margin

def test_interiority_margin_values():
    assert interiority_margin(3, 2, 1, 0.05) == pytest.approx(0.05 + 1 / 3, abs=1e-12)
    assert interiority_margin(3, 2, 4, 0.0) == pytest.approx(2 / 3, abs=1e-12)
    # width 1 statistics never move, so the margin is eta itself
    assert interiority_margin(7, 1, 3, 0.02) == pytest.approx(0.02, abs=1e-15)


def test_interiority_margin_shrinks_with_domain_size():
    vals = [interiority_margin(m, 3, 2, 0.01) for m in range(3, 40)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.2


def test_interiority_margin_validation():
    with pytest.raises(DomainError):
        interiority_margin(2, 3, 1, 0.1)
    with pytest.raises(DomainError, match="target coordinate count 0 must be at least 1"):
        interiority_margin(3, 2, 0, 0.1)
    with pytest.raises(DomainError):
        interiority_margin(3, 2, 1, -0.1)


def test_margin_certifies_transfer_on_a_grid():
    # points eta-deep at the margin stay realizable at every larger size
    space3 = enumerate_worlds(["a", "b", "c"], {"r": 1})
    f = parse_formula("forall X, Y: r(X) | r(Y)")
    margin = interiority_margin(3, 2, 1, 0.05)
    poly3 = polytope_vertices([f], space3, MODEL_B)
    passing = [
        j / 30
        for j in range(31)
        if eta_interior([j / 30], margin, poly3).inside
    ]
    assert passing
    for target in (4, 5):
        names = [f"c{i}" for i in range(target)]
        space_t = enumerate_worlds(names, {"r": 1})
        poly_t = polytope_vertices([f], space_t, MODEL_B)
        for theta in passing:
            assert hull_distance([theta], poly_t) < MEMBERSHIP_TOL


# ---------------------------------------------------------------------------
# rank and H-representation

def test_rank_of_degenerate_vertex_sets():
    flat = _poly([(0, 0), (1, 1)])
    assert flat.rank() == 1 < flat.dim
    point = _poly([(Fraction(1, 2), Fraction(1, 2))])
    assert point.rank() == 0


@st.composite
def lattice_sets(draw):
    """Up to 7 distinct points of the lattice of step 1/den in dimension 1-4,
    drawn from an affine subspace of dimension 0 to d, so that some sets are
    single points, collinear or otherwise lower-dimensional."""
    d = draw(st.integers(1, 4))
    den = draw(st.sampled_from([1, 2, 3]))
    small = st.integers(-2, 2)
    origin = draw(st.tuples(*[small] * d))
    spans = [draw(st.tuples(*[small] * d)) for _ in range(draw(st.integers(0, d)))]
    points = []
    for _ in range(draw(st.integers(1, 7))):
        steps = [draw(small) for _ in spans]
        points.append(tuple(
            Fraction(origin[j] + sum(t * g[j] for t, g in zip(steps, spans)), den)
            for j in range(d)
        ))
    return list(dict.fromkeys(points))


@settings(max_examples=300, deadline=None)
@given(lattice_sets())
def test_h_representation_matches_subset_enumeration(vertices):
    _check_h_representation(vertices)


@st.composite
def high_rank_sets(draw):
    """k + 1 or k + 2 points spanning an affine subspace of dimension up to
    k, in dimension 5-8 with k >= d - 2.  Coordinates are small, or scaled
    by 10^6 so that the double description's integers grow past int64."""
    d = draw(st.integers(5, 8))
    k = draw(st.integers(d - 2, d))
    scale = draw(st.sampled_from([1, 10**6]))
    small = st.integers(-2, 2)
    origin = draw(st.tuples(*[small] * d))
    spans = [draw(st.tuples(*[small] * d)) for _ in range(k)]
    points = []
    for _ in range(draw(st.integers(k + 1, k + 2))):
        steps = [draw(st.integers(-1, 1)) for _ in spans]
        points.append(tuple(
            scale * (origin[j] + sum(t * g[j] for t, g in zip(steps, spans))) for j in range(d)
        ))
    return list(dict.fromkeys(points))


@settings(max_examples=20, deadline=None)
@given(high_rank_sets())
def test_h_representation_at_high_rank_matches_subset_enumeration(vertices):
    _check_h_representation(vertices)


@pytest.mark.parametrize("scale", [1, 10**6])
def test_facets_of_a_bipyramid_at_rank_12(scale):
    # the simplex e_1..e_12 with apexes 0 and p = (1/6, ..., 1/6) on either
    # side: its 24 facets are -x_i <= 0 and sum_(j != i) x_j - 5 x_i <= 1
    d = 12
    units = [tuple(scale * int(i == j) for j in range(d)) for i in range(d)]
    vertices = units + [(0,) * d, (Fraction(scale, 6),) * d]
    h = _poly(vertices).h_representation
    assert (h.rank, h.equalities) == (d, ())
    lower = {(tuple(-int(i == j) for j in range(d)), 0) for i in range(d)}
    upper = {(tuple(-5 if i == j else 1 for j in range(d)), scale) for i in range(d)}
    assert sorted(h.facets) == sorted(lower | upper)


def _check_h_representation(vertices):
    poly = _poly(vertices)
    h = poly.h_representation
    d = poly.dim
    rank, facets = oracles.hull_facets(vertices)
    assert h.rank == poly.rank() == rank
    # d - rank independent equalities that hold at every vertex cut out
    # exactly the affine hull
    assert len(h.equalities) == d - rank
    assert oracles.span_rank([a for a, _ in h.equalities]) == d - rank
    for a, b in h.equalities + h.facets:
        assert math.gcd(*a, b) == 1
    assert all(sum(x * y for x, y in zip(a, v)) == b for a, b in h.equalities for v in vertices)
    # each facet holds at every vertex and is tight at the oracle's facet
    tight = []
    for a, b in h.facets:
        slacks = [b - sum(x * y for x, y in zip(a, v)) for v in vertices]
        assert min(slacks) >= 0
        tight.append(frozenset(i for i, slack in enumerate(slacks) if slack == 0))
    assert sorted(tight, key=sorted) == sorted(facets, key=sorted)
    if rank == d:
        # full-dimensional facets have one primitive integer form
        assert set(h.facets) == set(facets.values())


@st.composite
def grid_sets(draw):
    """Up to 10 distinct points of a k-dimensional grid {0, 1, 2}^k, mapped
    into dimension 2-4 by small integer spans, so that many points share a
    plane (a face of the grid or a plane through it) or a line."""
    d = draw(st.integers(2, 4))
    small = st.integers(-2, 2)
    origin = draw(st.tuples(*[small] * d))
    spans = [draw(st.tuples(*[small] * d)) for _ in range(draw(st.integers(1, d)))]
    steps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * len(spans)),
                          min_size=1, max_size=10, unique=True))
    points = [tuple(origin[j] + sum(t * g[j] for t, g in zip(step, spans)) for j in range(d))
              for step in steps]
    return list(dict.fromkeys(points))


@settings(max_examples=200, deadline=None)
@given(grid_sets(), st.randoms(use_true_random=False))
def test_facets_of_degenerate_sets_match_the_oracle_in_any_row_order(vertices, rng):
    _check_h_representation(vertices)
    shuffled = list(vertices)
    rng.shuffle(shuffled)
    assert _poly(shuffled).h_representation.facets == _poly(vertices).h_representation.facets


@settings(max_examples=200, deadline=None)
@given(lattice_sets(), st.booleans(), st.data())
def test_scaling_a_column_and_its_norm_changes_neither_constraints_nor_floats(
        vertices, int64, data):
    # the H-representation is in statistic coordinates and each float is the
    # correctly rounded quotient, so neither depends on the integers' scale:
    # count rows over their normalizers give what lcm-scaled rows give
    poly = _poly(vertices)
    factors = data.draw(st.lists(st.integers(1, 1000), min_size=poly.dim, max_size=poly.dim))
    counts = poly.counts * np.array(factors, dtype=object)
    scaled = MarginalPolytope(counts.astype(np.int64) if int64 else counts,
                              tuple(n * f for n, f in zip(poly.norms, factors)), poly.generators)
    assert scaled.h_representation == poly.h_representation
    assert scaled.float_vertices.dtype == poly.float_vertices.dtype == np.float64
    assert scaled.float_vertices.tobytes() == poly.float_vertices.tobytes()
    assert scaled.vertices == poly.vertices


TABLE_FORMULAS = ("exists X: r(X)", "exists X: s(X)", "exists X, Y: X != Y & r(X) & ~s(Y)")


@pytest.mark.parametrize(("size", "rows", "facet_count"), [(6, 75, 9), (8, 154, 11)])
def test_facets_of_polytopes_with_many_interior_rows(size, rows, facet_count):
    # rank 3, with most count rows inside the hull
    space = enumerate_worlds([f"c{i}" for i in range(size)], {"r": 1, "s": 1})
    poly = polytope_vertices([parse_formula(t) for t in TABLE_FORMULAS], space, ModelA(2))
    h = poly.h_representation
    assert (len(poly.vertices), h.rank, len(h.facets)) == (rows, 3, facet_count)
    for a, b in h.facets:
        slacks = [b - sum(x * y for x, y in zip(a, v)) for v in poly.vertices]
        assert min(slacks) == 0
        tight = [v for v, slack in zip(poly.vertices, slacks) if slack == 0]
        assert oracles.span_rank([[x - y for x, y in zip(v, tight[0])] for v in tight]) == 2
    vertices = poly.float_vertices
    centre = vertices.mean(axis=0)
    for point in (centre, vertices[:3].mean(axis=0), centre + 0.05, vertices[-1] + 0.2,
                  np.full(3, -0.5), np.full(3, 1.5)):
        assert abs(hull_distance(point, poly) - polytope._wolfe_distance(point, poly)) <= 1e-9


@pytest.mark.parametrize(("side", "rank", "shift"), [
    pytest.param(40, 2, 0, id="40-2"), pytest.param(10, 3, 0, id="10-3"),
    pytest.param(6, 4, 0, id="6-4"), pytest.param(6, 4, Fraction(1, 3**400), id="6-4-shifted")])
def test_facets_of_low_rank_polytopes_with_many_rows(side, rank, shift):
    # 1,600, 1,000 and 1,296 grid points, nearly all inside the cube: most
    # pairs of the double description stop at the zero-set count test, and
    # the work cap charges them one step each.  The subset-enumeration
    # oracle is too slow here, so the checks are structural.  The shift
    # makes the first coordinates up to 637 bits long after scaling, and
    # the work cap charges that length to their products, not to the row.
    vertices = [(v[0] + shift, *v[1:]) for v in itertools.product(range(side), repeat=rank)]
    poly = _poly(vertices)
    facets = poly.h_representation.facets
    assert facets is not None and len(facets) == 2 * rank
    for a, b in facets:
        slacks = [b - sum(x * y for x, y in zip(a, v)) for v in vertices]
        assert min(slacks) == 0
        tight = [v for v, slack in zip(vertices, slacks) if slack == 0]
        assert oracles.span_rank([[x - y for x, y in zip(v, tight[0])] for v in tight]) == rank - 1
    centre = np.full(rank, (side - 1) / 2)
    assert polytope._certified_distance(centre, poly) == 0.0
    for point in (centre, np.full(rank, 0.5), np.arange(rank, dtype=float),
                  centre + side, np.full(rank, -1.0), np.array([-0.5] + [1.0] * (rank - 1))):
        assert abs(hull_distance(point, poly) - polytope._wolfe_distance(point, poly)) <= 1e-9


def test_points_in_general_position_stay_past_the_work_cap(monkeypatch):
    # the double description of 300 random points in dimension 8 holds far
    # more rays than the cap allows for
    rng = random.Random(8)
    poly = _poly([[Fraction(rng.randint(0, 1000), 1000) for _ in range(8)] for _ in range(300)])
    assert poly.rank() == 8
    assert poly.h_representation.facets is None
    wolfe_distance = polytope._wolfe_distance
    wolfe_calls = []

    def wolfe(p, polytope_):
        wolfe_calls.append(p)
        return wolfe_distance(p, polytope_)

    monkeypatch.setattr(polytope, "_wolfe_distance", wolfe)
    centre = poly.float_vertices.mean(axis=0)
    points = (centre, centre + 0.3, np.full(8, 2.0))
    for point in points:
        assert hull_distance(point, poly) == wolfe_distance(point, poly)
    assert len(wolfe_calls) == len(points)


class RecordingRows(Sequence):
    """Rows that record the index of every row read."""

    def __init__(self, rows):
        self.rows, self.read = rows, []

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        self.read.append(i)
        return self.rows[i]


def test_a_refused_facet_search_reads_no_row_past_where_it_stopped():
    # the double description reads the start rows, then each other row once
    # and in order when it reaches it: a run past the cap stops early and
    # leaves the later rows unread
    rng = random.Random(8)
    poly = _poly([[Fraction(rng.randint(0, 1000), 1000) for _ in range(8)] for _ in range(300)])
    rows, pivots, _, start = poly._affine_hull
    recording = RecordingRows(rows)
    assert polytope._facets(recording, poly.norms, pivots, start) is None
    order = start + [i for i in range(len(rows)) if i not in start]
    simplex, reached = recording.read[:len(start)], recording.read[len(start):]
    assert simplex == start
    assert reached == order[:len(reached)] and len(start) < len(reached) < len(rows)
    # a run that finishes reads every row once after the simplex
    poly = _poly([[0, 0], [1, 0], [0, 1], [1, 1], [Fraction(1, 2), Fraction(1, 3)]])
    rows, pivots, _, start = poly._affine_hull
    recording = RecordingRows(rows)
    assert len(polytope._facets(recording, poly.norms, pivots, start)) == 4
    assert recording.read == start + start + [i for i in range(len(rows)) if i not in start]


def _sixteen_vertices_at_rank_12():
    # the 16 worlds of four unary atoms over one constant and 12 independent
    # conjunctions: rank 12, with 48 facets
    preds = "pqrs"
    conjunctions = [c for size in (1, 2, 3) for c in itertools.combinations(preds, size)][:12]
    formulas = [parse_formula("forall X: " + " & ".join(f"{p}(X)" for p in c)) for c in conjunctions]
    space = enumerate_worlds(["a"], {p: 1 for p in preds})
    return polytope_vertices(formulas, space, ModelA(1))


def test_facets_of_sixteen_vertices_at_rank_12():
    poly = _sixteen_vertices_at_rank_12()
    assert (len(poly.vertices), poly.rank()) == (16, 12)
    _check_h_representation(poly.vertices)
    assert len(poly.h_representation.facets) == 48
    centre = poly.float_vertices.mean(axis=0)
    for eta in (0.0, 0.01, 0.1):
        assert eta_interior(centre, eta, poly) == oracles.eta_interior(centre, eta, poly)


def test_h_representation_past_int64_uses_python_integers():
    # slacks on these coordinates overflow int64; the double description
    # computes in Python integers throughout
    big = 10**7
    vertices = [(0, 0, 0), (big, 0, 0), (0, big, 0), (0, 0, big), (big, big, big), (1, 2, 3)]
    h = _poly(vertices).h_representation
    rank, facets = oracles.hull_facets(vertices)
    assert h.rank == rank == 3 and h.equalities == ()
    assert set(h.facets) == set(facets.values())
    assert ((1, 1, -1), big) in h.facets


def test_scaled_normals_past_int64_use_python_integers():
    # the coordinates fit int64, but a facet normal times its coordinate's
    # scale, the denominator 2^40 + 1, does not
    big, den = 1 << 29, (1 << 40) + 1
    vertices = [(0, 0), (Fraction(big, den), 0), (0, Fraction(big - 1, den)),
                (Fraction(3, den), Fraction(big, den))]
    h = _poly(vertices).h_representation
    assert max(abs(c) for a, _ in h.facets for c in a) > 1 << 63
    rank, facets = oracles.hull_facets(vertices)
    assert h.rank == rank == 2 and h.equalities == ()
    assert set(h.facets) == set(facets.values())


@st.composite
def near_points(draw, vertices, far=False):
    """A point near the hull of lattice ``vertices``: a convex combination,
    a point at most 1e-8 from the hyperplane of a facet (on either side,
    most of them within 1e-9), a point at most 2e-8 from a vertex, where a
    probe can be 1e-8 from the hull while no facet is violated by that
    much, or a uniform point; with ``far``, also a point 2-100 away from a
    vertex."""
    d = len(vertices[0])
    kinds = ["combination", "facet", "vertex", "uniform"] + (["far"] if far else [])
    kind = draw(st.sampled_from(kinds))
    facets = oracles.hull_facets(vertices)[1]
    if kind in ("vertex", "far"):
        direction = np.array(draw(st.tuples(*[st.integers(-3, 3)] * d)), dtype=float)
        length = draw(st.sampled_from([5e-9, 1e-8, 1.2e-8, 1.5e-8, 2e-8]) if kind == "vertex"
                      else st.floats(2, 100))
        point = np.array(draw(st.sampled_from(vertices)), dtype=float)
        if direction.any():
            point += length * direction / np.linalg.norm(direction)
    elif kind == "facet" and facets:
        on, (a, _) = draw(st.sampled_from(sorted(facets.items(), key=lambda f: sorted(f[0]))))
        weights = [draw(st.integers(1, 3)) for _ in on]
        base = [sum(w * vertices[i][j] for w, i in zip(weights, sorted(on))) / sum(weights)
                for j in range(d)]
        shift = draw(st.sampled_from([-1e-8, -2e-9, -1e-9, -5e-10, -1e-10, 0.0,
                                      1e-10, 5e-10, 1e-9, 2e-9, 1e-8]))
        point = np.array(base, dtype=float) + shift * np.array(a) / np.linalg.norm(a)
    elif kind != "uniform":
        weights = [draw(st.integers(0, 3)) for _ in vertices]
        total = sum(weights) or 1
        point = np.array([sum(w * v[j] for w, v in zip(weights, vertices)) / total
                          for j in range(d)], dtype=float)
    else:
        point = np.array(draw(st.tuples(*[st.floats(-3, 3)] * d)))
    return point


@st.composite
def eta_queries(draw):
    """A lattice polytope, a point near it (``near_points``) and an eta."""
    vertices = draw(lattice_sets())
    point = draw(near_points(vertices))
    eta = draw(st.one_of(st.sampled_from([0.0, 1e-10, 1e-9, 5e-9, 1e-8, 2e-8]),
                         st.floats(0, 1)))
    return vertices, point, eta


@settings(max_examples=300, deadline=None)
@given(eta_queries())
def test_eta_interior_matches_probing_with_hull_distance(query):
    vertices, point, eta = query
    poly = _poly(vertices)
    assert eta_interior(point, eta, poly) == oracles.eta_interior(point, eta, poly)


SEGMENT_OFFSETS = [0.0, 0.5e-8, 1.00005e-8, 2e-8, 0.1]


def test_eta_interior_near_a_lower_dimensional_hull():
    # points off the diagonal segment of the plane, beside its midpoint: the
    # facets keep every projection inside, so hull_distance decides them all
    poly = _poly([(0, 0), (1, 1)])
    across = np.array([1.0, -1.0]) / math.sqrt(2)
    probes = [0.5 + off * across for off in SEGMENT_OFFSETS]
    assert [hull_distance(q, poly) >= polytope.MEMBERSHIP_TOL for q in probes] == [
        False, False, True, True, True]
    for eta in SEGMENT_OFFSETS:
        assert eta_interior([0.5, 0.5], eta, poly) == oracles.eta_interior([0.5, 0.5], eta, poly)


def _counting_hull_distance(monkeypatch):
    """Count the calls eta_interior makes to ``polytope.hull_distance``."""
    calls = []
    inner = polytope.hull_distance

    def counted(point, poly):
        calls.append(point)
        return inner(point, poly)

    monkeypatch.setattr(polytope, "hull_distance", counted)
    return calls


def test_eta_interior_keeps_probes_the_facets_hold_inside_from_hull_distance(monkeypatch):
    calls = _counting_hull_distance(monkeypatch)
    square = _poly([(0, 0), (1, 0), (0, 1), (1, 1)])
    verdict = eta_interior([0.5, 0.5], 0.1, square)
    assert verdict.inside and verdict.probes_checked == 20
    assert calls == []
    # the four axis probes lie on facets, less than INSIDE_SLACK inside
    verdict = eta_interior([0.5, 0.5], 0.5, square)
    assert verdict.inside and len(calls) == 4
    # the first probe, (1.1, 0.5), is outside: hull_distance decides it
    calls.clear()
    verdict = eta_interior([0.5, 0.5], 0.6, square)
    assert not verdict.inside and verdict.probes_checked == 1
    assert len(calls) == 1


@pytest.mark.parametrize("eta", SEGMENT_OFFSETS)
def test_eta_interior_asks_hull_distance_about_every_probe_of_a_segment(
        monkeypatch, eta):
    calls = _counting_hull_distance(monkeypatch)
    verdict = eta_interior([0.5, 0.5], eta, _poly([(0, 0), (1, 1)]))
    assert len(calls) == verdict.probes_checked


@pytest.mark.parametrize("point", [[0.5], [0.5, 0.5, 0.5]])
def test_eta_interior_validates_dimension(point):
    poly = _poly([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(DomainError, match="point has dimension"):
        eta_interior(point, 0.1, poly)


@settings(max_examples=100, deadline=None)
@given(eta_queries())
def test_eta_interior_without_facets_probes_with_hull_distance(query):
    vertices, point, eta = query
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polytope, "FACET_WORK_CAP", 0)
        poly = _poly(vertices)
        if poly.rank() > 0:
            assert poly.h_representation.facets is None
        assert eta_interior(point, eta, poly) == oracles.eta_interior(point, eta, poly)


@st.composite
def distance_queries(draw):
    """A lattice polytope, lower-dimensional ones included, and a point
    near it or far from it."""
    vertices = draw(lattice_sets())
    return vertices, draw(near_points(vertices, far=True))


@settings(max_examples=300, deadline=None)
@given(distance_queries())
def test_hull_distance_matches_the_wolfe_loop(query):
    vertices, point = query
    poly = _poly(vertices)
    # known facets: the certificates answer from the first query on
    h = poly.h_representation
    distance = hull_distance(point, poly)
    assert abs(distance - polytope._wolfe_distance(point, poly)) <= 1e-9
    if h.rank == poly.dim:
        # every facet keeps the point 1e-9 inside, with a relative margin
        # for float rounding: the projection certificate answers exactly
        exact = [Fraction(c) for c in point]
        slacks = [(b - sum(x * y for x, y in zip(a, exact))) / math.sqrt(sum(x * x for x in a))
                  for a, b in h.facets]
        if min(slacks) >= polytope.INSIDE_SLACK * (1 + 1e-6):
            assert distance == 0.0


def test_hull_distance_past_the_work_cap_is_the_wolfe_loop(monkeypatch):
    monkeypatch.setattr(polytope, "FACET_WORK_CAP", 0)
    poly = _sixteen_vertices_at_rank_12()
    assert poly.h_representation.facets is None
    centre = poly.float_vertices.mean(axis=0)
    for point in (centre, centre + 0.01, poly.float_vertices[3] - 0.5, np.full(poly.dim, 2.0)):
        assert hull_distance(point, poly) == polytope._wolfe_distance(point, poly)


def test_hull_distance_builds_facets_at_the_first_query():
    poly = _poly([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert "h_representation" not in poly.__dict__
    # the centre of the square: certificate 1, exactly 0.0
    assert hull_distance([0.5, 0.5], poly) == 0.0
    assert "h_representation" in poly.__dict__
    assert hull_distance([2.0, 0.5], poly) == 1.0


@pytest.mark.parametrize("theta", [Fraction(1), Fraction(1, 3)])
def test_realizability_check_builds_no_facets(theta):
    # one query on a fresh polytope: a facet search would cost more than
    # the Wolfe run it saves
    space = enumerate_worlds(["a", "b", "c"], {"r": 1})
    mixed = parse_formula("exists X, Y: X != Y & r(X) & ~r(Y)")
    verdict = realizability_check([theta], [mixed], space, ModelA(2))
    assert "h_representation" not in verdict.polytope.__dict__
    assert verdict.distance == polytope._wolfe_distance(np.array([float(theta)]), verdict.polytope)


def test_the_fit_path_builds_no_fraction_view():
    # hull queries read the count rows and their floats; the exact
    # rationals are built only when something reads vertices
    space = enumerate_worlds(["a", "b", "c"], {"r": 1})
    mixed = parse_formula("exists X, Y: X != Y & r(X) & ~r(Y)")
    poly = realizability_check([Fraction(1)], [mixed], space, ModelA(2)).polytope
    assert "vertices" not in poly.__dict__
    assert poly.h_representation.rank == 1
    assert hull_distance([0.5], poly) == 0.0
    assert "h_representation" in poly.__dict__ and "vertices" not in poly.__dict__
    assert poly.vertices == ((Fraction(0),), (Fraction(2, 3),))
    single = realizability_check([Fraction(1, 2)], [parse_formula("exists X: r(X)")], space,
                                 ModelA(2)).polytope
    assert "vertices" not in single.__dict__
    assert set(single.vertices) == {(Fraction(0),), (Fraction(2, 3),), (Fraction(1),)}


# The target theta = (11/30, 16/30, 1/5) of these three formulas, Model A
# width 1, is 1/(30 sqrt 3) ~ 0.0192 from the facet -x1 + x2 - x3 <= 0 at
# every size, but no probe direction of eta_interior comes close enough to
# that facet's normal to leave the hull at eta = 0.02.
NEAR_FACET_FORMULAS = ("exists X: r(X)", "forall X: r(X) | s(X)", "forall X: s(X)")
NEAR_FACET_THETA = (Fraction(11, 30), Fraction(16, 30), Fraction(1, 5))


def _near_facet_polytope(size):
    space = enumerate_worlds([f"c{i}" for i in range(1, size + 1)], {"r": 1, "s": 1})
    return polytope_vertices([parse_formula(t) for t in NEAR_FACET_FORMULAS], space, ModelA(1))


@pytest.mark.parametrize("size", [2, 3, 4])
def test_h_representation_holds_a_facet_closer_than_eta(size):
    h = _near_facet_polytope(size).h_representation
    assert ((-1, 1, -1), 0) in h.facets
    slack = 0 - (-NEAR_FACET_THETA[0] + NEAR_FACET_THETA[1] - NEAR_FACET_THETA[2])
    assert slack == Fraction(1, 30)
    # the distance slack/|a| = 1/(30 sqrt 3) is below eta = 0.02
    assert slack**2 < Fraction(2, 100) ** 2 * 3


@pytest.mark.xfail(strict=True, reason="probing certifies a target 0.0192 from a facet at eta 0.02")
@pytest.mark.parametrize("size", [2, 3, 4])
def test_eta_interior_rejects_a_target_closer_to_a_facet_than_eta(size):
    theta = [float(t) for t in NEAR_FACET_THETA]
    assert not eta_interior(theta, 0.02, _near_facet_polytope(size)).inside
