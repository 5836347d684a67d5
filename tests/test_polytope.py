"""Hull geometry: distances, membership, interiority margins, realizability."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from relmarg.stats import MODEL_B, ModelA
from relmarg.worlds import enumerate_worlds


def _poly(vertices):
    # dim comes from the formula count; the entries are never evaluated here
    vs = tuple(tuple(Fraction(c) for c in v) for v in vertices)
    d = len(vs[0]) if vs else 0
    return MarginalPolytope((None,) * d, ModelA(1), 0, vs, tuple(range(len(vs))))


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
    lattice = st.tuples(*[st.integers(-2 * den, 2 * den)] * d).map(
        lambda v: tuple(Fraction(c, den) for c in v)
    )
    vertices = draw(st.lists(lattice, min_size=1, max_size=5))
    index = st.integers(0, len(vertices) - 1)
    if draw(st.booleans()):
        vertices.append(vertices[draw(index)])
    if draw(st.booleans()):
        a, b = vertices[draw(index)], vertices[draw(index)]
        t = draw(st.sampled_from([Fraction(-1), Fraction(1, 2), Fraction(2)]))
        vertices.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
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


def test_distance_validates_dimension():
    poly = _poly([(0, 0), (1, 1)])
    with pytest.raises(DomainError):
        hull_distance([0.5], poly)


def test_zero_dimensional_polytope():
    poly = MarginalPolytope((), ModelA(1), 0, ((),), (0,))
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
        theta = space.feature_vector(int(bits), [f], MODEL_B)
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
    with pytest.raises(DomainError):
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
# rank

def test_rank_of_degenerate_vertex_sets():
    flat = _poly([(0, 0), (1, 1)])
    assert flat.rank() == 1 < flat.dim
    point = _poly([(Fraction(1, 2), Fraction(1, 2))])
    assert point.rank() == 0
