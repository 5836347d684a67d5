"""Dual solver against finite differences, a primal oracle, and exact shrinking."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_stats import A_POOL, B_POOL

from relmarg import maxent, stats
from relmarg.data import GlobalExample
from relmarg.errors import DomainError, NotRealizableError
from relmarg.logic import parse_formula
from relmarg.maxent import (
    ExplicitDistribution,
    dual_objective,
    distribution_statistic,
    log_likelihood_duality_check,
    model_distribution,
    primal_solve_oracle,
    shrink_distribution,
    solve_maxent,
    total_variation,
)
from relmarg.polytope import realizability_check
from relmarg.stats import MODEL_B, MarginalConstraint, ModelA, statistic
from relmarg.worlds import enumerate_worlds


def _constraints(pairs):
    return tuple(MarginalConstraint(parse_formula(t), Fraction(v)) for t, v in pairs)


SPACE_R3 = enumerate_worlds(["a", "b", "c"], {"r": 1})
SPACE_E2 = enumerate_worlds(["a", "b"], {"e": 2})


# ---------------------------------------------------------------------------
# dual objective

def test_dual_gradient_matches_finite_differences():
    cons = _constraints([("exists X: r(X)", Fraction(2, 3)), ("forall X: r(X)", Fraction(1, 4))])
    rng = random.Random(42)
    h = 1e-6
    for _ in range(20):
        w = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        _, grad = dual_objective(w, cons, SPACE_R3, ModelA(2))
        for i in range(2):
            hi = list(w)
            lo = list(w)
            hi[i] += h
            lo[i] -= h
            fd = (
                dual_objective(hi, cons, SPACE_R3, ModelA(2))[0]
                - dual_objective(lo, cons, SPACE_R3, ModelA(2))[0]
            ) / (2 * h)
            assert abs(fd - grad[i]) < 1e-5


def test_dual_is_concave_along_random_segments():
    cons = _constraints([("forall X, Y: ~e(X,Y) | e(Y,X)", Fraction(1, 2))])
    rng = random.Random(3)
    for _ in range(30):
        w0 = [rng.uniform(-3, 3)]
        w1 = [rng.uniform(-3, 3)]
        mid = [(a + b) / 2 for a, b in zip(w0, w1)]
        v0 = dual_objective(w0, cons, SPACE_E2, MODEL_B)[0]
        v1 = dual_objective(w1, cons, SPACE_E2, MODEL_B)[0]
        vm = dual_objective(mid, cons, SPACE_E2, MODEL_B)[0]
        assert vm >= (v0 + v1) / 2 - 1e-9


# ---------------------------------------------------------------------------
# solver correctness

def test_solver_frozen_reference_instances():
    cons = _constraints([("exists X: r(X)", Fraction(2, 3))])
    model = solve_maxent(cons, SPACE_R3, ModelA(2))
    assert model.grad_norm < 1e-9
    assert abs(model.achieved_marginals[0] - 2 / 3) < 1e-8
    # Z = 1 + 3e^{2w} + 4e^{3w} and a mean count of 2 give e^{3w} = 1/2
    assert model.weights[0] == pytest.approx(-math.log(2) / 3, abs=1e-14)
    assert model.log_partition == pytest.approx(1.5871680853694907, abs=1e-9)

    cons_b = _constraints([("forall X: r(X)", Fraction(2, 3))])
    model_b = solve_maxent(cons_b, SPACE_R3, MODEL_B)
    # independent atoms: the weight is the log odds of a 2/3 atom marginal
    # and the partition sums (1 + e^w)^3 = 27
    assert model_b.weights[0] == pytest.approx(math.log(2), abs=1e-9)
    assert model_b.log_partition == pytest.approx(math.log(27), abs=1e-9)


def test_solver_achieves_requested_marginals():
    cases = [
        (_constraints([("exists X: r(X)", Fraction(1, 2))]), SPACE_R3, ModelA(1)),
        (_constraints([("exists X: r(X)", Fraction(3, 5)), ("forall X: r(X)", Fraction(1, 5))]),
         SPACE_R3, ModelA(3)),
        (_constraints([("forall X, Y: ~e(X,Y) | e(Y,X)", Fraction(7, 10))]), SPACE_E2, MODEL_B),
    ]
    for cons, space, kind in cases:
        model = solve_maxent(cons, space, kind)
        for c, achieved in zip(cons, model.achieved_marginals):
            assert abs(achieved - float(c.theta)) < 1e-7


def test_solver_agrees_with_primal_oracle():
    cons = _constraints([("exists X: r(X)", Fraction(2, 3)), ("forall X: r(X)", Fraction(1, 3))])
    model = solve_maxent(cons, SPACE_R3, ModelA(2))
    dual_dist = model_distribution(model)
    primal_dist = primal_solve_oracle(cons, SPACE_R3, ModelA(2))
    assert total_variation(dual_dist, primal_dist) < 1e-5


def test_model_distribution_is_normalized():
    cons = _constraints([("forall X, Y: ~e(X,Y)", Fraction(1, 3))])
    model = solve_maxent(cons, SPACE_E2, MODEL_B)
    dist = model_distribution(model)
    assert abs(sum(dist.probs) - 1.0) < 1e-12
    # the log partition normalizes the exponential form
    counts = SPACE_E2.count_matrix(model.formulas, MODEL_B)
    total = sum(math.exp(float(row @ model.weights) - model.log_partition) for row in counts)
    assert abs(total - 1.0) < 1e-9


def test_model_is_exponential_family_over_counts():
    # P(world) must be proportional to exp(sum_i w_i * count_i(world))
    cons = _constraints([
        ("forall X, Y: ~e(X,Y) | e(Y,X)", Fraction(5, 6)),
        ("forall X, Y: X = Y | e(X,Y)", Fraction(1, 2)),
    ])
    model = solve_maxent(cons, SPACE_E2, MODEL_B)
    counts = SPACE_E2.count_matrix(model.formulas, MODEL_B)
    probs = model_distribution(model).probs
    for idx in range(len(SPACE_E2)):
        score = float(counts[idx] @ model.weights)
        expected = math.exp(score - model.log_partition)
        assert probs[idx] == pytest.approx(expected, rel=1e-12)


def test_solver_respects_hard_rules():
    rule = parse_formula("forall X, Y: ~e(X,Y) | e(Y,X)")
    space = enumerate_worlds(["a", "b"], {"e": 2}, [rule])
    cons = _constraints([("exists X, Y: X != Y & e(X,Y)", Fraction(1, 2))])
    model = solve_maxent(cons, space, ModelA(2))
    dist = model_distribution(model)
    assert abs(sum(dist.probs) - 1.0) < 1e-12
    for bits in space.worlds:
        atoms = space.world_atoms(int(bits))
        assert all(
            any(a.pred == "e" and a.args == (y, x) for a in atoms)
            for x, y in [at.args for at in atoms if at.pred == "e"]
        )


def test_solver_fits_a_twenty_atom_space():
    # 16 e-atoms and 4 r-atoms; the rule removes one of 32 patterns per
    # constant, leaving 31^4 worlds
    rule = parse_formula("forall X: r(X) | (exists Y: e(X,Y))")
    space = enumerate_worlds(["c1", "c2", "c3", "c4"], {"e": 2, "r": 1}, [rule])
    assert len(space.atoms) == 20
    assert len(space) == 31 ** 4
    cons = _constraints([
        ("exists X, Y: e(X,Y) & r(Y)", Fraction(1, 2)),
        ("forall X, Y: ~e(X,Y) | e(Y,X)", Fraction(1, 3)),
    ])
    model = solve_maxent(cons, space, ModelA(2))
    assert model.achieved_marginals == pytest.approx((0.5, 1 / 3), abs=1e-9)
    # the Newton loop reads 49 distinct count rows, one for every 18,847
    # worlds on average
    distinct = space.distinct_rows(model.formulas, ModelA(2))
    assert len(distinct.rows) == 49
    assert int(distinct.multiplicity.sum()) == 31 ** 4


# ---------------------------------------------------------------------------
# unrealizable targets

def test_boundary_target_raises_when_weights_escape(monkeypatch):
    # theta = 1 forces the point mass on the all-true world; with a low cap
    # the Newton steps overrun it and the diagnosis recognizes a boundary target
    monkeypatch.setattr(maxent, "WEIGHT_CAP", 20.0)
    cons = _constraints([("forall X: r(X)", Fraction(1))])
    with pytest.raises(NotRealizableError) as exc:
        solve_maxent(cons, SPACE_R3, MODEL_B)
    assert exc.value.boundary
    assert exc.value.distance == pytest.approx(0.0, abs=1e-9)
    assert exc.value.theta == (1.0,)


def test_boundary_target_below_cap_converges_to_extreme_weights():
    # under the default cap the same target is achieved to float precision;
    # the returned weights are the numeric stand-in for the limit model
    cons = _constraints([("forall X: r(X)", Fraction(1))])
    model = solve_maxent(cons, SPACE_R3, MODEL_B)
    assert model.weights[0] > 20
    assert model.achieved_marginals[0] == pytest.approx(1.0, abs=1e-12)


def test_infeasible_target_raises_with_distance():
    # pigeonhole: 3 constants, irreflexive symmetric-free "one edge each" style
    # conflict via contradictory marginals on the same formula family
    cons = _constraints([
        ("exists X: r(X)", Fraction(0)),
        ("forall X: r(X)", Fraction(1, 2)),
    ])
    with pytest.raises(NotRealizableError) as exc:
        solve_maxent(cons, SPACE_R3, ModelA(3))
    assert not exc.value.boundary
    assert exc.value.distance > 0.01


def test_weight_cap_controls_escape(monkeypatch):
    monkeypatch.setattr(maxent, "WEIGHT_CAP", 10.0)
    cons = _constraints([("forall X: r(X)", Fraction(1))])
    with pytest.raises(NotRealizableError) as exc:
        solve_maxent(cons, SPACE_R3, MODEL_B)
    assert "weights exceeded the cap 10.0" in str(exc.value)


@pytest.mark.parametrize("kind", [ModelA(1), MODEL_B])
def test_zero_target_keeps_the_last_iterate_under_the_cap(kind):
    # theta = 0 drives the weight to -infinity and the gradient never reaches
    # exactly zero; once it is below tol the iterate under the cap is the fit
    cons = _constraints([("forall X: r(X)" if kind == MODEL_B else "exists X: r(X)", 0)])
    model = solve_maxent(cons, SPACE_R3, kind)
    assert model.grad_norm < 1e-9
    assert -50.0 <= model.weights[0] < -20
    assert model.achieved_marginals[0] == pytest.approx(0.0, abs=1e-12)


VERDICT_SPACES = [
    SPACE_R3,
    SPACE_E2,
    enumerate_worlds(["a", "b"], {"r": 1, "e": 2}),
    enumerate_worlds([f"c{i}" for i in range(8)], {"r": 1}),
]


def _kind_and_formulas(draw, space):
    """Model A at a width of 1-3 or Model B, and 1-3 formulas of the pools
    over the space's vocabulary."""
    n = len(space.constants)
    if draw(st.booleans()):
        kind, pool = ModelA(draw(st.integers(1, min(n, 3)))), A_POOL
    else:
        kind, pool = MODEL_B, [t for t in B_POOL if n >= 3 or "Z" not in t]
    pool = [t for t in pool if set(re.findall(r"(\w+)\(", t)) <= set(space.vocabulary)]
    return kind, [parse_formula(t) for t in
                  draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))]


@st.composite
def verdict_cases(draw):
    """A space of at most 2^8 worlds, 1-3 formulas over its vocabulary, and a
    target: a full-support mixture of world statistics, a lattice point, or
    one world's statistics."""
    space = draw(st.sampled_from(VERDICT_SPACES))
    kind, formulas = _kind_and_formulas(draw, space)
    counts = space.count_matrix(formulas, kind)
    norms = space.normalizers(formulas, kind)
    shape = draw(st.sampled_from(["mixture", "lattice", "vertex"]))
    if shape == "mixture":
        weights = draw(st.lists(st.integers(1, 9), min_size=len(space), max_size=len(space)))
        theta = [
            Fraction(sum(w * int(c) for w, c in zip(weights, counts[:, i])),
                     sum(weights) * int(norms[i]))
            for i in range(len(formulas))
        ]
    elif shape == "lattice":
        theta = [Fraction(draw(st.integers(0, 12)), 12) for _ in formulas]
    else:
        row = counts[draw(st.integers(0, len(space) - 1))]
        theta = [Fraction(int(c), int(nm)) for c, nm in zip(row, norms)]
    return space, kind, formulas, theta, shape


@settings(max_examples=60, deadline=None)
@given(verdict_cases())
def test_solver_verdicts_follow_the_polytope(case):
    space, kind, formulas, theta, shape = case
    cons = tuple(MarginalConstraint(f, t) for f, t in zip(formulas, theta))
    distance = realizability_check(theta, formulas, space, kind).distance
    try:
        model = solve_maxent(cons, space, kind)
    except NotRealizableError as exc:
        assert shape != "mixture"
        if distance > 1e-6:
            assert not exc.boundary
        if shape == "vertex":
            assert exc.boundary
        return
    assert distance <= 1e-6
    assert model.grad_norm < 1e-9
    if shape == "mixture":
        assert model.iterations <= 100


# ---------------------------------------------------------------------------
# the fit over distinct rows against the fit over worlds

ROW_SPACES = VERDICT_SPACES + [
    enumerate_worlds(["a", "b"], {"e": 2}, [parse_formula("forall X, Y: ~e(X,Y) | e(Y,X)")]),
    enumerate_worlds(
        ["a", "b"], {"r": 1, "e": 2}, [parse_formula("forall X: r(X) | (exists Y: e(X,Y))")]
    ),
    enumerate_worlds([f"c{i}" for i in range(8)], {"r": 1}, [parse_formula("exists X: r(X)")]),
]


@st.composite
def row_fit_cases(draw):
    """A space of at most 2^8 worlds, with or without a hard rule, 1-3
    formulas under Model A (widths 1-3) or Model B, and targets: the
    marginals of a model with random weights in [-2, 2] on the statistics
    (the counts over their normalizers), or a lattice point outside the
    polytope.  Weights on the statistics keep the world probabilities
    within a factor e^6 of each other, so the targets stay away from the
    boundary, where weights that meet the tolerance are ill-conditioned."""
    space = draw(st.sampled_from(ROW_SPACES))
    kind, formulas = _kind_and_formulas(draw, space)
    counts = space.count_matrix(formulas, kind).astype(float)
    norms = space.normalizers(formulas, kind)
    if draw(st.booleans()):
        w = np.array(draw(st.lists(st.floats(-2, 2), min_size=len(formulas),
                                   max_size=len(formulas))))
        scores = counts @ (w / norms)
        p = np.exp(scores - scores.max())
        theta = [Fraction(min(max(float(t), 0.0), 1.0)) for t in (counts.T @ (p / p.sum())) / norms]
    else:
        theta = [Fraction(draw(st.integers(0, 12)), 12) for _ in formulas]
        assume(realizability_check(theta, formulas, space, kind).distance > 1e-6)
    return space, kind, tuple(MarginalConstraint(f, t) for f, t in zip(formulas, theta))


@settings(max_examples=80, deadline=None)
@given(row_fit_cases())
def test_the_fit_over_rows_matches_the_fit_over_worlds(case):
    space, kind, cons = case
    try:
        weights, log_partition, achieved, probs = oracles.solve_maxent(cons, space, kind)
    except NotRealizableError as want:
        with pytest.raises(NotRealizableError) as got:
            solve_maxent(cons, space, kind)
        assert got.value.boundary == want.boundary
        assert got.value.distance == want.distance
        return
    model = solve_maxent(cons, space, kind)
    # weights, and with them log Z, are unique up to directions along which
    # every world's counts agree (a column that the hard rules fix, or equal
    # columns): along those, lstsq's rank cut-off reads rounding-level
    # covariances differently over rows and over worlds.  So the log
    # probabilities of the worlds agree, and the weights agree when the
    # counts leave no such direction.
    counts = space.count_matrix(model.formulas, kind)
    log_p = counts @ model.weights - model.log_partition
    assert np.abs(log_p - (counts @ weights - log_partition)).max() <= 1e-9
    if np.linalg.matrix_rank(counts - counts[0]) == len(cons):
        assert np.abs(model.weights - weights).max() <= 1e-9
    assert np.abs(np.array(model.achieved_marginals) - achieved).max() <= 1e-9
    dist = np.array(model_distribution(model).probs)
    assert np.abs(dist - probs).max() <= 1e-12
    assert abs(dist.sum() - 1) <= 1e-12


# ---------------------------------------------------------------------------
# duality report

def test_duality_check_on_training_example():
    train = GlobalExample(["a", "b", "c"], [("r", ("a",)), ("r", ("b",))], {"r": 1})
    report = log_likelihood_duality_check(train, [parse_formula("exists X: r(X)")],
                                          ModelA(2), SPACE_R3)
    assert report.passed
    assert report.grad_inf_norm < 1e-6
    assert report.dual_value == pytest.approx(report.log_likelihood, abs=1e-8)


def test_duality_check_on_vertex_training_example():
    # all-true training statistics sit on a vertex; the fitted weights go
    # extreme but the optimum still matches the (saturated) log-likelihood
    train = GlobalExample(["a", "b", "c"], [("r", (c,)) for c in "abc"], {"r": 1})
    report = log_likelihood_duality_check(train, [parse_formula("forall X: r(X)")],
                                          MODEL_B, SPACE_R3)
    assert report.passed
    assert report.weights[0] > 20
    assert report.log_likelihood == pytest.approx(0.0, abs=1e-9)
    assert report.dual_value == pytest.approx(report.log_likelihood, abs=1e-9)


def test_duality_check_surfaces_solver_diagnosis(monkeypatch):
    import relmarg.maxent as mx

    def raising(*args, **kwargs):
        raise NotRealizableError("escaped", (1.0,), 0.0, True)

    monkeypatch.setattr(mx, "solve_maxent", raising)
    train = GlobalExample(["a", "b", "c"], [("r", (c,)) for c in "abc"], {"r": 1})
    report = mx.log_likelihood_duality_check(train, [parse_formula("forall X: r(X)")],
                                             MODEL_B, SPACE_R3)
    assert not report.realizable
    assert report.boundary
    assert not report.passed
    assert report.advice == "escaped"


def test_duality_check_validates_constants():
    train = GlobalExample(["a", "b"], [("r", ("a",))], {"r": 1})
    with pytest.raises(DomainError):
        log_likelihood_duality_check(train, [parse_formula("exists X: r(X)")],
                                     ModelA(1), SPACE_R3)


@pytest.mark.parametrize("kind", [ModelA(1), ModelA(2), MODEL_B])
def test_duality_check_reads_theta_off_the_training_world(kind):
    # theta is the training world's exact statistic vector, and a training
    # world that the hard rules exclude is refused before any fit, whether
    # or not its statistics are realizable
    train = GlobalExample(["a", "b", "c"], [("r", ("a",))], {"r": 1})
    formulas = [parse_formula(t) for t in ("forall X: r(X)", "forall X, Y: r(X) | r(Y)")]
    report = log_likelihood_duality_check(train, formulas, kind, SPACE_R3)
    assert report.theta == tuple(statistic(f, train, kind) for f in formulas)
    assert all(type(t) is Fraction for t in report.theta)
    nonempty = enumerate_worlds(["a", "b", "c"], {"r": 1}, [parse_formula("exists X: r(X)")])
    empty = GlobalExample(["a", "b", "c"], [], {"r": 1})
    with pytest.raises(DomainError, match="not a world of this space"):
        log_likelihood_duality_check(empty, formulas, kind, nonempty)


# ---------------------------------------------------------------------------
# explicit distributions and shrinking

def test_explicit_distribution_validation():
    with pytest.raises(DomainError):
        ExplicitDistribution(SPACE_E2, (1.0,))
    with pytest.raises(DomainError):
        ExplicitDistribution(SPACE_R3, tuple([Fraction(1, 4)] * 8))
    bad = [Fraction(1, 8)] * 8
    bad[0] = Fraction(-1, 8)
    bad[1] = Fraction(3, 8)
    with pytest.raises(DomainError):
        ExplicitDistribution(SPACE_R3, tuple(bad))


@pytest.mark.parametrize("at", range(4))
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_explicit_distribution_refuses_nan_and_inf(at, value):
    # a NaN compares false both ways, so it must fail both the sign check
    # and the sum check wherever it sits; inf fails the sum check
    space = enumerate_worlds(["a", "b"], {"r": 1})
    probs = [0.25, 0.25, 0.25, 0.25]
    probs[at] = value
    with pytest.raises(DomainError):
        ExplicitDistribution(space, tuple(probs))
    probs[(at + 1) % 4] = math.nan
    with pytest.raises(DomainError):
        ExplicitDistribution(space, tuple(probs))


def test_shrink_preserves_subset_statistics_exactly():
    rng = random.Random(17)
    probs = [Fraction(rng.randint(0, 5)) for _ in SPACE_R3.worlds]
    total = sum(probs)
    probs = [p / total for p in probs]
    dist = ExplicitDistribution(SPACE_R3, tuple(probs))
    small = shrink_distribution(dist, 2)
    assert sum(small.probs, Fraction(0)) == 1
    for text in ("exists X: r(X)", "forall X: r(X)"):
        f = parse_formula(text)
        assert distribution_statistic(small, f, ModelA(2)) == distribution_statistic(
            dist, f, ModelA(2)
        )
    for text in ("forall X: r(X)", "forall X, Y: r(X) | r(Y)"):
        f = parse_formula(text)
        assert distribution_statistic(small, f, MODEL_B) == distribution_statistic(
            dist, f, MODEL_B
        )


def test_shrink_to_full_size_is_identity():
    probs = tuple(Fraction(1, 8) for _ in SPACE_R3.worlds)
    dist = ExplicitDistribution(SPACE_R3, probs)
    same = shrink_distribution(dist, 3)
    assert same.probs == probs


def test_shrink_validates_target_size():
    dist = ExplicitDistribution(SPACE_R3, tuple(Fraction(1, 8) for _ in SPACE_R3.worlds))
    with pytest.raises(DomainError):
        shrink_distribution(dist, 0)
    with pytest.raises(DomainError):
        shrink_distribution(dist, 4)


SHRINK_SPACES = [
    enumerate_worlds(["a", "b", "c"], {"r": 1, "s": 1, "q": 0},
                     [parse_formula("forall X: r(X) | s(X)")]),
    enumerate_worlds(["a", "b"], {"e": 2, "q": 0}, [parse_formula("exists X: e(X,X)")]),
    enumerate_worlds(["a", "b", "c"], {"e": 2}),
    enumerate_worlds(["a", "b", "c", "d"], {"r": 1, "q": 0}, [parse_formula("exists X: r(X)")]),
    enumerate_worlds(["a", "b"], {"r": 1, "e": 2, "q": 0},
                     [parse_formula("forall X, Y: ~e(X,Y) | r(X)")]),
]


@st.composite
def shrink_cases(draw):
    """A space of ``SHRINK_SPACES``, a target size in 1..n, and integer
    world weights with zeros among them."""
    space = draw(st.sampled_from(SHRINK_SPACES))
    m = draw(st.integers(1, len(space.constants)))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(space), max_size=len(space)))
    return space, m, weights


def _distribution_of(space, weights, exact):
    total = sum(weights)
    return ExplicitDistribution(
        space, tuple(Fraction(w, total) if exact else w / total for w in weights)
    )


@settings(max_examples=80, deadline=None)
@given(shrink_cases().filter(lambda case: any(case[2])), st.booleans())
def test_shrink_matches_the_atom_walk(case, exact):
    space, m, weights = case
    dist = _distribution_of(space, weights, exact)
    small = shrink_distribution(dist, m)
    target, expected = oracles.shrink_probabilities(dist, m)
    assert np.array_equal(small.space.worlds, target.worlds)
    assert small.space.atoms == target.atoms
    if exact:
        assert all(isinstance(p, Fraction) for p in small.probs)
        assert list(small.probs) == expected
    else:
        assert max(abs(a - b) for a, b in zip(small.probs, expected)) <= 1e-12


@pytest.mark.parametrize("cells", [1, 7])
def test_blocked_shrink_matches_one_block(monkeypatch, cells):
    rng = random.Random(cells)
    for space in (SHRINK_SPACES[0], SHRINK_SPACES[3]):
        weights = [rng.randrange(0, 3) for _ in space.worlds]
        for exact in (True, False):
            dist = _distribution_of(space, weights, exact)
            sizes = range(1, len(space.constants) + 1)
            whole = [shrink_distribution(dist, m).probs for m in sizes]
            with monkeypatch.context() as patch:
                patch.setattr(stats, "BLOCK_CELLS", cells)
                blocked = [shrink_distribution(dist, m).probs for m in sizes]
            for got, want in zip(blocked, whole):
                if exact:
                    assert got == want
                else:
                    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_total_variation_requires_shared_space():
    d1 = ExplicitDistribution(SPACE_R3, tuple(Fraction(1, 8) for _ in SPACE_R3.worlds))
    d2 = ExplicitDistribution(SPACE_E2, tuple(Fraction(1, 16) for _ in SPACE_E2.worlds))
    with pytest.raises(DomainError):
        total_variation(d1, d2)
    assert total_variation(d1, d1) == 0.0


def test_total_variation_compares_the_atoms_of_two_spaces():
    # two spaces with the same bit patterns over different atoms
    a = enumerate_worlds(["a", "b"], {"r": 1})
    b = enumerate_worlds(["x", "y"], {"s": 1})
    assert np.array_equal(a.worlds, b.worlds)
    d1 = ExplicitDistribution(a, (0.25, 0.25, 0.25, 0.25))
    d2 = ExplicitDistribution(b, (0.25, 0.25, 0.25, 0.25))
    with pytest.raises(DomainError, match="different world spaces"):
        total_variation(d1, d2)
    # a space built again over the same atoms is the same space
    d3 = ExplicitDistribution(enumerate_worlds(["a", "b"], {"r": 1}), (0.5, 0.5, 0.0, 0.0))
    assert total_variation(d1, d3) == 0.5


def test_distribution_statistic_is_mixture_of_world_statistics():
    f = parse_formula("exists X: r(X)")
    point = [Fraction(0)] * len(SPACE_R3)
    target = GlobalExample(["a", "b", "c"], [("r", ("a",))], {"r": 1})
    point[SPACE_R3.world_index(SPACE_R3.encode(target))] = Fraction(1)
    dist = ExplicitDistribution(SPACE_R3, tuple(point))
    assert distribution_statistic(dist, f, ModelA(2)) == statistic(f, target, ModelA(2))


SPACE_RE2 = enumerate_worlds(["a", "b"], {"r": 1, "e": 2})


def _per_world_mixture(dist, f, kind):
    """The definition: sum over worlds of p(world) * statistic(f, world)."""
    space = dist.space
    return sum(
        (p * statistic(f, space.world_example(int(bits)), kind)
         for p, bits in zip(dist.probs, space.worlds)),
        Fraction(0),
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=len(SPACE_RE2), max_size=len(SPACE_RE2)).filter(any),
    st.sampled_from(
        [(t, ModelA(k)) for t in A_POOL for k in (1, 2)]
        + [(t, MODEL_B) for t in B_POOL if "Z" not in t]
    ),
    st.booleans(),
)
def test_distribution_statistic_matches_per_world_definition(weights, case, exact):
    text, kind = case
    f = parse_formula(text)
    dist = _distribution_of(SPACE_RE2, weights, exact)
    mixture = distribution_statistic(dist, f, kind)
    if exact:
        assert mixture == _per_world_mixture(dist, f, kind)
    else:
        assert abs(mixture - _per_world_mixture(dist, f, kind)) <= 1e-12
