"""Max-entropy distributions over world spaces, fitted through the dual.

The model family is log-linear in the unnormalized statistic counts

    P(world) = exp(sum_i w_i * s_i(world)) / Z(w),

and fitting marginal targets theta_i means maximizing the concave dual

    g(w) = sum_i w_i * theta_i * N_i - log Z(w)

where N_i is the statistic normalizer (subset count or substitution count).
The gradient is theta_i * N_i - E_w[s_i], so a stationary point matches the
targets exactly, and the Hessian is minus the covariance of the counts.  The
dual has one weight per constraint, so ``solve_maxent`` runs plain damped
Newton on it from w = 0.  Weights that run away signal a target on or outside
the marginal polytope; the raised error carries the hull diagnosis.

A deliberately independent primal oracle (mirror ascent on the penalized
entropy objective, plus an exact projection onto the constraint plane) is
kept around to cross-check the dual route.

``shrink_distribution`` reads every size-m subset of every world as a
target world at its key over the target space's layout, the width-m
``stats.PatternLayout`` that its worlds follow (the one key reader,
``stats.pattern_keys``), and both it and
``distribution_statistic`` sum exact probabilities as integer numerators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .data import GlobalExample
from .errors import CapExceededError, DomainError, InfeasibleError, NotRealizableError
from .logic import Formula
from .polytope import realizability_check
from . import stats
from .stats import MarginalConstraint, ModelKind
from .worlds import WorldSpace, enumerate_worlds, world_tables

PRIMAL_WORLD_CAP = 1 << 16
TOL = 1e-9  # gradient max-norm at which a fit is done
WEIGHT_CAP = 50.0


@dataclass
class MaxEntModel:
    kind: ModelKind
    constraints: tuple[MarginalConstraint, ...]
    space: WorldSpace
    weights: np.ndarray
    log_partition: float
    iterations: int
    grad_norm: float
    achieved_marginals: tuple[float, ...]

    @property
    def formulas(self) -> tuple[Formula, ...]:
        return tuple(c.formula for c in self.constraints)


@dataclass
class ExplicitDistribution:
    """A probability vector aligned with ``space.worlds``; entries may be
    floats or exact Fractions."""

    space: WorldSpace
    probs: tuple

    def __post_init__(self):
        self.probs = tuple(self.probs)
        if len(self.probs) != len(self.space):
            raise DomainError(
                f"{len(self.probs)} probabilities for {len(self.space)} worlds"
            )
        weights, denom = self.weights
        # written so that a NaN fails both checks
        if not (weights >= 0).all():
            raise DomainError("negative or NaN probability")
        total = _ratio(weights.sum(), denom)
        if not abs(total - 1) <= (0 if weights.dtype == object else 1e-9):
            raise DomainError(f"probabilities sum to {total}, not 1")

    @functools.cached_property
    def weights(self) -> tuple[np.ndarray, int]:
        """``_weights`` of the probabilities, computed once."""
        return _weights(self.probs)

    def as_floats(self) -> np.ndarray:
        return np.array([float(p) for p in self.probs], dtype=float)

    def entropy(self) -> float:
        p = self.as_floats()
        nz = p[p > 0]
        return float(-(nz * np.log(nz)).sum())


def _features(constraints, space, kind):
    if len(space) == 0:
        raise DomainError("empty world space (hard rules unsatisfiable)")
    formulas = tuple(c.formula for c in constraints)
    counts = space.count_matrix(formulas, kind).astype(float)
    norms = space.normalizers(formulas, kind).astype(float)
    theta = np.array([float(c.theta) for c in constraints], dtype=float)
    return counts, norms, theta


def _distribution(counts: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Log partition function and world probabilities of the model at ``w``."""
    scores = counts @ w
    shift = scores.max()
    weights = np.exp(scores - shift)
    total = weights.sum()
    return float(shift + np.log(total)), weights / total


def dual_objective(
    w: Sequence[float], constraints: Sequence[MarginalConstraint], space: WorldSpace, kind: ModelKind
) -> tuple[float, np.ndarray]:
    """Value and gradient of the concave dual at ``w``."""
    counts, norms, theta = _features(constraints, space, kind)
    w = np.asarray(w, dtype=float)
    target = theta * norms
    lse, p = _distribution(counts, w)
    return float(w @ target) - lse, target - counts.T @ p


def solve_maxent(
    constraints: Sequence[MarginalConstraint],
    space: WorldSpace,
    kind: ModelKind,
    max_iter: int = 20000,
) -> MaxEntModel:
    """Fit weights by damped Newton on the dual, starting from w = 0.

    The dual's Hessian is minus the feature covariance, so the Newton
    direction (a least-squares solve, which tolerates dependent features)
    lowers the gradient norm; a step is accepted when it does.  Until the
    gradient's max-norm falls below ``TOL`` (1e-9) the step is halved up to
    60 times; after that only full steps are tried, which polishes interior
    fits to rounding level and lets fits at the polytope boundary run on
    until the gradient underflows.  The loop stops at a zero gradient, when
    no tried step helps, after ``max_iter`` iterations, or when a full step
    from an iterate that meets ``TOL`` would take a weight past
    ``WEIGHT_CAP`` (50) in absolute value; that iterate is returned.  Weights
    past ``WEIGHT_CAP`` before ``TOL`` is met, or a gradient left at ``TOL``
    or above, raise ``NotRealizableError`` with the hull diagnosis.
    """
    if not max_iter >= 1:  # refuses NaN too
        raise DomainError(f"solver needs max_iter >= 1; got max_iter={max_iter}")
    constraints = tuple(constraints)
    if not constraints:
        raise DomainError("no constraints to fit")
    counts, norms, theta = _features(constraints, space, kind)
    target = theta * norms

    w = np.zeros(len(constraints))
    lse, p = _distribution(counts, w)
    mean = counts.T @ p
    grad = target - mean
    iterations = 0
    while iterations < max_iter and grad.any():
        cov = (counts * p[:, None]).T @ counts - np.outer(mean, mean)
        direction = np.linalg.lstsq(cov, grad, rcond=None)[0]
        norm = np.linalg.norm(grad)
        polishing = np.abs(grad).max() < TOL
        for _ in range(1 if polishing else 60):
            trial_lse, trial_p = _distribution(counts, w + direction)
            trial_mean = counts.T @ trial_p
            if np.linalg.norm(target - trial_mean) < norm:
                break
            direction = direction / 2.0
        else:
            break
        if float(np.abs(w + direction).max()) > WEIGHT_CAP:
            if polishing:
                break  # the current iterate already meets TOL under the cap
            _raise_not_realizable(constraints, space, kind)
        iterations += 1
        w = w + direction
        lse, p, mean = trial_lse, trial_p, trial_mean
        grad = target - mean
    grad_norm = float(np.abs(grad).max())
    if grad_norm >= TOL:
        _raise_not_realizable(constraints, space, kind, stalled=True)
    return MaxEntModel(
        kind,
        constraints,
        space,
        w,
        lse,
        iterations,
        grad_norm,
        tuple(float(x) for x in mean / norms),
    )


def _raise_not_realizable(constraints, space, kind, stalled=False):
    theta = [c.theta for c in constraints]
    verdict = realizability_check(theta, [c.formula for c in constraints], space, kind)
    if verdict.realizable:
        reason = (
            "the dual stalled before reaching the gradient tolerance"
            if stalled
            else f"weights exceeded the cap {WEIGHT_CAP}"
        )
        message = (
            f"no finite-weight model: {reason}; the target lies on the polytope "
            f"boundary (hull distance {verdict.distance:.3g}), so only distributions "
            "without full support match it; estimate the targets from a noisy "
            "expansion to move them inside"
        )
    else:
        message = (
            f"target marginals are not realizable at domain size "
            f"{len(space.constants)}: hull distance {verdict.distance:.6g}"
        )
    raise NotRealizableError(
        message, [float(t) for t in theta], verdict.distance, verdict.realizable
    )


def model_distribution(model: MaxEntModel) -> ExplicitDistribution:
    counts = model.space.count_matrix(model.formulas, model.kind)
    _, p = _distribution(counts.astype(float), model.weights)
    return ExplicitDistribution(model.space, tuple(float(x) for x in p))


# ---------------------------------------------------------------------------
# primal oracle

def primal_solve_oracle(
    constraints: Sequence[MarginalConstraint],
    space: WorldSpace,
    kind: ModelKind,
) -> ExplicitDistribution:
    """Independent primal route: maximize entropy subject to the marginal
    constraints directly over the probability simplex.

    Mirror (exponentiated-gradient) ascent on an increasingly penalized
    objective, warm-started across the penalty schedule, then an exact
    Euclidean projection onto the affine constraint set.  Infeasible targets
    show up as a residual that refuses to shrink.
    """
    constraints = tuple(constraints)
    if len(space) > PRIMAL_WORLD_CAP:
        raise CapExceededError(
            f"primal oracle supports up to {PRIMAL_WORLD_CAP} worlds, got {len(space)}",
            len(space),
            PRIMAL_WORLD_CAP,
        )
    counts, norms, theta = _features(constraints, space, kind)
    a = (counts / norms).T  # h x W, rows are normalized statistics
    n_worlds = a.shape[1]
    if n_worlds == 1:
        residual = float(np.abs(a[:, 0] - theta).max())
        if residual > 1e-9:
            raise InfeasibleError(f"single-world space misses the target by {residual:.3g}")
        return ExplicitDistribution(space, (1.0,))
    sigma_sq = float(np.linalg.eigvalsh(a @ a.T).max())
    p = np.full(n_worlds, 1.0 / n_worlds)
    residual = float(np.abs(a @ p - theta).max())
    for mu in (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8):
        eta = 1.0 / (mu * sigma_sq + 1.0)
        for _ in range(4000):
            r = a @ p - theta
            grad = mu * (a.T @ r)
            z = (np.log(np.maximum(p, 1e-300)) - eta * grad) / (1.0 + eta)
            z -= z.max()
            new_p = np.exp(z)
            new_p /= new_p.sum()
            moved = float(np.abs(new_p - p).sum())
            p = new_p
            if moved < 1e-15:
                break
        new_residual = float(np.abs(a @ p - theta).max())
        if new_residual > 1e-3 and new_residual > 0.9 * residual and mu >= 1e4:
            raise InfeasibleError(
                f"feasibility phase stalled at residual {new_residual:.6g}; "
                "the targets are not realizable over this world space"
            )
        residual = new_residual
    if residual > 1e-3:
        raise InfeasibleError(
            f"feasibility phase did not converge (residual {residual:.6g})"
        )
    # exact projection onto {A p = theta, sum p = 1}
    b = np.vstack([a, np.ones(n_worlds)])
    c = np.concatenate([theta, [1.0]])
    y, *_ = np.linalg.lstsq(b @ b.T, b @ p - c, rcond=None)
    p = p - b.T @ y
    if p.min() < -1e-6:
        raise InfeasibleError(
            f"projection left the simplex (min coordinate {p.min():.3g}); "
            "the targets sit outside the polytope"
        )
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    final = float(np.abs(a @ p - theta).max())
    if final > 1e-8:
        raise InfeasibleError(f"projected distribution misses the target by {final:.3g}")
    return ExplicitDistribution(space, tuple(float(x) for x in p))


# ---------------------------------------------------------------------------
# duality check

@dataclass(frozen=True)
class DualityReport:
    theta: tuple
    weights: tuple[float, ...]
    dual_value: float
    log_likelihood: float
    grad_inf_norm: float
    realizable: bool
    hull_distance: float
    boundary: bool
    advice: str | None

    @property
    def passed(self) -> bool:
        return self.realizable and self.grad_inf_norm < 1e-6


def log_likelihood_duality_check(
    train: GlobalExample,
    formulas: Sequence[Formula],
    kind: ModelKind,
    space: WorldSpace,
) -> DualityReport:
    """Fit the training example's own statistics and confirm the dual optimum
    is the maximum-likelihood point: the log-likelihood gradient of the
    training world must vanish at the returned weights.

    A training world whose statistics sit on the polytope boundary has no
    finite-weight maximum-likelihood model; that case is reported, not raised,
    together with the hull diagnosis.
    """
    if set(train.constants) != set(space.constants):
        raise DomainError(
            "training example and world space must share one constant set "
            f"({len(train.constants)} vs {len(space.constants)} constants)"
        )
    formulas = tuple(formulas)
    # the training world's row of the count matrix, which the solver reads
    # too, gives its statistics and its log-likelihood terms
    counts = space.count_matrix(formulas, kind)
    row = counts[space.world_index(space.encode(train))]
    norms = space.normalizers(formulas, kind)
    theta = tuple(Fraction(int(c), int(n)) for c, n in zip(row, norms))
    constraints = tuple(MarginalConstraint(f, t) for f, t in zip(formulas, theta))
    try:
        model = solve_maxent(constraints, space, kind)
    except NotRealizableError as exc:
        return DualityReport(
            theta,
            (),
            float("nan"),
            float("nan"),
            float("inf"),
            False,
            exc.distance,
            exc.boundary,
            str(exc),
        )
    counts, row = counts.astype(float), row.astype(float)
    theta_f = np.array([float(t) for t in theta])
    lse, p = _distribution(counts, model.weights)
    ll = float(row @ model.weights) - lse
    ll_grad = row - counts.T @ p
    dual_value = float(model.weights @ (theta_f * norms.astype(float))) - lse
    return DualityReport(
        theta,
        tuple(float(x) for x in model.weights),
        dual_value,
        ll,
        float(np.abs(ll_grad).max()),
        True,
        0.0,
        False,
        None,
    )


# ---------------------------------------------------------------------------
# exact shrinking

def shrink_distribution(dist: ExplicitDistribution, m: int) -> ExplicitDistribution:
    """Push a distribution on size-n worlds down to size m by sampling a
    uniform size-m constant subset and relabelling the fragment onto the
    first m constants.  Exact when the input probabilities are exact; all
    width-<=m marginal statistics are preserved.

    Each m-subset's key in every world of nonzero probability
    (``stats.pattern_keys`` over ``worlds.world_tables``, in blocks of at
    most ``stats.BLOCK_CELLS`` cells) is read over the target space's
    layout, whose atom order its worlds follow.  The target has no hard
    rules, so a key is its target world's index, where the world's
    probability goes.
    """
    src = dist.space
    n = len(src.constants)
    if not 1 <= m <= n:
        raise DomainError(f"target size {m} outside 1..{n}")
    target = enumerate_worlds(src.constants[:m], src.vocabulary)
    weights, denom = dist.weights
    live = np.flatnonzero(weights)
    layout = target.layout
    mass = np.zeros(len(target), dtype=weights.dtype)
    step = max(1, stats.BLOCK_CELLS // max(len(layout.local), 1))
    for start in range(0, len(live), step):
        chunk = live[start:start + step]
        tables = world_tables(src.worlds[chunk], src.layout, src.vocabulary)
        subsets = stats.grounding_rows(stats.ModelA(m), m, n)  # a stream is read once
        for keys in stats.pattern_keys(tables, layout, subsets, len(chunk)):
            # one value per index: numpy 2.4's add.at misreads broadcast values
            np.add.at(mass, keys.ravel(), np.tile(weights[chunk], len(keys)))
    total = denom * math.comb(n, m)
    return ExplicitDistribution(target, tuple(_ratio(x, total) for x in mass.tolist()))


def distribution_statistic(dist: ExplicitDistribution, f: Formula, kind: ModelKind):
    """Mixture statistic E_dist[statistic(f, world)]; exact for exact inputs.

    One dot product of the probabilities with the space's cached count
    matrix column, over the statistic's normalizer.
    """
    counts = dist.space.count_matrix((f,), kind)[:, 0]
    norm = int(dist.space.normalizers((f,), kind)[0])
    weights, denom = dist.weights
    return _ratio(weights @ counts, denom * norm)


def _weights(probs) -> tuple[np.ndarray, int]:
    """``probs`` as an array and a common denominator: integer numerators
    (object dtype) over the least common denominator when every entry is a
    ``Fraction`` or an ``int``, floats over 1 otherwise."""
    if all(isinstance(p, (Fraction, int)) for p in probs):
        denom = math.lcm(*(p.denominator for p in probs))
        numerators = [p.numerator * (denom // p.denominator) for p in probs]
        return np.array(numerators, dtype=object), denom
    return np.array([float(p) for p in probs], dtype=float), 1


def _ratio(numerator, denominator: int):
    """An exact ``Fraction`` for an int numerator, a float otherwise."""
    if isinstance(numerator, int):
        return Fraction(numerator, denominator)
    return numerator / denominator


def total_variation(a: ExplicitDistribution, b: ExplicitDistribution) -> float:
    if a.space is not b.space and not (
        a.space.atoms == b.space.atoms and np.array_equal(a.space.worlds, b.space.worlds)
    ):
        raise DomainError("distributions live on different world spaces")
    return 0.5 * float(np.abs(a.as_floats() - b.as_floats()).sum())
