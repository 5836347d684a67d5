"""Built-in verification suites for every quantitative guarantee the toolkit
makes: worked-example exactness, expansion bounds, solver duality, polytope
realizability, exact shrinking, interiority transfer, estimation error
bounds, and determinism.

Each suite returns fine-grained check results so a failure names the exact
guarantee that broke.  The suites are deterministic: all randomness flows
from fixed seeds.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import GlobalExample, GroundAtom, fragment
from .errors import DomainError, NotRealizableError
from .expansion import (
    expand,
    expanded_statistic,
    expansion_diff_bound,
    gamma,
    mixture_residual,
    noisy_expand,
)
from .fixtures import load_constraints, load_example
from .logic import evaluate, parse_formula, unsatisfied_rules
from .maxent import (
    ExplicitDistribution,
    distribution_statistic,
    dual_objective,
    log_likelihood_duality_check,
    model_distribution,
    primal_solve_oracle,
    shrink_distribution,
    solve_maxent,
    total_variation,
)
from .polytope import (
    eta_interior,
    hull_distance,
    interiority_margin,
    polytope_vertices,
    realizability_check,
)
from .estimation import (
    ExperimentConfig,
    disjoint_sample_estimator,
    effective_sample_size,
    random_structure,
    run_error_experiment,
    sample_subexample,
)
from .stats import (
    MODEL_B,
    MarginalConstraint,
    ModelA,
    formula_width,
    marginal_distribution_a,
    statistic,
)
from .worlds import enumerate_worlds


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: tuple[CheckResult, ...]
    seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        n_ok = sum(c.passed for c in self.checks)
        return f"{self.name}: {status} ({n_ok}/{len(self.checks)} checks, {self.seconds:.1f}s)"

    def as_dict(self) -> dict:
        # no timing here: reports must be byte-identical across runs
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def _check(out: list, name: str, passed: bool, detail: str = "") -> None:
    out.append(CheckResult(name, bool(passed), detail))


# ---------------------------------------------------------------------------
# worked example

def _suite_worked_example() -> list[CheckResult]:
    out: list[CheckResult] = []
    ex = load_example("example1")
    alpha = parse_formula("forall X, Y: ~fr(X,Y) | sm(Y)")
    beta = parse_formula("forall X, Y: ~fr(X,Y) | sm(X) | sm(Y)")
    cases = [
        ("subset stat of alpha", alpha, ModelA(2), Fraction(1, 3)),
        ("subset stat of beta", beta, ModelA(2), Fraction(2, 3)),
        ("substitution stat of alpha", alpha, MODEL_B, Fraction(1, 2)),
        ("substitution stat of beta", beta, MODEL_B, Fraction(2, 3)),
    ]
    for name, f, kind, want in cases:
        got = statistic(f, ex, kind)
        _check(out, name, got == want, f"got {got}, want {want}")
    return out


# ---------------------------------------------------------------------------
# expansion example

def _labeled_marginals(example: GlobalExample, k: int) -> dict:
    """Per-labeling width-k marginal: class mass split uniformly over the
    class's distinct labelings."""
    return {
        form: mass / form.class_size
        for form, mass in marginal_distribution_a(example, k).items()
    }


def _labeled_masses(example: GlobalExample, k: int) -> list[Fraction]:
    """The per-labeling probabilities with multiplicity, largest first."""
    out: list[Fraction] = []
    for form, share in _labeled_marginals(example, k).items():
        out.extend([share] * form.class_size)
    return sorted(out, reverse=True)


def _suite_expansion_example() -> list[CheckResult]:
    out: list[CheckResult] = []
    path = load_example("path")
    grown = expand(path, 2)
    want_atoms = frozenset(
        GroundAtom("e", pair)
        for pair in [
            ("c1", "c2"), ("c2", "c3"), ("c4", "c5"), ("c5", "c6"),
            ("c1", "c5"), ("c2", "c6"), ("c4", "c2"), ("c5", "c3"),
        ]
    )
    _check(
        out,
        "2-level expansion atom set",
        grown.atoms == want_atoms and grown.constants == tuple(f"c{i}" for i in range(1, 7)),
        f"got {sorted(map(str, grown.atoms))}",
    )
    base = _labeled_marginals(path, 2)
    after = _labeled_marginals(grown, 2)
    base_values = _labeled_masses(path, 2)
    after_values = _labeled_masses(grown, 2)
    _check(
        out,
        "width-2 marginals of the expansion",
        after_values == [Fraction(7, 15), Fraction(4, 15), Fraction(4, 15)],
        f"got {[str(v) for v in after_values]}",
    )
    _check(
        out,
        "base width-2 marginals",
        base_values == [Fraction(1, 3)] * 3,
        f"got {[str(v) for v in base_values]}",
    )
    bound = expansion_diff_bound(3, 2)
    diffs = [abs(after[c] - base.get(c, Fraction(0))) for c in after]
    _check(
        out,
        "marginal shifts within the closed-form bound",
        max(diffs) == Fraction(2, 15) and max(diffs) <= bound == Fraction(1, 3),
        f"max shift {max(diffs)}, bound {bound}",
    )
    g = gamma(3, 2, 2)
    _check(out, "overlap fraction", g == Fraction(1, 5), f"got {g}")
    residual = mixture_residual(
        marginal_distribution_a(path, 2), marginal_distribution_a(grown, 2), g
    )
    total = sum(residual.values(), Fraction(0))
    _check(
        out,
        "mixture residual is a distribution",
        all(v >= 0 for v in residual.values()) and total == 1,
        f"sum {total}, min {min(residual.values())}",
    )
    # a hard rule can be lost in expansion; the toolkit must report it
    pair = GlobalExample(["c1", "c2"], [("fr", ("c1", "c2")), ("fr", ("c2", "c1"))])
    rule = parse_formula("forall X, Y: X = Y | fr(X,Y)")
    grown_pair = expand(pair, 2)
    violated = unsatisfied_rules([rule], grown_pair)
    _check(
        out,
        "expansion hard-rule violation is reported",
        evaluate(rule, pair) and violated == [rule],
        f"violations: {[str(v) for v in violated]}",
    )
    return out


# ---------------------------------------------------------------------------
# duality

_DUALITY_POOLS = [
    (3, {"r": 1, "e": 2}, [
        "exists X: r(X)",
        "forall X, Y: ~e(X,Y) | e(Y,X)",
        "exists X, Y: X != Y & e(X,Y)",
        "forall X, Y: ~r(X) | ~e(X,Y)",
    ]),
    (4, {"r": 1, "s": 1}, [
        "exists X: r(X) & s(X)",
        "forall X: r(X) | s(X)",
        "exists X, Y: X != Y & r(X) & s(Y)",
        "forall X, Y: ~r(X) | ~s(Y)",
    ]),
    (5, {"r": 1}, [
        "exists X: r(X)",
        "forall X: r(X)",
        "exists X, Y: X != Y & r(X) & ~r(Y)",
    ]),
]

_DUALITY_B_POOLS = [
    (3, {"r": 1, "e": 2}, [
        "forall X: r(X)",
        "forall X, Y: ~e(X,Y) | e(Y,X)",
        "forall X, Y: r(X) | ~e(X,Y)",
    ]),
    (4, {"r": 1, "s": 1}, [
        "forall X: r(X) | s(X)",
        "forall X, Y: ~r(X) | ~s(Y)",
        "forall X: ~s(X)",
    ]),
]


def _suite_duality() -> list[CheckResult]:
    out: list[CheckResult] = []
    space = enumerate_worlds(["c1", "c2", "c3"], {"r": 1})
    f = parse_formula("exists X: r(X)")
    cons = [MarginalConstraint(f, Fraction(2, 3))]
    model = solve_maxent(cons, space, ModelA(2))
    oracle = primal_solve_oracle(cons, space, ModelA(2))
    tv = total_variation(model_distribution(model), oracle)
    _check(out, "dual matches primal oracle (TV < 1e-5)", tv < 1e-5, f"TV {tv:.3e}")
    train = GlobalExample(["c1", "c2", "c3"], [("r", ("c1",))])
    report = log_likelihood_duality_check(train, [f], ModelA(2), space)
    _check(
        out,
        "log-likelihood gradient vanishes at the dual optimum",
        report.realizable and report.grad_inf_norm < 1e-6,
        f"grad {report.grad_inf_norm:.3e}",
    )
    rng = random.Random(2024)
    worst_fd = 0.0
    worst_cav = 0.0
    checked = 0
    for i in range(100):
        use_b = i % 3 == 2
        pools = _DUALITY_B_POOLS if use_b else _DUALITY_POOLS
        n, vocab, texts = pools[rng.randrange(len(pools))]
        constants = [f"c{j}" for j in range(1, n + 1)]
        sp = enumerate_worlds(constants, vocab)
        h = rng.randrange(1, min(3, len(texts)) + 1)
        fs = [parse_formula(t) for t in rng.sample(texts, h)]
        kind = MODEL_B if use_b else ModelA(rng.randrange(1, min(n, 3) + 1))
        constraints = [
            MarginalConstraint(g, Fraction(rng.randrange(1, 10), 10)) for g in fs
        ]
        w = np.array([rng.uniform(-2, 2) for _ in fs])
        value, grad = dual_objective(w, constraints, sp, kind)
        for j in range(len(fs)):
            step = np.zeros(len(fs))
            step[j] = 1e-6
            hi, _ = dual_objective(w + step, constraints, sp, kind)
            lo, _ = dual_objective(w - step, constraints, sp, kind)
            worst_fd = max(worst_fd, abs((hi - lo) / 2e-6 - grad[j]))
        w2 = np.array([rng.uniform(-2, 2) for _ in fs])
        v2, _ = dual_objective(w2, constraints, sp, kind)
        mid, _ = dual_objective((w + w2) / 2, constraints, sp, kind)
        worst_cav = max(worst_cav, (value + v2) / 2 - mid)
        checked += 1
    _check(
        out,
        "finite-difference gradient agreement on 100 random instances",
        checked == 100 and worst_fd < 1e-6,
        f"worst |fd - grad| {worst_fd:.3e}",
    )
    _check(
        out,
        "dual concavity on 100 random instances",
        worst_cav < 1e-9,
        f"worst midpoint violation {worst_cav:.3e}",
    )
    return out


# ---------------------------------------------------------------------------
# realizability

def _suite_realizability() -> list[CheckResult]:
    out: list[CheckResult] = []
    constraints = load_constraints("pigeonhole")
    f = constraints[0].formula
    theta = [constraints[0].theta]
    sp2 = enumerate_worlds(["c1", "c2"], {"r": 1})
    verdict2 = realizability_check(theta, [f], sp2, ModelA(2))
    _check(
        out,
        "target realizable at size 2",
        verdict2.realizable and verdict2.distance <= 1e-8,
        f"distance {verdict2.distance:.3e}",
    )
    sp3 = enumerate_worlds(["c1", "c2", "c3"], {"r": 1})
    poly3 = polytope_vertices([f], sp3, ModelA(2))
    exact = Fraction(1) - max(v[0] for v in poly3.vertices)
    d3 = hull_distance(theta, poly3)
    _check(
        out,
        "size-3 hull distance is exactly 1/3",
        exact == Fraction(1, 3) and abs(d3 - 1 / 3) < 1e-9,
        f"exact {exact}, nearest-point {d3!r}",
    )
    try:
        solve_maxent([MarginalConstraint(f, 1)], sp3, ModelA(2))
        _check(out, "solver rejects the unrealizable target", False, "no error raised")
    except NotRealizableError as exc:
        _check(
            out,
            "solver rejects the unrealizable target",
            abs(exc.distance - 1 / 3) < 1e-9 and not exc.boundary,
            f"distance {exc.distance:.6f}, boundary {exc.boundary}",
        )
    return out


# ---------------------------------------------------------------------------
# exact shrinking

_SHRINK_A_FORMULAS = [
    "exists X: r(X)",
    "forall X: r(X) | s(X)",
    "exists X, Y: X != Y & r(X) & s(Y)",
    "forall X, Y: ~r(X) | ~s(Y)",
]
_SHRINK_B_FORMULAS = [
    "forall X: r(X)",
    "forall X, Y: r(X) | s(Y)",
    "forall X, Y: ~r(X) | s(Y)",
]
_SHRINK_E_A = ["exists X, Y: e(X,Y)", "forall X, Y: ~e(X,Y) | e(Y,X)"]
_SHRINK_E_B = ["forall X, Y: ~e(X,Y)", "forall X, Y: ~e(X,Y) | e(Y,X)"]


def _random_fraction_distribution(space, rng) -> ExplicitDistribution:
    while True:
        weights = [rng.randrange(0, 8) for _ in range(len(space))]
        total = sum(weights)
        if total:
            return ExplicitDistribution(
                space, tuple(Fraction(v, total) for v in weights)
            )


def _suite_shrink() -> list[CheckResult]:
    out: list[CheckResult] = []
    rng = random.Random(11)
    space_rs = enumerate_worlds(["c1", "c2", "c3"], {"r": 1, "s": 1})
    space_e = enumerate_worlds(["c1", "c2", "c3"], {"e": 2})
    cases = [(space_rs, _SHRINK_A_FORMULAS, _SHRINK_B_FORMULAS, 80),
             (space_e, _SHRINK_E_A, _SHRINK_E_B, 20)]
    failures = []
    total = 0
    for space, a_texts, b_texts, reps in cases:
        checks = [(parse_formula(t), ModelA(2), "subset") for t in a_texts]
        checks += [(parse_formula(t), MODEL_B, "substitution") for t in b_texts]
        for _ in range(reps):
            total += 1
            dist = _random_fraction_distribution(space, rng)
            small = shrink_distribution(dist, 2)
            if sum(small.probs, Fraction(0)) != 1:
                failures.append("probabilities do not sum to 1")
                continue
            for f, kind, label in checks:
                if distribution_statistic(dist, f, kind) != distribution_statistic(small, f, kind):
                    failures.append(f"{label} stat changed for {f}")
    _check(
        out,
        "width-2 statistics preserved exactly over 100 random distributions",
        total == 100 and not failures,
        failures[0] if failures else "all exact",
    )
    return out


# ---------------------------------------------------------------------------
# expansion sweep

_SWEEP_A_TEXTS = [
    "exists X: r(X)",
    "exists X, Y: e(X,Y)",
    "forall X, Y: ~e(X,Y) | e(Y,X)",
    "exists X, Y: X != Y & e(X,Y) & e(Y,X)",
    "forall X, Y: ~r(X) | ~e(X,Y)",
]
_SWEEP_B_TEXTS = [
    "forall X: r(X)",
    "forall X, Y: ~e(X,Y)",
    "forall X, Y: ~e(X,Y) | e(Y,X)",
    "forall X, Y: r(X) | r(Y)",
]


def _suite_expansion_sweep() -> list[CheckResult]:
    out: list[CheckResult] = []
    rng = random.Random(404)
    fa = [parse_formula(t) for t in _SWEEP_A_TEXTS]
    fb = [parse_formula(t) for t in _SWEEP_B_TEXTS]
    bound_violations = 0
    residual_violations = 0
    residue_mismatches = 0
    ran = 0
    for _ in range(1000):
        n = rng.randrange(2, 6)
        base = random_structure(n, {"r": 1, "e": 2}, rng.uniform(0.1, 0.6), rng)
        level = rng.randrange(2, 5)
        grown = expand(base, level)
        if rng.random() < 0.5:
            f = fa[rng.randrange(len(fa))]
            kind = ModelA(rng.randrange(1, min(n, 3) + 1))
        else:
            f = fb[rng.randrange(len(fb))]
            kind = MODEL_B
        before = statistic(f, base, kind)
        after = statistic(f, grown, kind)
        if expanded_statistic(f, base, kind, level) != after:
            residue_mismatches += 1
        if abs(before - after) > expansion_diff_bound(n, formula_width(kind, f)):
            bound_violations += 1
        if isinstance(kind, ModelA) and kind.width <= n:
            g = gamma(n, kind.width, level)
            if g > 0:
                residual = mixture_residual(
                    marginal_distribution_a(base, kind.width),
                    marginal_distribution_a(grown, kind.width),
                    g,
                )
                if (
                    any(v < 0 for v in residual.values())
                    or sum(residual.values(), Fraction(0)) != 1
                ):
                    residual_violations += 1
        ran += 1
    _check(
        out,
        "statistic shift within the closed-form bound on 1000 random cases",
        ran == 1000 and bound_violations == 0,
        f"{bound_violations} violations",
    )
    _check(
        out,
        "mixture residual is a distribution in every sampled case",
        residual_violations == 0,
        f"{residual_violations} violations",
    )
    _check(
        out,
        "statistic from residue counts equals the materialised expansion on 1000 random cases",
        ran == 1000 and residue_mismatches == 0,
        f"{residue_mismatches} mismatches",
    )
    return out


# ---------------------------------------------------------------------------
# interiority transfer

def _margin_transfer(fs, vocab, kind, margin, eta, grid, denom):
    """How many ``grid`` points (numerators over ``denom``) are inside the
    size-3 polytope at ``margin``, and the (point..., size) of each of those
    that is not eta-interior at size 4 or 5."""
    polys = {
        m: polytope_vertices(fs, enumerate_worlds([f"c{i}" for i in range(1, m + 1)], vocab), kind)
        for m in (3, 4, 5)
    }
    passing, broken = 0, []
    for point in grid:
        theta = [Fraction(c, denom) for c in point]
        if eta_interior(theta, margin, polys[3]).inside:
            passing += 1
            broken += [(*point, m) for m in (4, 5) if not eta_interior(theta, eta, polys[m]).inside]
    return passing, broken


def _suite_interiority_transfer() -> list[CheckResult]:
    out: list[CheckResult] = []
    eta = 0.05
    f = parse_formula("forall X, Y: r(X) | r(Y)")
    margin = interiority_margin(3, 2, 1, eta)
    passing, broken = _margin_transfer(
        [f], {"r": 1}, ModelA(2), margin, eta, itertools.product(range(61)), 60
    )
    _check(
        out,
        "single-constraint margin transfer (sizes 3 to 4 and 5)",
        passing > 0 and not broken,
        f"{passing} grid points passed the margin test; failures {broken}",
    )
    fs = [parse_formula("forall X: r(X)"), parse_formula("forall X: s(X)")]
    margin1 = interiority_margin(3, 1, 2, eta)
    passing1, broken1 = _margin_transfer(
        fs, {"r": 1, "s": 1}, ModelA(1), margin1, eta, itertools.product(range(13), repeat=2), 12
    )
    _check(
        out,
        "two-constraint width-1 margin transfer",
        margin1 == eta and passing1 > 0 and not broken1,
        f"margin {margin1}, {passing1} grid points; failures {broken1}",
    )
    return out


# ---------------------------------------------------------------------------
# estimation bounds

def _exhaustive_process_distributions(total: int, n: int, k: int, ordered: bool):
    """Exact outcome distributions of the direct and the index-set sampling
    processes over a universe of ``total`` named constants, as dictionaries
    keyed by the sampled index-set vector."""
    universe = tuple(range(total))
    q = n // k
    if ordered:
        draws = list(itertools.permutations(universe, k))
    else:
        draws = [frozenset(c) for c in itertools.combinations(universe, k)]
    direct: dict = {}
    p_draw = Fraction(1, len(draws))
    for vec in itertools.product(draws, repeat=q):
        direct[vec] = direct.get(vec, Fraction(0)) + p_draw**q
    indirect: dict = {}
    p_sub = Fraction(1, math.comb(total, n))
    for chosen in itertools.combinations(universe, n):
        for idx_vec in itertools.product(draws, repeat=q):
            union = sorted(set(itertools.chain.from_iterable(idx_vec)))
            images = list(itertools.permutations(chosen, len(union)))
            p = p_sub * p_draw**q * Fraction(1, len(images))
            for image in images:
                g = dict(zip(union, image))
                if ordered:
                    vec = tuple(tuple(g[i] for i in idx) for idx in idx_vec)
                else:
                    vec = tuple(frozenset(g[i] for i in idx) for idx in idx_vec)
                indirect[vec] = indirect.get(vec, Fraction(0)) + p
    return direct, indirect


def _suite_estimation_bounds() -> list[CheckResult]:
    out: list[CheckResult] = []
    # exact unbiasedness of subset sampling on a small structure
    rng = random.Random(5)
    small = random_structure(5, {"r": 1, "e": 2}, 0.35, rng)
    fa = parse_formula("exists X, Y: e(X,Y)")
    fb = parse_formula("forall X, Y: ~e(X,Y) | e(Y,X)")
    for m in (2, 3):
        subsets = list(itertools.combinations(small.constants, m))
        mean_a = sum(
            (statistic(fa, fragment(small, s), ModelA(2)) for s in subsets),
            Fraction(0),
        ) / len(subsets)
        mean_b = sum(
            (statistic(fb, fragment(small, s), MODEL_B) for s in subsets),
            Fraction(0),
        ) / len(subsets)
        ok = mean_a == statistic(fa, small, ModelA(2)) and mean_b == statistic(
            fb, small, MODEL_B
        )
        _check(
            out,
            f"subset sampling is exactly unbiased at m={m}",
            ok,
            f"subset mean {mean_a}, substitution mean {mean_b}",
        )
    # index-set process equals the direct process, exhaustively
    da, ia = _exhaustive_process_distributions(5, 4, 2, ordered=False)
    _check(
        out,
        "index-set process matches direct subset sampling exactly",
        da == ia,
        f"{len(da)} outcome vectors compared",
    )
    db, ib = _exhaustive_process_distributions(5, 4, 2, ordered=True)
    _check(
        out,
        "ordered index-set process matches direct substitution sampling exactly",
        db == ib,
        f"{len(db)} outcome vectors compared",
    )
    # mean error within the closed-form bound, both kinds, widths 1..3
    truth = random_structure(12, {"r": 1, "e": 2}, 0.3, random.Random(77))
    a_formulas = {
        1: "exists X: r(X)",
        2: "exists X, Y: e(X,Y)",
        3: "exists X, Y, Z: e(X,Y) & e(Y,Z)",
    }
    b_formulas = {
        1: "forall X: r(X)",
        2: "forall X, Y: ~e(X,Y) | e(Y,X)",
        3: "forall X, Y, Z: ~e(X,Y) | ~e(Y,Z) | e(X,Z)",
    }
    for k in (1, 2, 3):
        for label, kind, text in (
            ("subset", ModelA(k), a_formulas[k]),
            ("substitution", MODEL_B, b_formulas[k]),
        ):
            cfg = ExperimentConfig(
                truth, 6, 12, (parse_formula(text),), kind, trials=500, seed=19 + k
            )
            report = run_error_experiment(cfg)[0]
            _check(
                out,
                f"mean error within bound ({label}, width {k})",
                report.passed and report.effective_sample_size == effective_sample_size(6, k),
                f"mean {float(report.mean_error):.4f} <= bound {report.bound:.4f}",
            )
    # tail frequencies against the Hoeffding envelope
    tail_cases = [
        ("subset width 1", 100, 75, ModelA(1), "exists X: r(X)", {"r": 1}, 0.5),
        ("substitution width 1", 100, 75, MODEL_B, "forall X: r(X)", {"r": 1}, 0.5),
        ("substitution width 2", 40, 30, MODEL_B, "forall X, Y: ~e(X,Y)", {"e": 2}, 0.03),
    ]
    trials = 1200
    for label, total, n, kind, text, vocab, density in tail_cases:
        f = parse_formula(text)
        k = formula_width(kind, f)
        big = random_structure(total, vocab, density, random.Random(131))
        exact = statistic(f, big, kind)
        q = n // k
        rng = random.Random(7000)
        deviations = {0.1: 0, 0.2: 0}
        for _ in range(trials):
            sub = sample_subexample(big, n, rng)
            est = disjoint_sample_estimator(sub, f, kind, rng, universe_size=total)
            err = abs(est - exact)
            for eps in deviations:
                if err >= eps:
                    deviations[eps] += 1
        for eps, hits in deviations.items():
            bound = 2.0 * math.exp(-2.0 * q * eps * eps)
            freq = hits / trials
            p_star = min(bound, 1.0)
            threshold = bound + 3.0 * math.sqrt(p_star * (1.0 - p_star) / trials)
            _check(
                out,
                f"tail frequency under the envelope ({label}, eps={eps})",
                freq <= threshold or bound >= 1.0,
                f"freq {freq:.4f}, envelope {min(threshold, 1.0):.4f}, q={q}",
            )
    return out


# ---------------------------------------------------------------------------
# determinism

def _suite_determinism() -> list[CheckResult]:
    out: list[CheckResult] = []
    truth = random_structure(8, {"r": 1, "e": 2}, 0.3, random.Random(3))
    f = parse_formula("exists X, Y: e(X,Y)")
    cfg = ExperimentConfig(truth, 4, 8, (f,), ModelA(2), trials=40, seed=12)
    first = run_error_experiment(cfg)
    second = run_error_experiment(cfg)
    payloads = []
    for reports in (first, second):
        payloads.append(
            json.dumps(
                [
                    {
                        "mean": str(r.mean_error),
                        "bound": repr(r.bound),
                        "errors": [str(e) for e in r.trial_errors],
                    }
                    for r in reports
                ],
                sort_keys=True,
            )
        )
    _check(
        out,
        "error experiments are byte-identical across runs",
        payloads[0] == payloads[1],
        f"{len(payloads[0])} bytes",
    )
    space = enumerate_worlds(["c1", "c2", "c3"], {"r": 1})
    cons = [MarginalConstraint(parse_formula("exists X: r(X)"), Fraction(2, 3))]
    runs = [solve_maxent(cons, space, ModelA(2)) for _ in range(2)]
    same = (
        repr(list(runs[0].weights)) == repr(list(runs[1].weights))
        and repr(runs[0].log_partition) == repr(runs[1].log_partition)
    )
    _check(out, "solver output is bitwise reproducible", same, repr(list(runs[0].weights)))
    base = load_example("path")
    n1 = noisy_expand(base, 2, 0.4, random.Random(99))
    n2 = noisy_expand(base, 2, 0.4, random.Random(99))
    _check(out, "seeded noisy expansion is reproducible", n1 == n2, f"{len(n1.atoms)} atoms")
    return out


# ---------------------------------------------------------------------------
# registry

_SUITES = {
    "worked-example": _suite_worked_example,
    "expansion-example": _suite_expansion_example,
    "duality": _suite_duality,
    "realizability": _suite_realizability,
    "shrink": _suite_shrink,
    "expansion-sweep": _suite_expansion_sweep,
    "interiority-transfer": _suite_interiority_transfer,
    "estimation-bounds": _suite_estimation_bounds,
    "determinism": _suite_determinism,
}


def available_suites() -> tuple[str, ...]:
    return tuple(_SUITES)


def run_suite(name: str) -> SuiteResult:
    if name not in _SUITES:
        raise DomainError(
            f"unknown suite {name!r}; available: {', '.join(_SUITES)}"
        )
    start = time.perf_counter()
    checks = _SUITES[name]()
    return SuiteResult(name, tuple(checks), time.perf_counter() - start)


def run_verification(names=None) -> tuple[SuiteResult, ...]:
    chosen = tuple(names) if names else available_suites()
    return tuple(run_suite(n) for n in chosen)
