"""The ``estimate`` workload: estimation experiments and mixture decompositions.

Each job runs ``run_error_experiment`` with a short trial count on a seeded
ground truth, then the exact mixture decomposition of one expansion:
``marginal_distribution_a`` of a base structure and of its expansion, and the
``mixture_residual`` between them.  It never builds a world space.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from common import FLOAT_TOL, Job, Outcome, balanced_picks, fixed_rng, frac_text

VOCAB = {"r": 1, "e": 2}
A_FORMULAS = {
    1: ["exists X: r(X)", "forall X: r(X) | e(X,X)"],
    2: ["exists X, Y: e(X,Y)", "forall X, Y: ~e(X,Y) | e(Y,X)", "exists X, Y: r(X) & e(X,Y)"],
    3: ["exists X, Y, Z: e(X,Y) & e(Y,Z)", "forall X, Y: ~r(X) | ~e(X,Y)"],
}
B_FORMULAS = {
    1: ["forall X: r(X)", "forall X: ~e(X,X)"],
    2: ["forall X, Y: ~e(X,Y) | e(Y,X)", "forall X, Y: r(X) | ~e(X,Y)"],
    3: ["forall X, Y, Z: ~e(X,Y) | ~e(Y,Z) | e(X,Z)"],
}

# (template, ground-truth size n, sample size m, target size, width or None
# for Model B with the given variable count, trials, mixture base size and
# width, expansion level)
TEMPLATES = [
    ("estimate-a1", 12, 4, 12, 1, None, 16, (6, 2, 3)),
    ("estimate-a2", 16, 6, 18, 2, None, 12, (5, 2, 3)),
    ("estimate-a3", 20, 6, 12, 3, None, 4, (4, 3, 2)),
    ("estimate-b1", 24, 8, 24, None, 1, 16, (6, 2, 3)),
    ("estimate-b2", 16, 5, 15, None, 2, 10, (5, 2, 3)),
    ("estimate-b3", 12, 4, 12, None, 3, 6, (4, 3, 3)),
    ("estimate-mix3-a2", 12, 4, 8, 2, None, 4, (6, 3, 3)),
    ("estimate-mix3-b2", 12, 4, 8, None, 2, 4, (5, 3, 3)),
]
DECK_SIZE = len(TEMPLATES)
LIST_ROUNDS = 32


def _random_structure(rng, n, density):
    from relmarg import data

    constants = tuple(f"c{i}" for i in range(1, n + 1))
    atoms = [
        data.GroundAtom(pred, args)
        for pred in sorted(VOCAB)
        for args in itertools.product(constants, repeat=VOCAB[pred])
        if rng.random() < density
    ]
    return data.GlobalExample(constants, atoms, dict(VOCAB))


def bound(m, k):
    """The closed-form expected-error bound, computed independently."""
    sampling = math.sqrt((1.0 + 2.0 * math.log(2.0)) / (4.0 * (m // k)))
    return 1.0 - ((m - k + 1) / m) ** (k - 1) + sampling


def _job(rng, densities, template, n, m, target, width, n_vars, trials, mixture):
    from relmarg import estimation, logic, stats

    if width is not None:
        kind = stats.ModelA(width)
        texts = A_FORMULAS[width]
    else:
        kind = stats.MODEL_B
        texts = B_FORMULAS[n_vars]
    formulas = tuple(logic.parse_formula(t) for t in texts)
    truth = _random_structure(rng, n, densities[0])
    cfg = estimation.ExperimentConfig(
        truth, m, target, formulas, kind, trials=trials, seed=rng.randrange(10**6)
    )
    base_n, k, level = mixture
    base = _random_structure(rng, base_n, densities[1])

    def run():
        from relmarg import expansion

        reports = estimation.run_error_experiment(cfg)
        before = stats.marginal_distribution_a(base, k)
        grown = expansion.expand(base, level)
        after = stats.marginal_distribution_a(grown, k)
        g = expansion.gamma(base_n, k, level)
        residual = expansion.mixture_residual(before, after, g)
        return reports, g, residual

    def check(result):
        reports, g, residual = result
        problems = []
        parts = [template, frac_text(g)]
        floats = []
        if len(reports) != len(formulas):
            problems.append(f"{len(reports)} reports for {len(formulas)} formulas")
        for report in reports:
            errors = report.trial_errors
            k_f = stats.formula_width(kind, report.formula)
            parts.append("R:%s:%s:%d:%d" % (",".join(map(frac_text, errors)),
                                            frac_text(report.mean_error), report.passed,
                                            report.effective_sample_size))
            floats.append(report.bound)
            if len(errors) != trials or any(not 0 <= e <= 1 for e in errors):
                problems.append("trial errors missing or outside [0, 1]")
            elif report.mean_error != sum(errors, Fraction(0)) / trials:
                problems.append("mean error is not the mean of the trial errors")
            if not abs(report.bound - bound(m, k_f)) <= FLOAT_TOL:
                problems.append(f"bound {report.bound!r}, closed form {bound(m, k_f)!r}")
            if report.passed != (float(report.mean_error) <= report.bound):
                problems.append("passed flag disagrees with mean error and bound")
            if report.effective_sample_size != m // k_f:
                problems.append("effective sample size is not floor(m/k)")
        values = list(residual.values())
        if any(v < 0 for v in values) or sum(values, Fraction(0)) != 1:
            problems.append("mixture residual is not a probability distribution")
        forms = sorted(residual.items(), key=lambda kv: (kv[0].width, kv[0].atoms))
        parts.append("M:" + "|".join(
            f"{sorted(form.atoms)}={frac_text(v)}" for form, v in forms
        ))
        return Outcome("\n".join(parts), floats, problems)

    return Job(template, run, check)


def make_jobs(rng, workdir, rounds):
    """``rounds`` rounds of the template mix, each shuffled by the seed.
    Atom densities of the ground truth and of the mixture base cycle through
    every pair, in an order that does not depend on the seed."""
    densities = list(itertools.product((0.2, 0.3, 0.4), (0.3, 0.5)))
    fixed = fixed_rng("estimate")
    plans = [(spec, balanced_picks(fixed, densities, rounds)) for spec in TEMPLATES]
    jobs = []
    for r in range(rounds):
        deck = [_job(rng, picks[r], *spec) for spec, picks in plans]
        rng.shuffle(deck)
        jobs.extend(deck)
    return jobs
