"""The ``fit`` workload: ``relmarg maxent`` and ``relmarg pipeline`` calls.

Each job calls ``relmarg.cli.main`` in-process on facts, constraint and
formula files written at set-up, so every job builds a fresh world space and
the count cache starts cold.

Targets are built so that the right answer is known without running the
solver.  Every constraint formula lives on its own predicate group (hard rules
stay inside a group), so the world space is a product of group spaces and the
marginal polytope is the product of the formulas' ranges.  Each pooled formula
is false on the empty structure and true on the complete one, so its range is
[0, 1] and any target in the open box is interior and must fit.  The
pigeonhole formula reaches at most floor(m/2)*ceil(m/2)/C(m,2), so a target
above that is outside, at a hull distance known in closed form.  Pipeline
training structures mark a proper subset of constants, so noise-free
expansion statistics have closed forms too; a training structure without
``s`` atoms gives the boundary target 0.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from fractions import Fraction

from common import FLOAT_TOL, Job, Outcome, balanced_picks, fixed_rng, frac_text

# Every solver call is capped at this many ascent iterations.  With the CLI
# default of 20,000 one boundary job costs 11-24 s, about a whole run;
# interior targets here converge in a few hundred iterations.
MAX_ITER = 2000

SYM_RULE = "forall X, Y: ~e(X,Y) | e(Y,X)"
IMPL_RULE = "forall X: ~r(X) | s(X)"

# group -> (hard rule or None, Model A formulas by minimum width, Model B formulas)
GROUPS = {
    "r": (None, [(1, "exists X: r(X)"), (1, "forall X: r(X)"),
                 (2, "exists X, Y: X != Y & r(X) & r(Y)"), (2, "forall X, Y: r(X) | r(Y)")],
          ["forall X: r(X)", "forall X, Y: r(X) | r(Y)", "forall X, Y: r(X) & r(Y)"]),
    "s": (None, [(1, "exists X: s(X)"), (1, "forall X: s(X)"),
                 (2, "exists X, Y: X != Y & s(X) & s(Y)"), (2, "forall X, Y: s(X) | s(Y)")],
          ["forall X: s(X)", "forall X, Y: s(X) | s(Y)"]),
    "t": (None, [(1, "exists X: t(X)"), (1, "forall X: t(X)"),
                 (2, "forall X, Y: t(X) | t(Y)")],
          ["forall X: t(X)", "forall X, Y: t(X) & t(Y)"]),
    "e": (None, [(1, "exists X: e(X,X)"), (1, "exists X, Y: e(X,Y)"),
                 (1, "forall X, Y: e(X,Y) | e(Y,X)"),
                 (2, "exists X, Y: X != Y & e(X,Y) & e(Y,X)")],
          ["forall X: e(X,X)", "forall X, Y: e(X,Y) | e(Y,X)", "forall X, Y: e(X,Y)"]),
    "e-sym": (SYM_RULE, [(1, "exists X, Y: e(X,Y)"), (1, "exists X: e(X,X)"),
                         (2, "exists X, Y: X != Y & e(X,Y)")],
              ["forall X, Y: e(X,Y)", "forall X, Y: e(X,Y) | e(Y,X)"]),
    "rs-impl": (IMPL_RULE, [(1, "exists X: r(X)"), (1, "forall X: s(X)"),
                            (1, "exists X: r(X) & s(X)"),
                            (2, "exists X, Y: X != Y & r(X) & s(Y)")],
                ["forall X: s(X)", "forall X, Y: r(X) | s(Y)"]),
}

PIGEONHOLE = "exists X, Y: X != Y & r(X) & ~r(Y)"

# (template, domain size, groups, width or None for Model B); the name gives
# the number of worlds enumerated (atom patterns before hard rules)
MAXENT_TEMPLATES = [
    ("maxent-a1-4096", 4, ["r", "s", "t"], 1),
    ("maxent-a3-1024", 5, ["r", "s"], 3),
    ("maxent-b-256", 4, ["r", "s"], None),
    ("maxent-b-512", 3, ["e"], None),
    ("maxent-a2-64", 2, ["r", "e"], 2),
    ("maxent-hard-a1-4096", 4, ["rs-impl", "t"], 1),
    ("maxent-hard-a2-4096", 3, ["r", "e-sym"], 2),
    ("maxent-hard-a2-1024", 5, ["rs-impl"], 2),
    ("maxent-hard-a3-256", 4, ["rs-impl"], 3),
    ("maxent-hard-b-512", 3, ["e-sym"], None),
]
# (template, domain size, with a second, interior coordinate on s)
OUTSIDE_TEMPLATES = [
    ("outside-a2-64", 3, True),
    ("outside-a2-256", 8, False),
    ("outside-a2-1024", 5, True),
]
# (template, training size, target size, width or None, noise, boundary)
PIPELINE_TEMPLATES = [
    ("pipeline-noisy-a1-4096", 3, 6, 1, True, False),
    ("pipeline-noisy-a2-256", 3, 4, 2, True, False),
    ("pipeline-noisy-b-1024", 3, 5, None, True, False),
    ("pipeline-noisy-a1-256", 3, 4, 1, True, False),
    ("pipeline-a2-64", 2, 3, 2, False, False),
    ("pipeline-a2-1024", 2, 5, 2, False, False),
    ("pipeline-b-256", 3, 4, None, False, False),
    ("pipeline-boundary-a2-256", 2, 4, 2, False, True),
]
DECK_SIZE = len(MAXENT_TEMPLATES) + len(OUTSIDE_TEMPLATES) + len(PIPELINE_TEMPLATES)
LIST_ROUNDS = 8


def _group_pool(group, width):
    _, a_pool, b_pool = GROUPS[group]
    if width is None:
        return b_pool
    return [text for k, text in a_pool if k <= width]


def _interior_theta(rng):
    # targets near 0 or 1 need large weights and slow the ascent down
    return Fraction(rng.randrange(6, 15), 20)


def _model_args(width):
    return ["--model", "B"] if width is None else ["--model", "A", "--width", str(width)]


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _constants_facts(m):
    return "@constants " + ", ".join(f"c{i}" for i in range(1, m + 1)) + "\n"


def _call_cli(args):
    from relmarg import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# closed-form statistics of the pipeline formulas on an expansion with n
# constants, c of them marked

def _closed_form(text, kind_width, n, c):
    if kind_width is None:
        if text.startswith("forall X, Y:"):
            return 1 - Fraction((n - c) * (n - c - 1), n * (n - 1))
        return Fraction(c, n)
    k = kind_width
    total = math.comb(n, k)
    if text.startswith("exists X, Y:"):
        return 1 - Fraction(math.comb(n - c, k) + c * math.comb(n - c, k - 1), total)
    if text.startswith("exists X:"):
        return 1 - Fraction(math.comb(n - c, k), total)
    return Fraction(math.comb(c, k), total)


PIPELINE_POOL = {
    1: ["exists X: {p}(X)", "forall X: {p}(X)"],
    2: ["exists X: {p}(X)", "forall X: {p}(X)", "exists X, Y: X != Y & {p}(X) & {p}(Y)"],
    None: ["forall X: {p}(X)", "forall X, Y: {p}(X) | {p}(Y)"],
}
# noise only adds atoms; these formulas reach 1 only if every constant
# gains the predicate, which at the sizes used has probability <= 1e-4
NOISY_POOL = {
    1: ["exists X: {p}(X)", "forall X: {p}(X)"],
    2: ["forall X: {p}(X)"],
    None: ["forall X: {p}(X)"],
}


# ---------------------------------------------------------------------------
# job builders

def _maxent_job(rng, workdir, idx, formulas, template, m, groups, width):
    hard = [GROUPS[g][0] for g in groups if GROUPS[g][0]]
    thetas = [_interior_theta(rng) for _ in formulas]
    base = os.path.join(workdir, f"fit{idx}")
    _write(base + ".facts", _constants_facts(m))
    _write(base + ".cons", "".join(f"{frac_text(t)} ; {f}\n" for t, f in zip(thetas, formulas)))
    args = ["maxent", "--facts", base + ".facts", "--constraints", base + ".cons",
            *_model_args(width), "--out", base + ".model.json", "--max-iter", str(MAX_ITER)]
    if hard:
        _write(base + ".hard", "".join(r + "\n" for r in hard))
        args += ["--hard", base + ".hard"]

    def run():
        return _call_cli(args)

    def check(result):
        code, stdout = result
        if code != 0:
            return Outcome(f"exit {code}", [], [f"interior target rejected with exit {code}"])
        with open(base + ".model.json", encoding="utf-8") as fh:
            model = json.load(fh)
        problems = _fit_problems(model, thetas)
        return Outcome(f"exit 0 {_thetas_text(model['theta'])}",
                       list(model["achieved_marginals"]), problems)

    return Job(template, run, check)


def _fit_problems(model, thetas):
    problems = []
    got = [Fraction(t["rational"]) for t in model["theta"]]
    if got != list(thetas):
        problems.append(f"model echoes targets {got}, expected {thetas}")
    for a, t in zip(model["achieved_marginals"], thetas):
        if not abs(a - float(t)) <= FLOAT_TOL:
            problems.append(f"achieved marginal {a!r} misses target {t}")
    if not model["realizable"]:
        problems.append("fitted model reports realizable=false")
    return problems


def _thetas_text(theta_values):
    return ",".join(t["rational"] for t in theta_values)


def _outside_job(rng, workdir, idx, formulas, template, m, with_s):
    top = Fraction((m // 2) * ((m + 1) // 2), math.comb(m, 2))
    theta = top + (1 - top) * Fraction(rng.randrange(1, 5), 4)
    lines = [f"{frac_text(theta)} ; {PIGEONHOLE}\n"]
    lines += [f"{frac_text(_interior_theta(rng))} ; {f}\n" for f in formulas]
    base = os.path.join(workdir, f"fit{idx}")
    _write(base + ".facts", _constants_facts(m))
    _write(base + ".cons", "".join(lines))
    args = ["maxent", "--facts", base + ".facts", "--constraints", base + ".cons",
            "--model", "A", "--width", "2", "--out", base + ".model.json",
            "--max-iter", str(MAX_ITER)]
    distance = float(theta - top)

    def run():
        return _call_cli(args)

    def check(result):
        code, stdout = result
        if code != 2:
            return Outcome(f"exit {code}", [], [f"outside target gave exit {code}, expected 2"])
        diag = json.loads(stdout)
        problems = []
        if diag["boundary"] or diag["realizable"]:
            problems.append("outside target diagnosed as boundary or realizable")
        if not abs(diag["hull_distance"] - distance) <= FLOAT_TOL:
            problems.append(f"hull distance {diag['hull_distance']!r}, expected {distance!r}")
        return Outcome(f"exit 2 boundary={diag['boundary']}", [diag["hull_distance"]], problems)

    return Job(template, run, check)


def _pipeline_job(rng, workdir, idx, formulas, template, b, n, width, noisy, boundary):
    marks = {p: sorted(rng.sample(range(1, b + 1), 1 if noisy else rng.randrange(1, b)))
             for p in ("r", "s")}
    if boundary:
        marks["s"] = []
    atoms = [f"{p}(c{i})\n" for p in ("r", "s") for i in marks[p]]
    base = os.path.join(workdir, f"fit{idx}")
    _write(base + ".facts", _constants_facts(b) + "".join(atoms))
    _write(base + ".formulas", "".join(f + "\n" for f in formulas))
    args = ["pipeline", "--facts", base + ".facts", "--formulas", base + ".formulas",
            "--target-n", str(n), *_model_args(width), "--max-iter", str(MAX_ITER)]
    if noisy:
        args += ["--noise", str(rng.choice((0.05, 0.1))), "--seed", str(rng.randrange(10**6))]
    level = max(1, math.ceil(n / b))
    expected = None
    if not noisy:
        expected = [_closed_form(f, width, level * b, level * len(marks[p]))
                    for f, p in zip(formulas, ("r", "s"))]

    def run():
        return _call_cli(args)

    def check(result):
        code, stdout = result
        payload = json.loads(stdout)
        thetas = [Fraction(c["theta"]["rational"]) for c in payload["constraints"]]
        problems = []
        if expected is not None and thetas != expected:
            problems.append(f"expansion statistics {thetas}, closed form {expected}")
        exact = _thetas_text([c["theta"] for c in payload["constraints"]])
        floats = []
        if code == 0:
            problems += _fit_problems(payload["model"], thetas)
            if not boundary:
                floats = list(payload["model"]["achieved_marginals"])
        elif code == 2 and (boundary or noisy):
            # a boundary target may be fitted within tolerance or rejected
            # as boundary; never as outside
            if not payload["diagnosis"]["boundary"]:
                problems.append("boundary target diagnosed as outside the polytope")
        else:
            problems.append(f"interior pipeline target gave exit {code}")
        if not boundary:
            exact = f"exit {code} {exact}"
            if code == 0 and not payload["realizable"]:
                problems.append("fitted pipeline reports realizable=false")
        return Outcome(exact, floats, problems)

    return Job(template, run, check)


def _pipeline_formulas(width, noisy, boundary):
    pool = (NOISY_POOL if noisy else PIPELINE_POOL)[width]
    if boundary:
        last = ["exists X: s(X)" if width is not None else "forall X: s(X)"]
    else:
        last = [text.format(p="s") for text in pool]
    return itertools.product([text.format(p="r") for text in pool], last)


def make_jobs(rng, workdir, rounds):
    """``rounds`` rounds of the template mix, each shuffled by the seed.
    Formula sets cycle through every combination a template allows, in an
    order that does not depend on the seed."""
    fixed = fixed_rng("fit")
    plans = []
    for spec in MAXENT_TEMPLATES:
        combos = itertools.product(*(_group_pool(g, spec[3]) for g in spec[2]))
        plans.append((_maxent_job, spec, balanced_picks(fixed, combos, rounds)))
    for spec in OUTSIDE_TEMPLATES:
        combos = [(f,) for f in _group_pool("s", 2)] if spec[2] else [()]
        plans.append((_outside_job, spec, balanced_picks(fixed, combos, rounds)))
    for spec in PIPELINE_TEMPLATES:
        combos = _pipeline_formulas(*spec[3:])
        plans.append((_pipeline_job, spec, balanced_picks(fixed, combos, rounds)))
    jobs = []
    for r in range(rounds):
        deck = [build(rng, workdir, len(jobs) + i, list(picks[r]), *spec)
                for i, (build, spec, picks) in enumerate(plans)]
        rng.shuffle(deck)
        jobs.extend(deck)
    return jobs
