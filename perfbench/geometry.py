"""The ``geometry`` workload: realizability across domain sizes.

Each job takes one vocabulary and formula set, builds the world spaces at
sizes m, m+1 and m+2 (at most 2^10 worlds each), computes their marginal
polytopes, and runs hull-distance queries and eta-interiority certifications
against them.  It also shrinks one random exact distribution from size m+1 to
m and compares statistics before and after.  Spaces are kept small so that the
hull queries, not the count matrices, carry the job.  The library is called directly;
each space's count matrix is built once and reused by every query.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from common import FLOAT_TOL, Job, Outcome, balanced_picks, fixed_rng, frac_text

ETA = 0.02
CERTIFICATIONS = 12
# per polytope: convex combinations of vertices, points of the unit cube and
# points outside it
QUERIES = (8, 8, 4)

A_POOL = {
    ("r",): ["exists X: r(X)", "forall X: r(X)", "exists X, Y: X != Y & r(X) & ~r(Y)",
             "forall X, Y: r(X) | r(Y)", "exists X, Y: X != Y & r(X) & r(Y)"],
    ("r", "s"): ["exists X: r(X)", "forall X: r(X) | s(X)", "exists X, Y: X != Y & r(X) & s(Y)",
                 "forall X, Y: ~r(X) | ~s(Y)", "exists X: r(X) & s(X)", "forall X: s(X)"],
}
B_POOL = {
    ("r",): ["forall X: r(X)", "forall X, Y: r(X) | r(Y)", "forall X, Y: ~r(X) | r(Y)"],
    ("r", "s"): ["forall X: r(X)", "forall X: r(X) | s(X)", "forall X: ~s(X)",
                 "forall X: ~r(X) | s(X)"],
}

# (template, vocabulary, smallest size m, width or None for Model B, formulas)
TEMPLATES = [
    ("geometry-a2-r3-d1", ("r",), 3, 2, 1),
    ("geometry-a2-r3", ("r",), 3, 2, 2),
    ("geometry-a1-r4", ("r",), 4, 1, 2),
    ("geometry-a3-r3", ("r",), 3, 3, 1),
    ("geometry-b-r3", ("r",), 3, None, 2),
    ("geometry-a1-rs2", ("r", "s"), 2, 1, 3),
    ("geometry-a1-rs1", ("r", "s"), 1, 1, 2),
    ("geometry-b-rs1", ("r", "s"), 1, None, 2),
]
DECK_SIZE = len(TEMPLATES)
LIST_ROUNDS = 40


def _constants(m):
    return tuple(f"c{i}" for i in range(1, m + 1))


def _random_combination(rng, vertices):
    """Exact convex combination of up to four vertices with positive weights."""
    chosen = rng.sample(vertices, min(4, len(vertices)))
    weights = [rng.randrange(1, 6) for _ in chosen]
    total = sum(weights)
    return tuple(
        sum(Fraction(w, total) * v[i] for w, v in zip(weights, chosen))
        for i in range(len(chosen[0]))
    )


def _cube_distance(point):
    return math.sqrt(sum(max(0.0, -x, x - 1.0) ** 2 for x in point))


def _pool(vocab, width):
    return A_POOL[vocab] if width is not None else B_POOL[vocab]


def _job(rng, texts, template, vocab, m, width, n_formulas):
    from relmarg import logic, stats

    formulas = tuple(logic.parse_formula(t) for t in texts)
    kind = stats.ModelA(width) if width is not None else stats.MODEL_B
    k = width if width is not None else max(len(logic.vars_of(f)) for f in formulas)
    dim = len(formulas)
    vocabulary = {p: 1 for p in vocab}
    sizes = (m, m + 1, m + 2)
    # query points that do not depend on the polytope: cube points and points
    # outside the unit cube, which contains every marginal polytope
    cube = [tuple(Fraction(rng.randrange(0, 13), 12) for _ in range(dim))
            for _ in range(QUERIES[1])]
    outside = []
    for _ in range(QUERIES[2]):
        p = [Fraction(rng.randrange(0, 13), 12) for _ in range(dim)]
        p[rng.randrange(dim)] = rng.choice((Fraction(-1, 10), Fraction(11, 10)))
        outside.append(tuple(p))
    job_seed = rng.randrange(10**9)

    def run():
        import random

        from relmarg import maxent, polytope, worlds

        local = random.Random(job_seed)
        spaces = {s: worlds.enumerate_worlds(_constants(s), vocabulary) for s in sizes}
        polys = {s: polytope.polytope_vertices(formulas, spaces[s], kind) for s in sizes}
        queries = []
        for s in sizes:
            inside = [_random_combination(local, list(polys[s].vertices))
                      for _ in range(QUERIES[0])]
            for point in inside + cube + outside:
                distance = polytope.hull_distance([float(c) for c in point], polys[s])
                queries.append((s, point, distance))
        margin = polytope.interiority_margin(m, k, dim, ETA)
        certs = []
        for _ in range(CERTIFICATIONS):
            theta = _random_combination(local, list(polys[m].vertices))
            first = polytope.eta_interior([float(c) for c in theta], margin, polys[m])
            later = []
            if first.inside:
                later = [polytope.eta_interior([float(c) for c in theta], ETA, polys[s]).inside
                         for s in sizes[1:]]
            certs.append((theta, first, later))
        space = spaces[m + 1]
        while True:
            weights = [local.randrange(0, 8) for _ in range(len(space))]
            if sum(weights):
                break
        dist = maxent.ExplicitDistribution(
            space, tuple(Fraction(w, sum(weights)) for w in weights)
        )
        small = maxent.shrink_distribution(dist, m)
        shrink_stats = [
            (maxent.distribution_statistic(dist, f, kind),
             maxent.distribution_statistic(small, f, kind))
            for f in formulas
        ]
        return spaces, polys, queries, margin, certs, small, shrink_stats

    def check(result):
        from relmarg import stats as stats_mod

        spaces, polys, queries, margin, certs, small, shrink_stats = result
        problems = []
        parts = [template, ";".join(texts)]
        for s in sizes:
            verts = polys[s].vertices
            parts.append(f"V{s}:" + "|".join(",".join(map(frac_text, v)) for v in sorted(verts)))
            if not verts or len(set(verts)) != len(verts):
                problems.append(f"size {s}: empty or repeated vertex list")
            if any(not 0 <= c <= 1 for v in verts for c in v):
                problems.append(f"size {s}: vertex outside the unit cube")
            space = spaces[s]
            vset = set(verts)
            for idx in sorted({0, len(space) - 1, len(space) // 3}):
                world = space.world_example(int(space.worlds[idx]))
                vec = tuple(stats_mod.statistic(f, world, kind) for f in formulas)
                if vec not in vset:
                    problems.append(f"size {s}: statistics of world {idx} are not a vertex")
        # distances are compared as floats: a point on a facet may read 0 or
        # 1e-9 depending on the solver, so membership verdicts are not exact
        floats = []
        per_size = len(queries) // len(sizes)
        for i, (s, point, distance) in enumerate(queries):
            floats.append(distance)
            slot = i % per_size
            if slot < QUERIES[0] and not distance <= FLOAT_TOL:
                problems.append(f"convex combination at distance {distance!r}")
            cube_gap = _cube_distance([float(c) for c in point])
            if slot >= QUERIES[0] + QUERIES[1] and not distance >= cube_gap - 1e-9:
                problems.append(f"point outside the cube at distance {distance!r}")
            if distance < 0:
                problems.append("negative hull distance")
        floats.append(margin)
        for theta, first, later in certs:
            parts.append("E:%s:%d:%s" % (",".join(map(frac_text, theta)), first.inside,
                                         "".join(str(int(x)) for x in later)))
            if first.inside and not all(later):
                problems.append(f"target certified at size {m} is not eta-interior later")
        total = sum(small.probs, Fraction(0))
        if total != 1:
            problems.append(f"shrunk distribution sums to {total}")
        parts.append("S:" + ",".join(map(frac_text, small.probs)))
        for before, after in shrink_stats:
            parts.append(f"T:{frac_text(before)}>{frac_text(after)}")
            if before != after:
                problems.append(f"shrinking changed a statistic from {before} to {after}")
        return Outcome("\n".join(parts), floats, problems)

    return Job(template, run, check)


def make_jobs(rng, workdir, rounds):
    """``rounds`` rounds of the template mix, each shuffled by the seed.
    Formula sets cycle through every combination of a template's pool, in an
    order that does not depend on the seed."""
    fixed = fixed_rng("geometry")
    plans = [
        (spec, balanced_picks(fixed, itertools.combinations(_pool(spec[1], spec[3]), spec[4]),
                              rounds))
        for spec in TEMPLATES
    ]
    jobs = []
    for r in range(rounds):
        deck = [_job(rng, picks[r], *spec) for spec, picks in plans]
        rng.shuffle(deck)
        jobs.extend(deck)
    return jobs
