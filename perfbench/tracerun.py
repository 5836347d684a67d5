"""Traced run of one workload: the per-layer metrics.

The first TRACE_ROUNDS rounds of the job list run once untraced and once
traced, after one untraced warm-up round, so ``trace.overhead_ratio``
compares the same jobs in the same warm state.  Counts repeat exactly for a
given seed.  Then the workload's share of the nine ``relmarg verify`` suites
runs once each, untraced, through ``relmarg.verify.run_suite``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import time

import common
import harness
from spans import COUNT_MATRIX, Tracer

TRACE_ROUNDS = 2
SUITE_CALIBRATION_S = 0.05
TIMED_SUFFIXES = (".self_s", ".us_per_query", ".ns_per_grounding")
TRACE_DIR = os.path.join(common.WORK, "traces")

CALLS_AND_SELF = [
    "cli.main", "logic.parse_formula", "logic.holds", "data.fragment", "data.canonicalize",
    "stats.statistic", "stats.marginal_distribution_a", "expansion.expand",
    "worlds.enumerate_worlds", "worlds.count_matrix", "maxent.solve_maxent",
    "maxent.shrink_distribution", "maxent.distribution_statistic",
    "polytope.polytope_vertices", "polytope.hull_distance", "polytope.eta_interior",
    "estimation.run_error_experiment", "estimation.adjusted_estimate",
]
SELF_ONLY = [
    "data.parse_facts", "expansion.noisy_expand", "expansion.mixture_residual",
    "polytope.realizability_check", "estimation.sample_subexample",
]
# derived per-layer metrics: name -> (unit, better)
DERIVED = {
    "expansion.expand.atoms_out": ("count", "lower"),
    "worlds.enumerate_worlds.patterns": ("count", "lower"),
    "worlds.enumerate_worlds.accept_ratio": ("ratio", "higher"),
    "worlds.count_matrix.hit_ratio": ("ratio", "higher"),
    "worlds.count_matrix.groundings": ("count", "lower"),
    "worlds.count_matrix.ns_per_grounding": ("ns", "lower"),
    "maxent.solve_maxent.iterations": ("count", "lower"),
    "maxent.solve_maxent.not_realizable": ("count", "higher"),
    "polytope.polytope_vertices.vertices": ("count", "lower"),
    "polytope.hull_distance.us_per_query": ("us", "lower"),
    "polytope.eta_interior.probes": ("count", "lower"),
    "estimation.run_error_experiment.trials": ("count", "lower"),
}
SUITES = (
    "worked-example", "expansion-example", "duality", "realizability", "shrink",
    "expansion-sweep", "interiority-transfer", "estimation-bounds", "determinism",
)
# each suite runs once per set of traced runs, in the workload that exercises
# the same layers; its metric reads 0 in the other workloads
SUITES_BY_WORKLOAD = {
    "fit": ("worked-example", "duality", "realizability"),
    "geometry": ("shrink", "interiority-transfer"),
    "estimate": ("expansion-example", "expansion-sweep", "estimation-bounds", "determinism"),
}
OVERHEAD = "trace.overhead_ratio"

# workload -> (layer-metric prefixes expected to dominate traced self time,
# prefixes expected to stay under a tenth of it); "holds<count_matrix" is
# logic.holds time spent under worlds.count_matrix
DESIGN = {
    "fit": ((COUNT_MATRIX, "holds<count_matrix", "maxent.solve_maxent"), ("polytope.",)),
    "geometry": (("polytope.",), (COUNT_MATRIX, "holds<count_matrix")),
    "estimate": (("expansion.", "stats.", "data.", "logic."),
                 ("worlds.", "maxent.", "polytope.")),
}


def metric_spec():
    """Every per-layer metric in report order: name -> (unit, better)."""
    spec = {}
    layer_order = ["cli", "logic", "data", "stats", "expansion", "worlds", "maxent",
                   "polytope", "estimation"]
    for layer in layer_order:
        for fn in CALLS_AND_SELF + SELF_ONLY:
            if fn.split(".")[0] != layer:
                continue
            if fn in CALLS_AND_SELF:
                spec[f"{fn}.calls"] = ("count", "lower")
            spec[f"{fn}.self_s"] = ("s", "lower")
            spec.update({k: v for k, v in DERIVED.items() if k.startswith(fn + ".")})
    for suite in SUITES:
        spec[f"verify.{suite}.s"] = ("s", "lower")
    spec[OVERHEAD] = ("ratio", "lower")
    return spec


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(tracer):
    """Per-layer values of one traced pass (no suite timings, no overhead)."""
    totals = tracer.totals()
    c = tracer.counters

    def calls(name):
        return totals[name][0] if name in totals else 0

    def self_s(name):
        return totals[name][1] if name in totals else 0.0

    values = {}
    for fn in CALLS_AND_SELF:
        values[f"{fn}.calls"] = calls(fn)
    for fn in CALLS_AND_SELF + SELF_ONLY:
        values[f"{fn}.self_s"] = self_s(fn)
    for name in ("expansion.expand.atoms_out", "worlds.enumerate_worlds.patterns",
                 "worlds.count_matrix.groundings", "maxent.solve_maxent.iterations",
                 "maxent.solve_maxent.not_realizable", "polytope.polytope_vertices.vertices",
                 "polytope.eta_interior.probes", "estimation.run_error_experiment.trials"):
        values[name] = c.get(name, 0)
    values["worlds.enumerate_worlds.accept_ratio"] = _ratio(
        c.get("worlds.enumerate_worlds.accepted", 0), c.get("worlds.enumerate_worlds.patterns", 0))
    values["worlds.count_matrix.hit_ratio"] = _ratio(
        c.get(COUNT_MATRIX + ".hits", 0), calls(COUNT_MATRIX))
    values["worlds.count_matrix.ns_per_grounding"] = 1e9 * _ratio(
        c.get(COUNT_MATRIX + ".miss_s", 0.0), c.get(COUNT_MATRIX + ".groundings", 0))
    values["polytope.hull_distance.us_per_query"] = 1e6 * _ratio(
        self_s("polytope.hull_distance"), calls("polytope.hull_distance"))
    return values


def design_shares(tracer, workload):
    """Shares of traced self time taken by the workload's heavy and bypassed
    layers, against the whole time spent inside relmarg."""
    totals = tracer.totals()
    layer_self = {n: s for n, (_, s) in totals.items() if not n.startswith("job:")}
    under = tracer.hot_under("logic.holds", COUNT_MATRIX)
    whole = sum(layer_self.values())

    def share(prefixes):
        t = sum(s for n, s in layer_self.items() if n.startswith(prefixes))
        if "holds<count_matrix" in prefixes:
            t += under
        return _ratio(t, whole)

    heavy, bypass = DESIGN[workload]
    return share(heavy), share(bypass), whole


def run_traced(workload, seed):
    """Traced run: the per-layer metrics."""
    workdir = os.path.join(common.WORK, f"trace-{os.getpid()}")
    tracer = Tracer()
    try:
        jobs = harness.setup(workload, seed, workdir)
        reference = harness.load_reference(workload, seed, len(jobs))
        jobs = jobs[: TRACE_ROUNDS * harness.workload_module(workload).DECK_SIZE]
        harness.settle()
        warm = harness.Runner(jobs, reference)
        for i in range(len(jobs) // TRACE_ROUNDS):
            warm.run_one(i)
        plain = harness.Runner(jobs, reference, calibrate=True)
        for i in range(len(jobs)):
            plain.run_one(i)
        traced = harness.Runner(jobs, reference, calibrate=True)
        tracer.install()
        try:
            for i in range(len(jobs)):
                traced.run_one(i, tracer)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    from relmarg import verify

    # times are scaled to the reference speed, like the timed runs'
    speed = statistics.median(traced.factors)
    values = {k: v * speed if k.endswith(TIMED_SUFFIXES) else v
              for k, v in layer_values(tracer).items()}
    failed_suites = []
    for suite in SUITES_BY_WORKLOAD[workload]:
        before = common.kernel_seconds(SUITE_CALIBRATION_S)
        start = time.perf_counter()
        result = verify.run_suite(suite)
        elapsed = time.perf_counter() - start
        after = common.kernel_seconds(SUITE_CALIBRATION_S)
        values[f"verify.{suite}.s"] = elapsed * common.CAL_REF_S / ((before + after) / 2)
        if not result.passed:
            failed_suites.append(suite)
    values[OVERHEAD] = sum(traced.scaled) / sum(plain.scaled)
    heavy, bypass, whole = design_shares(tracer, workload)
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(TRACE_DIR, f"{workload}-seed{seed}.json")
    tracer.dump(trace_path, {"workload": workload, "seed": seed, "metrics": values})
    attempted = (warm.attempted + plain.attempted + traced.attempted
                 + len(SUITES_BY_WORKLOAD[workload]))
    failed = warm.failed + plain.failed + traced.failed + len(failed_suites)
    for suite in failed_suites:
        print(f"verify suite {suite} failed", file=sys.stderr)
    spec = metric_spec()
    metrics = {name: (values.get(name, 0), spec[name][0]) for name in spec}
    extra = {
        "design.heavy_share": (heavy, "ratio"),
        "design.bypass_share": (bypass, "ratio"),
        "traced_self_s": (whole, "s"),
    }
    print(f"spans written to {os.path.relpath(trace_path, common.ROOT)}", file=sys.stderr)
    return attempted, failed, metrics, extra
