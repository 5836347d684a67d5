"""Self-tests of the benchmark: contract, smoke runs, tracing and the gate.

    python3 -m pytest perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import common
import harness
import run
import spans
import tracerun

BENCHMARK = os.path.join(common.ROOT, "BENCHMARK.json")
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture
def spec():
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path / "jobs")


def test_benchmark_json_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(UNIT_RE.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def test_emitted_metrics_match_benchmark_json(spec):
    end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end == harness.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == tracerun.metric_spec()


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_first_round_of_each_workload_passes_its_checks(workload, workdir):
    jobs = harness.setup(workload, 7, workdir)
    deck = harness.workload_module(workload).DECK_SIZE
    runner = harness.Runner(jobs, None)
    for i in range(deck):
        runner.run_one(i)
    assert runner.attempted == deck and runner.failed == 0
    assert len({job.template for job in jobs[:deck]}) == deck


def test_default_seed_matches_its_reference(workdir):
    jobs = harness.setup("estimate", common.DEFAULT_SEED, workdir)
    reference = harness.load_reference("estimate", common.DEFAULT_SEED, len(jobs))
    runner = harness.Runner(jobs, reference)
    for i in range(len(jobs) // harness.workload_module("estimate").LIST_ROUNDS):
        runner.run_one(i)
    assert runner.failed == 0


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    def first_outputs(seed, sub):
        jobs = harness.setup("geometry", seed, str(tmp_path / sub))
        return [job.check(job.run()).digest for job in jobs[:3]]

    assert first_outputs(3, "a") == first_outputs(3, "b")
    assert first_outputs(3, "a") != first_outputs(4, "c")


def _last_json_line(text):
    return json.loads(text.strip().splitlines()[-1])


def test_timed_run_prints_every_end_to_end_metric(spec, monkeypatch, capsys):
    monkeypatch.setattr(harness, "MIN_JOBS", 1)
    monkeypatch.setattr(harness, "SETUP_SAMPLES", 1)
    assert run.main(["--workload", "estimate", "--seed", "5", "--seconds", "0"]) == 0
    result = _last_json_line(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


class _Passed:
    passed = True


def test_traced_run_prints_every_per_layer_metric(spec, monkeypatch, capsys):
    from relmarg import verify

    monkeypatch.setattr(tracerun, "TRACE_ROUNDS", 1)
    monkeypatch.setattr(verify, "run_suite", lambda name: _Passed())
    assert run.main(["--workload", "fit", "--seed", "5", "--trace", "1"]) == 0
    result = _last_json_line(capsys.readouterr().out)
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.main.calls"] == harness.workload_module("fit").DECK_SIZE
    assert metrics["logic.holds.calls"] > 0 and metrics["worlds.count_matrix.groundings"] > 0
    assert metrics["estimation.run_error_experiment.calls"] == 0
    assert spans.wrapped_attributes() == []


def test_tracer_wraps_rebound_names_and_restores_them():
    from relmarg import cli, logic, stats, worlds

    originals = (cli.solve_maxent, stats.holds, logic.holds, worlds.WorldSpace.count_matrix)
    before = common.source_digest()
    tracer = spans.Tracer()
    tracer.install()
    try:
        found = set(spans.wrapped_attributes())
        assert ("relmarg.cli", "solve_maxent") in found
        assert ("relmarg.stats", "holds") in found
        assert ("relmarg.worlds", "WorldSpace.count_matrix") in found
    finally:
        tracer.uninstall()
    assert spans.wrapped_attributes() == []
    assert (cli.solve_maxent, stats.holds, logic.holds, worlds.WorldSpace.count_matrix) == originals
    assert common.source_digest() == before


def test_self_times_add_up_to_job_time(workdir):
    jobs = harness.setup("estimate", 2, workdir)[:2]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i, job in enumerate(jobs):
            with tracer.job_span(i, job.template):
                job.run()
    finally:
        tracer.uninstall()
    roots = [s for s in tracer.spans if s[spans.PARENT] is None]
    assert len(roots) == 2
    whole = sum(s[spans.END] - s[spans.START] for s in roots)
    total_self = sum(self_s for _, self_s in tracer.totals().values())
    assert total_self == pytest.approx(whole, rel=1e-9)
    totals = tracer.totals()
    assert totals["data.canonicalize"][0] > 0 and totals["stats.statistic"][0] > 0
    # hot leaves aggregate on their parents instead of opening spans
    assert not any(s[spans.NAME] in spans.HOT for s in tracer.spans)


def _run_default_seed_job(workload, pick, workdir):
    jobs = harness.setup(workload, common.DEFAULT_SEED, workdir)
    index = next(i for i, job in enumerate(jobs) if pick(job.template))
    runner = harness.Runner(jobs, harness.load_reference(workload, common.DEFAULT_SEED, len(jobs)))
    runner.run_one(index)
    return runner


def test_a_fraction_off_by_one_ulp_is_an_error(monkeypatch, workdir):
    from relmarg import expansion

    original = expansion.mixture_residual

    def nudged(*args):
        residual = original(*args)
        key = min(residual, key=lambda k: (k.width, k.atoms))
        residual[key] += Fraction(1, residual[key].denominator)
        return residual

    assert _run_default_seed_job("estimate", lambda t: True, workdir).failed == 0
    monkeypatch.setattr(expansion, "mixture_residual", nudged)
    assert _run_default_seed_job("estimate", lambda t: True, workdir + "2").failed == 1


def test_a_shifted_shrink_probability_is_an_error(monkeypatch, workdir):
    from relmarg import maxent

    original = maxent.shrink_distribution

    def shifted(dist, m):
        small = original(dist, m)
        probs = list(small.probs)
        i = max(range(len(probs)), key=lambda j: probs[j])
        ulp = Fraction(1, probs[i].denominator)
        probs[i] -= ulp
        probs[(i + 1) % len(probs)] += ulp
        return maxent.ExplicitDistribution(small.space, tuple(probs))

    monkeypatch.setattr(maxent, "shrink_distribution", shifted)
    assert _run_default_seed_job("geometry", lambda t: True, workdir).failed == 1


def test_a_flipped_verdict_is_an_error(monkeypatch, workdir):
    from relmarg import polytope

    assert _run_default_seed_job("fit", lambda t: t.startswith("outside"), workdir).failed == 0
    monkeypatch.setattr(polytope, "hull_distance", lambda point, poly, **kw: 0.0)
    runner = _run_default_seed_job("fit", lambda t: t.startswith("outside"), workdir + "2")
    assert runner.failed == 1


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.join(common.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
