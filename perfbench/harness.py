"""Set-up, the closed loop and output checking, shared by timed and traced runs."""

from __future__ import annotations

import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import common
from spans import wrapped_attributes

WORKLOADS = ("fit", "geometry", "estimate")
MIN_JOBS = 160
SETUP_SAMPLES = 5
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
RUN_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MiB",
}


def workload_module(name):
    return importlib.import_module(name)


def rng_for(workload, seed):
    return random.Random(f"relmarg-bench:{workload}:{seed}")


def setup(workload, seed, workdir):
    """Import relmarg, generate the job list and write its input files.

    The list holds the workload's LIST_ROUNDS rounds of its template mix; the
    closed loop cycles through it if it runs out.
    """
    common.load_relmarg()
    os.makedirs(workdir, exist_ok=True)
    module = workload_module(workload)
    return module.make_jobs(rng_for(workload, seed), workdir, module.LIST_ROUNDS)


def measure_setup(workload, seed):
    """Median wall time of fresh interpreters that import relmarg, numpy and
    scipy, generate the job list and write its input files."""
    times = []
    for i in range(SETUP_SAMPLES):
        workdir = os.path.join(common.WORK, f"setup-{os.getpid()}-{i}")
        cmd = [sys.executable, RUN_SCRIPT, "--setup-only", workdir,
               "--workload", workload, "--seed", str(seed)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=common.ROOT, env=common.pin_environment(dict(os.environ)),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=120)
        times.append(time.perf_counter() - start)
        shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise common.SetupError(f"set-up probe failed: {proc.stderr.strip()}")
    return statistics.median(times)


def load_reference(workload, seed, n_jobs):
    if seed != common.DEFAULT_SEED:
        return None
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    if len(ref["jobs"]) < n_jobs:
        raise common.SetupError(
            f"reference holds {len(ref['jobs'])} jobs, the job list has {n_jobs}"
        )
    return ref["jobs"]


class Runner:
    """Runs jobs one at a time and checks each output, untimed.

    With ``calibrate``, the calibration kernel runs after each job for a
    share of its time, and each latency is also kept scaled to the reference
    speed by the kernel times just before and after the job.
    """

    def __init__(self, jobs, reference, calibrate=False):
        self.jobs = jobs
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.factors = []  # reference speed over the speed next to each job
        self.scaled = []
        self._kernel_s = None
        if calibrate:
            common.kernel_seconds(common.CAL_MIN_S)  # first call imports numpy
            self._kernel_s = common.kernel_seconds(common.CAL_MIN_S)

    def run_one(self, index, tracer=None):
        job = self.jobs[index % len(self.jobs)]
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                result = job.run()
            else:
                with tracer.job_span(index, job.template):
                    result = job.run()
        except Exception:
            self._record(time.perf_counter() - start)
            self._fail(index, job, ["raised:\n" + traceback.format_exc(limit=4)])
            return
        self._record(time.perf_counter() - start)
        try:
            outcome = job.check(result)
        except Exception:
            self._fail(index, job, ["output check raised:\n" + traceback.format_exc(limit=4)])
            return
        problems = list(outcome.problems)
        if self.reference is not None:
            problems += common.compare_with_reference(
                outcome, self.reference[index % len(self.jobs)]
            )
        if problems:
            self._fail(index, job, problems)

    def _record(self, latency):
        self.latencies.append(latency)
        if self._kernel_s is not None:
            after = common.kernel_seconds(max(common.CAL_MIN_S, common.CAL_SHARE * latency))
            self.factors.append(common.CAL_REF_S / ((self._kernel_s + after) / 2))
            self.scaled.append(latency * self.factors[-1])
            self._kernel_s = after

    def _fail(self, index, job, problems):
        self.failed += 1
        if self.failed <= 5:
            print(f"job {index} ({job.template}) failed: " + "; ".join(problems), file=sys.stderr)


def settle():
    """Keep the objects set-up made out of later garbage collections, so their
    number does not change the cost of collections during jobs."""
    gc.collect()
    gc.freeze()


def run_timed(workload, seed, seconds):
    """Untraced run: the end-to-end metrics."""
    setup_s = measure_setup(workload, seed)
    workdir = os.path.join(common.WORK, f"run-{os.getpid()}")
    try:
        jobs = setup(workload, seed, workdir)
        runner = Runner(jobs, load_reference(workload, seed, len(jobs)), calibrate=True)
        settle()
        deck = workload_module(workload).DECK_SIZE
        start = time.perf_counter()
        index = 0
        while True:
            runner.run_one(index)
            index += 1
            if (index % deck == 0 and index >= MIN_JOBS
                    and time.perf_counter() - start >= seconds):
                break
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wrapped = wrapped_attributes()
    if wrapped:
        raise common.SetupError(f"untraced run found wrappers installed: {wrapped[:3]}")
    completed = runner.attempted - runner.failed
    scaled = sorted(runner.scaled)
    raw = sorted(runner.latencies)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": completed / sum(runner.scaled),
        "job_p50_s": common.quantile(scaled, 0.5),
        "job_p90_s": common.quantile(scaled, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "error_rate": (runner.failed / runner.attempted, "ratio"),
        "jobs": (runner.attempted, "count"),
        "wall_s": (wall, "s"),
        # the same figures without scaling to the reference speed
        "raw_jobs_per_s": (completed / sum(runner.latencies), "1/s"),
        "raw_job_p50_s": (common.quantile(raw, 0.5), "s"),
        "raw_job_p90_s": (common.quantile(raw, 0.9), "s"),
    }
    metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    return runner.attempted, runner.failed, metrics, extra
