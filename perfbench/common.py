"""Shared plumbing of the relmarg benchmark.

The benchmark runs from the root of a source checkout and imports relmarg
from that checkout's ``src/`` directory, never from an installed copy.  BLAS
and OpenMP pools are pinned to one thread and ``RELMARG_THREADS`` is unset
before numpy is imported, so every job runs in the calling thread.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DEFAULT_SEED = 1
# absolute tolerance for every float output compared with a reference or an
# invariant (achieved marginals, hull distances, error bounds)
FLOAT_TOL = 1e-6
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (for example, it has no relmarg)."""


def pin_environment(env=None):
    """Pin thread pools to one thread and drop RELMARG_THREADS, in ``env``
    (default: this process, which must not have imported numpy yet)."""
    env = os.environ if env is None else env
    env.update(PINNED_ENV)
    env.pop("RELMARG_THREADS", None)
    return env


def load_relmarg():
    """Import relmarg (and with it numpy and scipy) from ``<root>/src``; fail
    if the checkout does not hold it.  The CLI module is imported too,
    because the ``fit`` workload calls it."""
    if not os.path.isfile(os.path.join(SRC, "relmarg", "__init__.py")):
        raise SetupError(f"no relmarg package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    relmarg = importlib.import_module("relmarg")
    where = os.path.dirname(os.path.abspath(relmarg.__file__))
    if where != os.path.join(SRC, "relmarg"):
        raise SetupError(f"relmarg imported from {where}, not from {SRC}")
    importlib.import_module("relmarg.cli")
    return relmarg


def source_digest() -> str:
    """Digest of every Python source file of the package under test."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "relmarg")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


# Host speed.  Shared machines change speed by tens of percent within
# seconds, for the benchmark and the program alike, so timed runs scale each
# latency by how long a fixed calibration kernel takes next to it.
CAL_REF_S = 70e-6  # kernel time at the reference speed
CAL_SHARE = 0.05  # calibration time after a job, as a share of the job's time
CAL_MIN_S = 0.004
_CAL_ATOMS = frozenset(("r", (i,)) for i in range(32))


def calibration_kernel():
    """Fixed work shaped like the program's: tuple hashing, set membership,
    and numpy calls on small arrays."""
    import numpy as np

    hits = 0
    for i in range(250):
        hits += ("r", (i % 47,)) in _CAL_ATOMS
    scores = np.linspace(0.0, 1.0, 256)
    for _ in range(8):
        hits += float(np.exp(scores - scores.max()).sum())
    return hits


def kernel_seconds(seconds):
    """Mean time of one calibration kernel, run for at least ``seconds``."""
    clock = time.perf_counter
    start = clock()
    runs = 0
    while True:
        calibration_kernel()
        runs += 1
        elapsed = clock() - start
        if elapsed >= seconds:
            return elapsed / runs


@dataclass
class Outcome:
    """What a job produced, reduced for checking.

    ``exact`` is a canonical text of every exact output (rationals, vertex
    sets, verdicts); references store its digest.  ``floats`` are compared
    within FLOAT_TOL.  ``problems`` lists broken construction invariants.
    """

    exact: str
    floats: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.exact.encode()).hexdigest()[:32]


@dataclass
class Job:
    """One closed-loop request: ``run`` is the timed call into relmarg and
    ``check`` turns its result into an Outcome, untimed."""

    template: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def compare_with_reference(outcome: Outcome, ref: dict) -> list[str]:
    """Problems found comparing one outcome with its recorded reference."""
    problems = []
    if outcome.digest != ref["digest"]:
        problems.append("exact outputs differ from the reference")
    want = ref["floats"]
    if len(outcome.floats) != len(want):
        problems.append(f"{len(outcome.floats)} float outputs, reference has {len(want)}")
    else:
        for i, (got, ref_value) in enumerate(zip(outcome.floats, want)):
            if not abs(got - ref_value) <= FLOAT_TOL:
                problems.append(f"float output {i} is {got!r}, reference {ref_value!r}")
                break
    return problems


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending list."""
    if not sorted_values:
        raise ValueError("no values")
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def frac_text(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def fixed_rng(name):
    """A generator that does not depend on ``--seed``.  Choices that set a
    job's cost (formula sets, densities) use it, so every seed runs the same
    cost mix; the seed picks targets, structures, query points and order."""
    return random.Random(f"relmarg-bench:fixed:{name}")


def balanced_picks(rng, options, count):
    """``count`` picks cycling through shuffles of ``options``, so that over
    whole cycles every option appears equally often."""
    options = list(options)
    picks = []
    while len(picks) < count:
        cycle = list(options)
        rng.shuffle(cycle)
        picks.extend(cycle)
    return picks[:count]
