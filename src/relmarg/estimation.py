"""Estimating statistics of a large structure from a sampled substructure.

The workflow mirrors the intended use: a ground-truth structure is too big to
observe, a uniformly sampled size-m fragment is available, and the statistic
at a target domain size is estimated from the fragment's periodic expansion.
`run_error_experiment` measures the absolute estimation error over repeated
draws, reading every trial's estimate through `expansion.expanded_statistics`
(the one reader of expanded statistics) as integer hits, so that each error
is one fraction over one common denominator, and compares it against the
closed-form expectation bound

    1 - ((m-k+1)/m)^(k-1)  +  sqrt((1 + 2 log 2) / (4 floor(m/k)))

whose first term is the expansion distortion and whose second is the sampling
term; floor(m/k) plays the role of an effective sample size.

`index_set_rows` is the index-set sampling process used to prove the
sampling term: index sets drawn from an abstract universe, their union
mapped injectively into the observed constants, one draw as one array of
positions.  `disjoint_sample_estimator` is its evaluation, one indicator
per set; it matches the direct subset estimator in distribution, which the
test suite checks exhaustively on tiny structures.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .data import GlobalExample, fragment, position_grid
from .errors import DomainError
from .expansion import expanded_statistic, expanded_statistics
from .logic import Formula
from .stats import (
    CheckedFormula,
    ModelKind,
    check_formulas,
    count_groundings,
    structure_tables,
)


def sample_positions(n: int, m: int, rng: random.Random) -> list[int]:
    """A uniformly chosen size-m subset of the positions 0..n-1, sorted: the
    one draw of ``sample_subexample`` and of each trial of
    ``run_error_experiment``."""
    return sorted(rng.sample(range(n), m))


def sample_subexample(example: GlobalExample, m: int, rng: random.Random) -> GlobalExample:
    """Fragment on a uniformly chosen size-m constant subset."""
    n = len(example.constants)
    if not 0 <= m <= n:
        raise DomainError(f"sample size {m} outside 0..{n}")
    return fragment(example, [example.constants[i] for i in sample_positions(n, m, rng)])


def expansion_level(n: int, target_size: int) -> int:
    """Level at which the expansion of ``n`` constants reaches ``target_size``:
    ceil(target_size / n), so the expanded domain is at least as large as the
    target; level 1 (no growth) when the ``n`` constants already reach it."""
    if n == 0:
        raise DomainError("cannot estimate from an empty structure")
    if target_size < 1:
        raise DomainError(f"target size {target_size} must be positive")
    return max(1, math.ceil(target_size / n))


def adjusted_estimate(
    example: GlobalExample, f: Formula, kind: ModelKind, target_size: int
) -> Fraction:
    """Statistic of the fragment's expansion, leveled to reach ``target_size``
    (see ``expansion_level``).  The expansion is not built
    (``expanded_statistic``), so any target size is admissible."""
    level = expansion_level(len(example.constants), target_size)
    return expanded_statistic(f, example, kind, level)


def effective_sample_size(m: int, k: int) -> int:
    if k < 1:
        raise DomainError(f"width {k} must be positive")
    if m < 0:
        raise DomainError(f"sample size {m} must be non-negative")
    return m // k


def expected_error_bound(m: int, k: int) -> float:
    """Closed-form bound on the expected absolute estimation error: the
    expansion distortion plus the sampling term."""
    if not 1 <= k <= m:
        raise DomainError(f"need 1 <= width <= sample size, got k={k}, m={m}")
    sampling = math.sqrt((1.0 + 2.0 * math.log(2.0)) / (4.0 * (m // k)))
    distortion = 1.0 - ((m - k + 1) / m) ** (k - 1)
    return distortion + sampling


def index_set_rows(n: int, k: int, universe: int, rng: random.Random) -> np.ndarray:
    """One draw of the index-set process, as a (floor(n/k), k) array of
    positions into the ``n`` observed constants: floor(n/k) index sets of
    size k are sampled from {0..universe-1}, and their union is mapped into
    the positions by a uniform injective function."""
    index_sets = [rng.sample(range(universe), k) for _ in range(n // k)]
    union = sorted(set(itertools.chain.from_iterable(index_sets)))
    # sampling positions draws exactly what sampling the constants would
    g = np.zeros(universe, dtype=np.intp)
    g[union] = rng.sample(range(n), len(union))
    return g[np.array(index_sets, dtype=np.intp).reshape(n // k, k)]


def disjoint_sample_estimator(
    example: GlobalExample,
    f: Formula,
    kind: ModelKind,
    rng: random.Random,
    universe_size: int | None = None,
) -> Fraction:
    """One draw of the index-set estimator: the mean of one satisfaction
    indicator per row of ``index_set_rows`` over the constants of
    ``example``, with the universe size defaulting to n = |constants| (the
    case where the observed structure is the whole universe).  The
    indicator is fragment satisfaction for subset statistics, substitution
    satisfaction for the injective-grounding kind, whose index sets are
    ordered.
    """
    n = len(example.constants)
    (checked,) = check_formulas((f,), example.vocabulary(), kind, n)
    universe = n if universe_size is None else universe_size
    if universe < n:
        raise DomainError(f"universe size {universe} below |constants| = {n}")
    rows = index_set_rows(n, checked.width, universe, rng)
    tables = structure_tables(example, checked.vocabulary)
    hits = count_groundings(checked, rows, tables, 1)[0]
    return Fraction(int(hits), len(rows))


def random_structure(
    n: int,
    vocabulary: Mapping[str, int],
    density: float,
    rng: random.Random,
) -> GlobalExample:
    """Seeded generator of ground-truth structures: constants c1..cn, each
    possible atom included independently with probability ``density``."""
    if n < 1:
        raise DomainError(f"domain size {n} must be positive")
    if not 0.0 <= density <= 1.0:
        raise DomainError(f"density {density} outside [0, 1]")
    constants = tuple(f"c{i}" for i in range(1, n + 1))
    drawn = {}
    for pred in sorted(vocabulary):
        # one draw per possible atom, in product order, which is sorted
        grid = position_grid(n, vocabulary[pred])
        drawn[pred] = grid[np.array([rng.random() for _ in range(len(grid))]) < density]
    return GlobalExample._from_positions(constants, {p: drawn[p] for p in vocabulary}, vocabulary)


@dataclass(frozen=True)
class ExperimentConfig:
    """One estimation experiment: repeatedly sample a size-m fragment of the
    ground truth and score the expansion-adjusted estimate at the target
    domain size against the exact ground-truth statistic.  ``checked`` holds
    the formulas' records under the ground truth's vocabulary and ``kind``."""

    ground_truth: GlobalExample
    sample_size: int
    target_size: int
    formulas: tuple[Formula, ...]
    kind: ModelKind
    trials: int = 100
    seed: int = 0
    checked: tuple[CheckedFormula, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "formulas", tuple(self.formulas))
        if not self.formulas:
            raise DomainError("no formulas to estimate")
        if self.trials < 1:
            raise DomainError(f"trials {self.trials} must be >= 1")
        total = len(self.ground_truth.constants)
        if not 1 <= self.sample_size <= total:
            raise DomainError(f"sample size {self.sample_size} outside 1..{total}")
        if self.target_size < 1:
            raise DomainError(f"target size {self.target_size} must be positive")
        vocabulary = self.ground_truth.vocabulary()
        checked = []
        for f in self.formulas:
            (c,) = check_formulas((f,), vocabulary, self.kind)
            if c.width > self.sample_size:
                raise DomainError(f"width {c.width} exceeds the sample size {self.sample_size}")
            checked.append(c)
        object.__setattr__(self, "checked", tuple(checked))


@dataclass(frozen=True)
class ErrorReport:
    """Per-formula outcome of an error experiment."""

    formula: Formula
    width: int
    trial_errors: tuple[Fraction, ...]
    mean_error: Fraction
    bound: float
    effective_sample_size: int
    passed: bool


def run_error_experiment(cfg: ExperimentConfig) -> tuple[ErrorReport, ...]:
    """Measure |exact ground-truth statistic - adjusted estimate| over
    ``cfg.trials`` independent draws, one report per formula.

    Every trial derives its own RNG from (seed, trial index), so each trial
    is reproducible on its own; errors are exact rationals.  The formulas
    were checked with the configuration, and the ground truth's truth tables
    and exact statistics are computed once.  Every trial draws its sample's
    positions (``sample_positions``), and one ``expanded_statistics`` call
    reads each formula's ``adjusted_estimate`` for every trial off the
    ground truth's tables, so neither a sample nor its expansion is built.
    With H of N groundings holding in the ground truth and h of T in a
    trial's expansion, the trial's error is |H*T - h*N| / (N*T), and the
    mean is the sum of those numerators over N*T*trials.
    """
    truth, m = cfg.ground_truth, cfg.sample_size
    n = len(truth.constants)
    # a predicate the ground truth lacks gets no table: it is false everywhere
    used = set().union(*(c.vocabulary for c in cfg.checked))
    tables = structure_tables(truth, {p: a for p, a in truth.vocabulary().items() if p in used})
    rngs = (random.Random(f"{cfg.seed}:{t}") for t in range(cfg.trials))
    positions = np.array([sample_positions(n, m, rng) for rng in rngs], dtype=np.intp)
    level = expansion_level(m, cfg.target_size)
    hits, totals = expanded_statistics(cfg.checked, tables, positions, level)
    reports = []
    for f, c, row, total in zip(cfg.formulas, cfg.checked, hits, totals):
        exact, count = c.hits(tables, n), c.count(n)
        # |exact/count - h/total| over the one denominator count * total
        gaps = [abs(exact * total - h * count) for h in row]
        scale = count * total
        trial_errors = tuple(Fraction(gap, scale) for gap in gaps)
        mean = Fraction(sum(gaps), scale * len(gaps))
        bound = expected_error_bound(m, c.width)
        k_eff = effective_sample_size(m, c.width)
        reports.append(ErrorReport(f, c.width, trial_errors, mean, bound, k_eff, float(mean) <= bound))
    return tuple(reports)
