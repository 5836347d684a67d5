"""Sampling estimators, their error bounds, and experiment plumbing."""

import collections
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_stats import A_POOL, B_POOL

from relmarg import estimation, expansion, stats, verify
from relmarg.errors import CapExceededError, DomainError
from relmarg.estimation import (
    ErrorReport,
    ExperimentConfig,
    adjusted_estimate,
    disjoint_sample_estimator,
    effective_sample_size,
    expansion_level,
    expected_error_bound,
    index_set_rows,
    random_structure,
    run_error_experiment,
    sample_positions,
    sample_subexample,
)
from relmarg.data import fragment
from relmarg.expansion import expand, representative_tables
from relmarg.logic import Const, parse_formula, strip_foralls
from relmarg.stats import MODEL_B, ModelA, statistic


def test_effective_sample_size():
    assert effective_sample_size(10, 2) == 5
    assert effective_sample_size(10, 3) == 3
    assert effective_sample_size(2, 3) == 0
    with pytest.raises(DomainError):
        effective_sample_size(10, 0)
    with pytest.raises(DomainError):
        effective_sample_size(-1, 2)


def test_expected_error_bound_frozen_values():
    assert expected_error_bound(10, 2) == pytest.approx(0.44541962604344665, abs=1e-15)
    # width 1 has no distortion term at all
    assert expected_error_bound(9, 1) == pytest.approx(
        math.sqrt((1 + 2 * math.log(2)) / 36), abs=1e-15
    )


def test_expected_error_bound_decreases_in_m():
    vals = [expected_error_bound(m, 2) for m in range(2, 60)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_expected_error_bound_validation():
    with pytest.raises(DomainError):
        expected_error_bound(3, 4)
    with pytest.raises(DomainError):
        expected_error_bound(3, 0)


def test_sample_subexample_is_a_fragment():
    truth = random_structure(8, {"r": 1, "e": 2}, 0.4, random.Random(1))
    rng = random.Random(2)
    sub = sample_subexample(truth, 3, rng)
    assert len(sub.constants) == 3
    assert set(sub.constants) <= set(truth.constants)
    for atom in sub.atoms:
        assert atom in truth.atoms
    # no truth atom over the kept constants is missing
    kept = set(sub.constants)
    for atom in truth.atoms:
        if all(a in kept for a in atom.args):
            assert atom in sub.atoms
    with pytest.raises(DomainError):
        sample_subexample(truth, 9, rng)


def test_adjusted_estimate_levels_to_target():
    truth = random_structure(4, {"e": 2}, 0.5, random.Random(3))
    f = parse_formula("exists X, Y: X != Y & e(X,Y)")
    # target below the fragment size: no expansion, plain statistic
    assert adjusted_estimate(truth, f, ModelA(2), 3) == statistic(f, truth, ModelA(2))
    # target 10 on 4 constants: level 3 expansion, 12 constants
    assert adjusted_estimate(truth, f, ModelA(2), 10) == statistic(
        f, expand(truth, 3), ModelA(2)
    )
    with pytest.raises(DomainError):
        adjusted_estimate(truth, f, ModelA(2), 0)


def test_adjusted_estimate_at_a_billion_constants_keeps_singleton_statistics():
    # a width-1 subset or a one-variable substitution sees one constant, and
    # every copy of a constant looks like it: the statistic at any level is
    # the base statistic, although the expansion would have 2.5e8 constants
    # per base constant, far over the expansion cap
    truth = random_structure(4, {"r": 1, "e": 2}, 0.5, random.Random(3))
    for text, kind in (
        ("exists X: r(X) | ~e(X,X)", ModelA(1)),
        ("forall X: r(X) | e(X,X)", MODEL_B),
    ):
        f = parse_formula(text)
        assert adjusted_estimate(truth, f, kind, 10**9) == statistic(f, truth, kind)


# ---------------------------------------------------------------------------
# unbiasedness of the plain subsample estimate at matching sizes

@pytest.mark.parametrize("kind_name", ["subset", "substitution"])
def test_subsample_estimate_is_unbiased_at_fragment_size(kind_name):
    # E over all size-m subsets of the fragment statistic equals the
    # size-m statistic of the whole structure
    import itertools

    truth = random_structure(5, {"r": 1, "e": 2}, 0.35, random.Random(9))
    if kind_name == "subset":
        f = parse_formula("exists X, Y: X != Y & e(X,Y)")
        kind = ModelA(2)
    else:
        f = parse_formula("forall X, Y: ~e(X,Y) | e(Y,X)")
        kind = MODEL_B
    for m in (2, 3):
        combos = list(itertools.combinations(truth.constants, m))
        from relmarg.data import fragment

        mean = sum(
            (statistic(f, fragment(truth, c), kind) for c in combos), Fraction(0)
        ) / len(combos)
        direct = statistic(f, truth, kind) if m == 5 else None
        # the mean over fragments of the width-2 statistic equals the
        # width-2 statistic of the full structure
        assert mean == statistic(f, truth, kind)


# ---------------------------------------------------------------------------
# index-set estimator

def test_disjoint_sample_estimator_range_and_determinism():
    truth = random_structure(6, {"r": 1}, 0.5, random.Random(4))
    f = parse_formula("exists X: r(X)")
    a = disjoint_sample_estimator(truth, f, ModelA(1), random.Random(11))
    b = disjoint_sample_estimator(truth, f, ModelA(1), random.Random(11))
    assert a == b
    assert 0 <= a <= 1


def test_disjoint_sample_estimator_universe_validation():
    truth = random_structure(4, {"r": 1}, 0.5, random.Random(4))
    f = parse_formula("exists X: r(X)")
    with pytest.raises(DomainError):
        disjoint_sample_estimator(truth, f, ModelA(1), random.Random(0), universe_size=3)
    # a larger universe is fine; indices outside the image are never used
    v = disjoint_sample_estimator(truth, f, ModelA(1), random.Random(0), universe_size=50)
    assert 0 <= v <= 1


def test_disjoint_sample_estimator_is_unbiased_on_average():
    truth = random_structure(6, {"r": 1}, 0.5, random.Random(21))
    f = parse_formula("exists X: r(X)")
    exact = statistic(f, truth, ModelA(1))
    rng = random.Random(100)
    n = 4000
    total = sum(disjoint_sample_estimator(truth, f, ModelA(1), rng) for _ in range(n))
    assert abs(total / n - exact) < Fraction(1, 25)


def _replayed_estimate(example, f, kind, rng, universe):
    """Replays the estimator's draws.  Model A evaluates ``f`` on the
    fragment over each index set's constants; Model B grounds each
    substitution with ``oracles.apply_substitution`` and evaluates it on the
    whole structure."""
    vs = strip_foralls(f)[0]
    k = kind.width if isinstance(kind, ModelA) else len(vs)
    q = len(example.constants) // k
    index_sets = [tuple(rng.sample(range(universe), k)) for _ in range(q)]
    union = sorted(set(itertools.chain.from_iterable(index_sets)))
    g = dict(zip(union, rng.sample(example.constants, len(union))))
    if isinstance(kind, ModelA):
        hits = sum(
            oracles.evaluate(f, fragment(example, [g[i] for i in idx])) for idx in index_sets
        )
    else:
        hits = sum(
            oracles.evaluate(
                oracles.apply_substitution(f, {v: Const(g[i]) for v, i in zip(vs, idx)}), example
            )
            for idx in index_sets
        )
    return Fraction(hits, q)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from([(t, None) for t in B_POOL] + [(t, k) for t in A_POOL for k in (1, 2, 3)]),
    st.integers(3, 7),
    st.integers(0, 5),
)
def test_disjoint_sample_estimator_substitutions_match_replayed_oracle(
    seed, case, n, extra
):
    # a width of None is Model B; index sets of Model A are fragments
    text, width = case
    f = parse_formula(text)
    kind = MODEL_B if width is None else ModelA(width)
    truth = random_structure(n, {"r": 1, "e": 2}, 0.5, random.Random(seed))
    got = disjoint_sample_estimator(
        truth, f, kind, random.Random(seed), universe_size=n + extra
    )
    want = _replayed_estimate(truth, f, kind, random.Random(seed), n + extra)
    assert got == want


@pytest.mark.parametrize(("n", "k", "universe"), [(7, 2, 9), (6, 3, 6), (5, 1, 40), (1, 2, 5)])
def test_index_set_rows_are_injective_positions(n, k, universe):
    rows = index_set_rows(n, k, universe, random.Random(n * k + universe))
    assert rows.shape == (n // k, k) and rows.dtype == np.intp
    # distinct index sets may share indices, and a shared index is mapped to
    # one position: within a row the positions are distinct
    assert all(0 <= i < n for i in rows.flat)
    assert all(len(set(row)) == k for row in rows.tolist())


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(
        [(t, ModelA(k)) for t in A_POOL for k in (1, 2)] + [(t, MODEL_B) for t in B_POOL]
    ),
    st.data(),
)
def test_index_set_rows_in_a_sample_match_the_estimator_on_its_fragment(seed, case, data):
    # the tail checks' path: positions of the sample, then index-set rows in
    # them, read off the full structure's tables
    text, kind = case
    f = parse_formula(text)
    k = stats.formula_width(kind, f)
    total = data.draw(st.integers(k, 12))
    n = data.draw(st.integers(k, total))
    big = random_structure(total, {"r": 1, "e": 2}, 0.4, random.Random(seed))
    (checked,) = stats.check_formulas((f,), big.vocabulary(), kind, total)
    tables = stats.structure_tables(big, checked.vocabulary)
    rng = random.Random(seed)
    sample = np.array(sample_positions(total, n, rng), dtype=np.intp)
    hits = stats.count_groundings(checked, sample[index_set_rows(n, k, total, rng)], tables, 1)[0]
    rng2 = random.Random(seed)
    sub = sample_subexample(big, n, rng2)
    est = disjoint_sample_estimator(sub, f, kind, rng2, universe_size=total)
    assert int(hits) == (n // k) * est


def test_estimation_bounds_tail_checks_read_the_truth_tables_once_per_case(monkeypatch):
    calls = collections.Counter()

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in ("sample_subexample", "disjoint_sample_estimator"):
        wrapper = counted(name, getattr(estimation, name))
        monkeypatch.setattr(estimation, name, wrapper)
        # verify imports neither; if it ever does, those calls are counted too
        monkeypatch.setattr(verify, name, wrapper, raising=False)
    monkeypatch.setattr(verify, "structure_tables", counted("structure_tables", verify.structure_tables))
    assert verify.run_suite("estimation-bounds").passed
    # three tail cases, one set of tables each; no fragment is sampled
    assert calls == {"structure_tables": 3}


# ---------------------------------------------------------------------------
# random structures

def test_random_structure_shape_and_determinism():
    a = random_structure(5, {"r": 1, "e": 2}, 0.3, random.Random(77))
    b = random_structure(5, {"r": 1, "e": 2}, 0.3, random.Random(77))
    assert a == b
    assert a.constants == ("c1", "c2", "c3", "c4", "c5")
    assert a.vocabulary() == {"r": 1, "e": 2}


def test_random_structure_density_edges():
    empty = random_structure(4, {"e": 2}, 0.0, random.Random(0))
    assert not empty.atoms
    full = random_structure(4, {"e": 2}, 1.0, random.Random(0))
    assert len(full.atoms) == 16
    with pytest.raises(DomainError):
        random_structure(4, {"e": 2}, 1.5, random.Random(0))
    with pytest.raises(DomainError):
        random_structure(0, {"e": 2}, 0.5, random.Random(0))


# ---------------------------------------------------------------------------
# experiment runner

def _config(**overrides):
    base = dict(
        ground_truth=random_structure(8, {"r": 1}, 0.5, random.Random(6)),
        sample_size=4,
        target_size=8,
        formulas=(parse_formula("exists X: r(X)"),),
        kind=ModelA(1),
        trials=40,
        seed=13,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_experiment_reports_are_seed_deterministic():
    r1 = run_error_experiment(_config())
    r2 = run_error_experiment(_config())
    assert r1 == r2


def test_experiment_respects_bound_on_easy_instance():
    reports = run_error_experiment(_config(trials=200))
    (report,) = reports
    assert report.width == 1
    assert report.effective_sample_size == 4
    assert len(report.trial_errors) == 200
    assert report.mean_error == sum(report.trial_errors, Fraction(0)) / 200
    assert float(report.mean_error) <= report.bound
    assert report.passed


def test_experiment_config_validation():
    with pytest.raises(DomainError):
        _config(formulas=())
    with pytest.raises(DomainError):
        _config(trials=0)
    with pytest.raises(DomainError):
        _config(sample_size=9)
    with pytest.raises(DomainError):
        _config(target_size=0)
    with pytest.raises(DomainError):
        _config(
            formulas=(parse_formula("forall X, Y: r(X) | r(Y)"),),
            kind=MODEL_B,
            sample_size=1,
        )


@pytest.mark.parametrize("kind_name", ["subset", "substitution"])
def test_experiment_trial_errors_replay_adjusted_estimates(kind_name):
    # each trial's error is |exact - adjusted_estimate| on the sample that
    # trial's own RNG draws, for every formula
    truth = random_structure(10, {"r": 1, "e": 2}, 0.4, random.Random(8))
    if kind_name == "subset":
        kind, texts = ModelA(2), A_POOL[:4]
    else:
        kind, texts = MODEL_B, B_POOL[:3]
    cfg = ExperimentConfig(
        ground_truth=truth,
        sample_size=4,
        target_size=10,
        formulas=tuple(parse_formula(t) for t in texts),
        kind=kind,
        trials=8,
        seed=17,
    )
    reports = run_error_experiment(cfg)
    level = expansion_level(cfg.sample_size, cfg.target_size)
    for t in range(cfg.trials):
        sub = sample_subexample(truth, cfg.sample_size, random.Random(f"{cfg.seed}:{t}"))
        grown = expand(sub, level)  # the materialised expansion is the oracle
        for report, f in zip(reports, cfg.formulas):
            estimate = statistic(f, grown, kind)
            assert report.trial_errors[t] == abs(statistic(f, truth, kind) - estimate)


@pytest.mark.parametrize("kind_name", ["subset", "substitution"])
def test_experiment_trials_are_the_same_in_blocks(monkeypatch, kind_name):
    # the ground truth's tables have 10 + 10^2 = 110 cells; sampled at 4
    # and grown to level 3, two copies of 4 residues serve width 2, so one
    # trial's tables have 8 + 8^2 = 72 cells: a cap of 3 trials' cells
    # splits 8 trials into blocks of 3, 3 and 2, and a cap under 2 trials'
    # into 8 blocks
    truth = random_structure(10, {"r": 1, "e": 2}, 0.4, random.Random(8))
    if kind_name == "subset":
        kind, texts = ModelA(2), A_POOL[:4]
    else:
        kind, texts = MODEL_B, B_POOL[:3]
    cfg = ExperimentConfig(
        ground_truth=truth,
        sample_size=4,
        target_size=10,
        formulas=tuple(parse_formula(t) for t in texts),
        kind=kind,
        trials=8,
        seed=17,
    )
    want = run_error_experiment(cfg)
    blocks = []

    def recording(tables, positions, copies):
        blocks.append(len(positions))
        return representative_tables(tables, positions, copies)

    monkeypatch.setattr(expansion, "representative_tables", recording)
    for cap, sizes in [(3 * 72, [3, 3, 2]), (120, [1] * 8), (stats.TABLE_CELL_CAP, [8])]:
        monkeypatch.setattr(stats, "TABLE_CELL_CAP", cap)
        blocks.clear()
        assert run_error_experiment(cfg) == want
        assert blocks == sizes
    # a sample of 8 grown to level 2 has 16 + 16^2 = 272 cells per trial: one
    # trial over the cap is refused, as a single expansion's tables are
    monkeypatch.setattr(stats, "TABLE_CELL_CAP", 271)
    with pytest.raises(CapExceededError) as exc:
        run_error_experiment(replace(cfg, sample_size=8, target_size=16))
    assert exc.value.size == 272 and exc.value.cap == 271


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_experiment_reports_match_a_fraction_reference(data):
    # each report recomputed in Fractions: the ground truth's statistic,
    # each trial's adjusted estimate on the sample its own RNG draws, their
    # absolute differences and the mean of those
    n = data.draw(st.integers(2, 8))
    density = data.draw(st.sampled_from([0.2, 0.5, 0.8]))
    rng = random.Random(data.draw(st.integers(0, 99)))
    truth = random_structure(n, {"r": 1, "e": 2}, density, rng)
    m = data.draw(st.integers(1, n))
    if data.draw(st.booleans()):
        kind, pool = ModelA(data.draw(st.integers(1, min(m, 3)))), A_POOL
    else:
        kind = MODEL_B
        pool = [t for t in B_POOL if len(strip_foralls(parse_formula(t))[0]) <= m]
    texts = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    cfg = ExperimentConfig(
        ground_truth=truth,
        sample_size=m,
        target_size=data.draw(st.integers(1, 3 * n)),
        formulas=tuple(parse_formula(t) for t in texts),
        kind=kind,
        trials=data.draw(st.integers(1, 6)),
        seed=data.draw(st.integers(0, 99)),
    )
    reports = run_error_experiment(cfg)
    samples = [
        sample_subexample(truth, m, random.Random(f"{cfg.seed}:{t}")) for t in range(cfg.trials)
    ]
    for report, f, c in zip(reports, cfg.formulas, cfg.checked):
        exact = statistic(f, truth, kind)
        errors = tuple(abs(exact - adjusted_estimate(s, f, kind, cfg.target_size)) for s in samples)
        mean = sum(errors, Fraction(0)) / cfg.trials
        bound = expected_error_bound(m, c.width)
        assert report == ErrorReport(
            f, c.width, errors, mean, bound, effective_sample_size(m, c.width), float(mean) <= bound
        )
        assert all(type(e) is Fraction for e in report.trial_errors)


def test_experiment_multi_formula_widths():
    truth = random_structure(8, {"e": 2}, 0.4, random.Random(30))
    cfg = ExperimentConfig(
        ground_truth=truth,
        sample_size=4,
        target_size=8,
        formulas=(
            parse_formula("forall X: e(X,X)"),
            parse_formula("forall X, Y: ~e(X,Y) | e(Y,X)"),
        ),
        kind=MODEL_B,
        trials=30,
        seed=5,
    )
    r1, r2 = run_error_experiment(cfg)
    assert r1.width == 1 and r2.width == 2
    assert r1.effective_sample_size == 4 and r2.effective_sample_size == 2
    assert r1.bound < r2.bound
