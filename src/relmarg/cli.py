"""Command-line front end.

Subcommands: stats, expand, maxent, polytope, estimate, verify, pipeline.
Reports are JSON with sorted keys (or flat CSV via --format csv); exact
probabilities appear as {"rational": "p/q", "decimal": float} pairs.

Exit codes: 0 success, 1 domain or usage error, 2 unrealizable marginals,
3 a size cap exceeded (any cap the README lists).  ``main`` prints every
``error:`` line and picks the exit code of every error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import random
import sys
from fractions import Fraction

from .data import format_facts, read_facts
from .errors import (
    CapExceededError,
    InfeasibleError,
    NotRealizableError,
    ToolkitError,
)
from .estimation import ExperimentConfig, expansion_level, run_error_experiment
from .expansion import expand, expanded_statistic, noisy_expand, required_expansion_level
from .logic import format_formula, merge_vocabulary, unsatisfied_rules, vocabulary_of
from .maxent import solve_maxent
from .polytope import realizability_check
from .stats import (
    MODEL_B,
    MarginalConstraint,
    ModelA,
    ModelKind,
    read_constraints,
    read_formulas,
    statistic,
)
from .verify import available_suites, run_verification
from .worlds import check_atom_cap, enumerate_worlds


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, matching the exit-code
    contract (2 and 3 are reserved for solver and cap failures)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _value(x) -> dict:
    f = Fraction(x)
    return {"decimal": float(f), "rational": str(f)}


def _model_kind(model: str, width: int | None, flag: str = "--width") -> ModelKind:
    if model == "A":
        if width is None:
            raise ToolkitError(f"model A needs {flag}")
        return ModelA(width)
    if width is not None:
        raise ToolkitError(f"model B derives widths from formulas; drop {flag}")
    return MODEL_B


def _write(path: str | None, text: str) -> None:
    """Write report text to the file at ``path``, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(args, payload: dict, csv_text: str) -> None:
    _write(args.out, csv_text if args.format == "csv" else _json(payload))


def _csv_table(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _target_space(domain, vocab, formulas, hard=()):
    """World space over ``domain``: constant names, or a size N for c1..cN,
    whose atom cap is checked before any constant is named."""
    merged = merge_vocabulary(vocab, *map(vocabulary_of, (*formulas, *hard)))
    if isinstance(domain, int):
        check_atom_cap(domain, merged)
        domain = [f"c{i}" for i in range(1, domain + 1)]
    return enumerate_worlds(domain, merged, hard_rules=tuple(hard))


# ---------------------------------------------------------------------------
# stats

def cmd_stats(args) -> int:
    example = read_facts(args.facts)
    formulas = read_formulas(args.formulas)
    kind = _model_kind(args.model, args.width)
    rows = [
        {"formula": format_formula(f), "value": _value(statistic(f, example, kind))}
        for f in formulas
    ]
    payload = {
        "model": args.model,
        "statistics": rows,
        "width": args.width,
    }
    table = _csv_table(
        ["formula", "rational", "decimal"],
        [
            [r["formula"], r["value"]["rational"], r["value"]["decimal"]]
            for r in rows
        ],
    )
    _emit(args, payload, table)
    return 0


# ---------------------------------------------------------------------------
# expand

def cmd_expand(args) -> int:
    example = read_facts(args.facts)
    if args.noise is not None:
        grown = noisy_expand(example, args.level, args.noise, random.Random(args.seed))
    else:
        grown = expand(example, args.level)
    if args.hard:
        violated = unsatisfied_rules(read_formulas(args.hard), grown)
        for rule in violated:
            print(
                f"warning: expansion violates hard rule: {format_formula(rule)}",
                file=sys.stderr,
            )
    _write(args.out, format_facts(grown))
    return 0


# ---------------------------------------------------------------------------
# maxent

def _model_payload(model) -> dict:
    a = isinstance(model.kind, ModelA)
    return {
        "kind": "A" if a else "B",
        "width": model.kind.width if a else None,
        "formulas": [format_formula(c.formula) for c in model.constraints],
        "theta": [_value(c.theta) for c in model.constraints],
        "weights": [float(w) for w in model.weights],
        "log_partition": float(model.log_partition),
        "iterations": int(model.iterations),
        "grad_norm": float(model.grad_norm),
        "realizable": True,  # a fitted model always is
        "achieved_marginals": [float(v) for v in model.achieved_marginals],
    }


def _diagnosis_payload(exc: NotRealizableError) -> dict:
    return {
        "boundary": bool(exc.boundary),
        "hull_distance": float(exc.distance),
        "message": str(exc),
        "realizable": bool(exc.boundary),
        "theta": [float(t) for t in exc.theta],
    }


def cmd_maxent(args) -> int:
    example = read_facts(args.facts)
    constraints = read_constraints(args.constraints)
    kind = _model_kind(args.model, args.width)
    hard = read_formulas(args.hard) if args.hard else []
    formulas = [c.formula for c in constraints]
    space = _target_space(example.constants, example.vocabulary(), formulas, hard)
    try:
        model = solve_maxent(constraints, space, kind, args.max_iter)
    except NotRealizableError as exc:
        # to stdout whatever --format says: --out is the model's destination
        _write(None, _json(_diagnosis_payload(exc)))
        raise
    payload = _model_payload(model)
    _write(args.out, _json(payload))
    if args.format == "csv":
        rows = zip(
            payload["formulas"],
            (t["rational"] for t in payload["theta"]),
            payload["weights"],
            payload["achieved_marginals"],
        )
        _write(None, _csv_table(["formula", "theta", "weight", "achieved_marginal"], rows))
    return 0


# ---------------------------------------------------------------------------
# polytope

def cmd_polytope(args) -> int:
    vocab_example = read_facts(args.facts_vocab)
    constraints = read_constraints(args.constraints)
    kind = _model_kind(args.model, args.width)
    formulas = [c.formula for c in constraints]
    space = _target_space(args.size, vocab_example.vocabulary(), formulas)
    theta = [c.theta for c in constraints]
    verdict = realizability_check(theta, formulas, space, kind)
    poly = verdict.polytope
    payload = {
        "vertices": [[_value(c) for c in v] for v in poly.vertices],
        "dim_rank": poly.rank(),
        "queries": [
            {
                "distance": float(verdict.distance),
                "realizable": bool(verdict.realizable),
                "theta": [_value(t) for t in theta],
            }
        ],
    }
    names = [format_formula(f) for f in formulas]
    table = _csv_table(
        ["vertex"] + names,
        [[i] + [float(c) for c in v] for i, v in enumerate(poly.vertices)],
    )
    _emit(args, payload, table)
    return 0


# ---------------------------------------------------------------------------
# estimate

def cmd_estimate(args) -> int:
    truth = read_facts(args.ground_truth)
    constraints = read_constraints(args.constraints)
    kind = _model_kind(args.model, args.k, "--k")
    cfg = ExperimentConfig(
        truth,
        args.m,
        args.target_n,
        tuple(c.formula for c in constraints),
        kind,
        trials=args.trials,
        seed=args.seed,
    )
    reports = run_error_experiment(cfg)
    payload = {
        "m": args.m,
        "model": args.model,
        "reports": [
            {
                "bound": r.bound,
                "effective_sample_size": r.effective_sample_size,
                "formula": format_formula(r.formula),
                "mean_error": _value(r.mean_error),
                "passed": r.passed,
                "width": r.width,
            }
            for r in reports
        ],
        "seed": args.seed,
        "target_n": args.target_n,
        "trials": args.trials,
    }
    trial_rows = [
        [format_formula(r.formula), t, float(e)]
        for r in reports
        for t, e in enumerate(r.trial_errors)
    ]
    _emit(args, payload, _csv_table(["formula", "trial", "error"], trial_rows))
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    results = run_verification(args.suite or None)
    for r in results:
        print(r.summary(), file=sys.stderr)
        for c in r.checks:
            if not c.passed:
                print(f"  failed: {c.name} ({c.detail})", file=sys.stderr)
    payload = {
        "passed": all(r.passed for r in results),
        "suites": [r.as_dict() for r in results],
    }
    table = _csv_table(
        ["suite", "passed", "checks_passed", "checks_total"],
        [
            [r.name, r.passed, sum(c.passed for c in r.checks), len(r.checks)]
            for r in results
        ],
    )
    _emit(args, payload, table)
    return 0 if payload["passed"] else 1


# ---------------------------------------------------------------------------
# pipeline

def cmd_pipeline(args) -> int:
    train = read_facts(args.facts)
    formulas = read_formulas(args.formulas)
    kind = _model_kind(args.model, args.width)
    n = args.target_n
    base_size = len(train.constants)
    if base_size == 0:
        raise ToolkitError("training structure has no constants")
    level = expansion_level(base_size, n)
    if args.noise is not None:
        level = max(level, required_expansion_level(kind, formulas))
        grown = noisy_expand(train, level, args.noise, random.Random(args.seed))
        thetas = [statistic(f, grown, kind) for f in formulas]
    else:
        thetas = [expanded_statistic(f, train, kind, level) for f in formulas]
    payload: dict = {
        "constraints": [
            {"formula": format_formula(f), "theta": _value(t)}
            for f, t in zip(formulas, thetas)
        ],
        "hull_distance": None,
        "level": level,
        "model": None,
        "realizable": None,
        "target_size": n,
    }
    table = _csv_table(
        ["formula", "theta_rational", "theta_decimal"],
        [[format_formula(f), str(t), float(t)] for f, t in zip(formulas, thetas)],
    )
    try:
        space = _target_space(n, train.vocabulary(), formulas)
    except CapExceededError as exc:
        payload["note"] = (
            f"{exc}; reduce the target size or the vocabulary to solve exactly"
        )
        _emit(args, payload, table)
        raise
    verdict = realizability_check(thetas, formulas, space, kind)
    payload["hull_distance"] = float(verdict.distance)
    payload["realizable"] = bool(verdict.realizable)
    constraints = [MarginalConstraint(f, t) for f, t in zip(formulas, thetas)]
    try:
        model = solve_maxent(constraints, space, kind, args.max_iter)
    except NotRealizableError as exc:
        payload["diagnosis"] = _diagnosis_payload(exc)
        _emit(args, payload, table)
        raise
    payload["model"] = _model_payload(model)
    if args.model_out:
        _write(args.model_out, _json(payload["model"]))
    _emit(args, payload, table)
    return 0


# ---------------------------------------------------------------------------
# wiring

def _add_model_flags(p, width_flag="--width"):
    p.add_argument("--model", required=True, choices=("A", "B"))
    p.add_argument(width_flag, type=int, default=None)


def _add_output_flags(p):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")


@functools.cache
def build_parser() -> _Parser:
    """The ``relmarg`` parser, built once per process: parsing does not
    change it, so every ``main`` call in a process can share it."""
    parser = _Parser(prog="relmarg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="exact marginal statistics of formulas")
    p.add_argument("--facts", required=True)
    p.add_argument("--formulas", required=True)
    _add_model_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("expand", help="grow a structure by congruent copies")
    p.add_argument("--facts", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hard", help="report rules the expansion violates")
    p.add_argument("--out")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("maxent", help="fit the max-entropy model for marginals")
    p.add_argument("--facts", required=True, help="domain and vocabulary source")
    p.add_argument("--constraints", required=True)
    _add_model_flags(p)
    p.add_argument("--hard", help="hard rules restricting the world space")
    p.add_argument("--out", required=True, help="model JSON destination")
    p.add_argument("--max-iter", type=int, default=20000, help="Newton iteration cap")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_maxent)

    p = sub.add_parser("polytope", help="marginal polytope vertices and queries")
    p.add_argument("--facts-vocab", required=True, help="vocabulary source")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--constraints", required=True)
    _add_model_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("estimate", help="error experiment against closed-form bounds")
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--m", type=int, required=True, help="sample size")
    p.add_argument("--k", type=int, default=None, help="fragment width (model A)")
    p.add_argument("--target-n", type=int, required=True)
    p.add_argument("--constraints", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", required=True, choices=("A", "B"))
    _add_output_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("verify", help="run the built-in verification suites")
    p.add_argument(
        "--suite",
        action="append",
        choices=available_suites(),
        help="run one suite (repeatable); default runs all",
    )
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "pipeline",
        help="estimate marginals from an expansion, check realizability, solve",
    )
    p.add_argument("--facts", required=True, help="training structure")
    p.add_argument("--formulas", required=True)
    p.add_argument("--target-n", type=int, required=True)
    _add_model_flags(p)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=20000, help="Newton iteration cap")
    p.add_argument("--model-out", help="also write the fitted model JSON here")
    _add_output_flags(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CapExceededError):
            return 3
        if isinstance(exc, (NotRealizableError, InfeasibleError)):
            return 2
        return 1


if __name__ == "__main__":
    sys.exit(main())
