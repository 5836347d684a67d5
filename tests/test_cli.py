"""End-to-end command-line behavior: payload shapes, formats, exit codes."""

import json
import math
import random
import tracemalloc
from fractions import Fraction
from importlib import resources

import pytest

from relmarg import cli
from relmarg.cli import build_parser, main
from relmarg.data import parse_facts
from relmarg.errors import (
    CapExceededError,
    DomainError,
    InfeasibleError,
    NotRealizableError,
    ToolkitError,
)
from relmarg.expansion import expand
from relmarg.logic import parse_formula
from relmarg.stats import MODEL_B, ModelA, statistic
from relmarg.verify import available_suites

FRIENDS_FACTS = """\
@constants alice, bob, eve
fr(alice, bob)
fr(bob, alice)
fr(bob, eve)
fr(eve, bob)
sm(alice)
"""

R_FACTS = """\
@constants c1, c2, c3
r(c1)
"""

PATH_FACTS = """\
@constants c1, c2, c3
e(c1, c2)
e(c2, c3)
"""


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code if isinstance(exc.code, int) else 1
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write


# ---------------------------------------------------------------------------
# stats

def test_stats_json_exact_values(capsys, files):
    facts = files("friends.facts", FRIENDS_FACTS)
    formulas = files(
        "two.formulas",
        "forall X, Y: ~fr(X,Y) | sm(Y)\nforall X, Y: ~fr(X,Y) | sm(X) | sm(Y)\n",
    )
    code, out, _ = run_cli(
        capsys, "stats", "--facts", facts, "--formulas", formulas,
        "--model", "A", "--width", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "A"
    assert payload["width"] == 2
    values = [r["value"] for r in payload["statistics"]]
    assert values[0] == {"decimal": 1 / 3, "rational": "1/3"}
    assert values[1] == {"decimal": 2 / 3, "rational": "2/3"}

    code_b, out_b, _ = run_cli(
        capsys, "stats", "--facts", facts, "--formulas", formulas, "--model", "B",
    )
    assert code_b == 0
    values_b = [r["value"] for r in json.loads(out_b)["statistics"]]
    assert values_b[0] == {"decimal": 0.5, "rational": "1/2"}
    assert values_b[1] == {"decimal": 2 / 3, "rational": "2/3"}


def test_stats_csv_format(capsys, files):
    facts = files("r.facts", R_FACTS)
    formulas = files("one.formulas", "exists X: r(X)\n")
    code, out, _ = run_cli(
        capsys, "stats", "--facts", facts, "--formulas", formulas,
        "--model", "A", "--width", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "formula,rational,decimal"
    cells = lines[1].split(",")
    assert cells[1] == "2/3"
    assert float(cells[2]) == pytest.approx(2 / 3, abs=1e-15)


def test_stats_out_file(capsys, files, tmp_path):
    facts = files("r.facts", R_FACTS)
    formulas = files("one.formulas", "exists X: r(X)\n")
    dest = tmp_path / "stats.json"
    code, out, _ = run_cli(
        capsys, "stats", "--facts", facts, "--formulas", formulas,
        "--model", "A", "--width", "1", "--out", str(dest),
    )
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["statistics"]


def test_decimal_matches_rational_to_double_precision(capsys, files):
    facts = files("friends.facts", FRIENDS_FACTS)
    formulas = files("f.formulas", "forall X, Y: ~fr(X,Y) | sm(X) | sm(Y)\n")
    _, out, _ = run_cli(
        capsys, "stats", "--facts", facts, "--formulas", formulas, "--model", "B",
    )
    value = json.loads(out)["statistics"][0]["value"]
    assert value["decimal"] == float(Fraction(value["rational"]))


# ---------------------------------------------------------------------------
# expand

def test_expand_round_trips_through_stats(capsys, files, tmp_path):
    facts = files("path.facts", PATH_FACTS)
    grown = tmp_path / "grown.facts"
    code, out, _ = run_cli(
        capsys, "expand", "--facts", facts, "--level", "2", "--out", str(grown),
    )
    assert code == 0
    text = grown.read_text()
    assert "@constants c1, c2, c3, c4, c5, c6" in text
    assert text.count("e(") == 8

    # the expansion is itself a valid facts file
    formulas = files("f.formulas", "exists X, Y: X != Y & e(X,Y)\n")
    code2, out2, _ = run_cli(
        capsys, "stats", "--facts", str(grown), "--formulas", formulas,
        "--model", "A", "--width", "2",
    )
    assert code2 == 0
    # 8 of the 15 constant pairs carry an edge after doubling
    assert json.loads(out2)["statistics"][0]["value"]["rational"] == "8/15"


def test_expand_hard_rule_warnings_go_to_stderr(capsys, files):
    facts = files("pair.facts", "@constants c1, c2\nfr(c1, c2)\nfr(c2, c1)\n")
    rules = files("complete.rules", "forall X, Y: X = Y | fr(X,Y)\n")
    code, out, err = run_cli(
        capsys, "expand", "--facts", facts, "--level", "2", "--hard", rules,
    )
    assert code == 0
    assert "warning" in err and "fr" in err
    assert "@constants" in out


def test_expand_noise_is_seeded(capsys, files):
    facts = files("path.facts", PATH_FACTS)
    args = ("expand", "--facts", facts, "--level", "3", "--noise", "0.5", "--seed", "9")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# ---------------------------------------------------------------------------
# maxent

def test_maxent_writes_model_json(capsys, files, tmp_path):
    facts = files("r.facts", R_FACTS)
    cons = files("r.constraints", "2/3 ; exists X: r(X)\n")
    dest = tmp_path / "model.json"
    code, _, _ = run_cli(
        capsys, "maxent", "--facts", facts, "--constraints", cons,
        "--model", "A", "--width", "2", "--out", str(dest),
    )
    assert code == 0
    model = json.loads(dest.read_text())
    assert set(model) == {
        "kind", "width", "formulas", "theta", "weights", "log_partition",
        "iterations", "grad_norm", "realizable", "achieved_marginals",
    }
    assert model["kind"] == "A"
    assert model["width"] == 2
    assert model["realizable"] is True
    assert model["theta"][0]["rational"] == "2/3"
    assert model["weights"][0] == pytest.approx(-0.231049060186836, abs=1e-9)
    assert model["achieved_marginals"][0] == pytest.approx(2 / 3, abs=1e-7)
    assert model["grad_norm"] < 1e-9


def test_maxent_csv_has_one_row_per_constraint(capsys, files, tmp_path):
    facts = files("r.facts", R_FACTS)
    cons = files("r.constraints", "2/3 ; exists X: r(X)\n1/3 ; forall X: r(X)\n")
    dest = tmp_path / "model.json"
    code, out, _ = run_cli(
        capsys, "maxent", "--facts", facts, "--constraints", cons,
        "--model", "A", "--width", "2", "--out", str(dest), "--format", "csv",
    )
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "formula,theta,weight,achieved_marginal"
    model = json.loads(dest.read_text())
    assert [r.split(",")[:2] for r in rows] == [
        [f, t["rational"]] for f, t in zip(model["formulas"], model["theta"])
    ]
    assert [float(r.split(",")[3]) for r in rows] == model["achieved_marginals"]


def test_maxent_malformed_json_constraints_exit_1(capsys, files, tmp_path):
    facts = files("r.facts", R_FACTS)
    cons = files("bad.json", '[{"formula": "exists X: r(X)", "theta": null}]')
    code, out, err = run_cli(
        capsys, "maxent", "--facts", facts, "--constraints", cons,
        "--model", "A", "--width", "1", "--out", str(tmp_path / "never.json"),
    )
    assert code == 1
    assert not out
    assert err.startswith("error: ") and "bad.json: entry 1: 'theta'" in err


def test_maxent_unrealizable_emits_diagnosis_and_exits_2(capsys, files, tmp_path):
    facts = files("pg.facts", "@constants c1, c2, c3\nr(c1)\n")
    cons = files("pg.constraints", "1 ; exists X, Y: X != Y & r(X) & ~r(Y)\n")
    dest = tmp_path / "never.json"
    code, out, err = run_cli(
        capsys, "maxent", "--facts", facts, "--constraints", cons,
        "--model", "A", "--width", "2", "--out", str(dest),
    )
    assert code == 2
    assert not dest.exists()
    diagnosis = json.loads(out)
    assert set(diagnosis) == {"boundary", "hull_distance", "message", "realizable", "theta"}
    assert diagnosis["realizable"] is False
    assert diagnosis["hull_distance"] == pytest.approx(1 / 3, abs=1e-9)
    assert "error:" in err


def test_maxent_hard_rules_restrict_the_space(capsys, files, tmp_path):
    facts = files("pair.facts", "@constants c1, c2\ne(c1, c2)\n")
    cons = files("sym.constraints", "1/2 ; exists X, Y: X != Y & e(X,Y)\n")
    rules = files("sym.rules", "forall X, Y: ~e(X,Y) | e(Y,X)\n")
    dest = tmp_path / "model.json"
    code, _, _ = run_cli(
        capsys, "maxent", "--facts", facts, "--constraints", cons,
        "--model", "A", "--width", "2", "--hard", rules, "--out", str(dest),
    )
    assert code == 0
    assert json.loads(dest.read_text())["achieved_marginals"][0] == pytest.approx(
        0.5, abs=1e-7
    )


@pytest.mark.parametrize("command", ["maxent", "pipeline"])
@pytest.mark.parametrize(
    "flag",
    [
        ("--tol", "0"),
        ("--tol", "-1"),
        ("--tol", "nan"),
        ("--max-iter", "0"),
        ("--weight-cap", "0"),
        ("--weight-cap", "-3"),
        ("--weight-cap", "nan"),
    ],
)
def test_solver_flags_are_validated(capsys, files, tmp_path, command, flag):
    # the target 2/3 is interior, so no diagnosis may be reported for it
    facts = files("r.facts", R_FACTS)
    if command == "maxent":
        source = ("--facts", facts, "--constraints",
                  files("r.constraints", "2/3 ; exists X: r(X)\n"),
                  "--out", str(tmp_path / "never.json"))
    else:
        source = ("--facts", facts, "--formulas", files("p.formulas", "exists X: r(X)\n"),
                  "--target-n", "4")
    code, out, err = run_cli(capsys, command, *source, "--model", "A", "--width", "2", *flag)
    assert code == 1
    assert out == ""
    assert err.startswith("error: solver needs tol > 0, max_iter >= 1 and weight_cap > 0")
    assert not (tmp_path / "never.json").exists()


# ---------------------------------------------------------------------------
# polytope

def test_polytope_payload_shape(capsys, files):
    facts = files("r.facts", R_FACTS)
    cons = files("r.constraints", "1/3 ; forall X: r(X)\n")
    code, out, _ = run_cli(
        capsys, "polytope", "--facts-vocab", facts, "--size", "3",
        "--constraints", cons, "--model", "B",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"vertices", "dim_rank", "queries"}
    assert payload["dim_rank"] == 1
    rationals = sorted(v[0]["rational"] for v in payload["vertices"])
    assert rationals == ["0", "1", "1/3", "2/3"]
    (query,) = payload["queries"]
    assert set(query) == {"distance", "realizable", "theta"}
    assert query["realizable"] is True
    assert query["distance"] == pytest.approx(0.0, abs=1e-9)


def test_polytope_reports_unrealizable_query(capsys, files):
    facts = files("r.facts", R_FACTS)
    cons = files("pg.constraints", "1 ; exists X, Y: X != Y & r(X) & ~r(Y)\n")
    code, out, _ = run_cli(
        capsys, "polytope", "--facts-vocab", facts, "--size", "3",
        "--constraints", cons, "--model", "A", "--width", "2",
    )
    assert code == 0
    (query,) = json.loads(out)["queries"]
    assert query["realizable"] is False
    assert query["distance"] == pytest.approx(1 / 3, abs=1e-9)


def test_polytope_over_the_atom_cap_exits_3_before_naming_constants(capsys, files):
    # a million named constants alone would take about 100 MiB
    facts = files("r.facts", R_FACTS)
    cons = files("r.constraints", "1/3 ; forall X: r(X)\n")
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "polytope", "--facts-vocab", facts, "--size", "1000000",
            "--constraints", cons, "--model", "B",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert err == "error: 1000000 ground atoms exceed the enumeration cap of 24\n"
    assert peak < 10 * 2**20


# ---------------------------------------------------------------------------
# estimate

def test_estimate_json_and_csv(capsys, files, tmp_path):
    facts = files(
        "truth.facts",
        "@constants c1, c2, c3, c4, c5, c6\nr(c1)\nr(c3)\nr(c5)\n",
    )
    cons = files("est.constraints", "1/2 ; exists X: r(X)\n")
    args = (
        "estimate", "--ground-truth", facts, "--m", "3", "--k", "1",
        "--target-n", "6", "--constraints", cons, "--trials", "20",
        "--seed", "4", "--model", "A",
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 3 and payload["target_n"] == 6 and payload["trials"] == 20
    (report,) = payload["reports"]
    assert set(report) == {
        "bound", "effective_sample_size", "formula", "mean_error", "passed", "width",
    }
    assert report["width"] == 1
    assert report["effective_sample_size"] == 3
    assert report["bound"] == pytest.approx(
        math.sqrt((1 + 2 * math.log(2)) / 12), abs=1e-12
    )
    csv_dest = tmp_path / "trials.csv"
    code, out, _ = run_cli(capsys, *args, "--format", "csv", "--out", str(csv_dest))
    assert code == 0 and out == ""
    lines = csv_dest.read_text().splitlines()
    assert lines[0] == "formula,trial,error"
    assert len(lines) == 21


def test_estimate_model_flag_validation(capsys, files):
    facts = files("truth.facts", "@constants c1, c2, c3\nr(c1)\n")
    cons = files("est.constraints", "1/2 ; exists X: r(X)\n")
    base = (
        "estimate", "--ground-truth", facts, "--m", "2", "--target-n", "3",
        "--constraints", cons, "--trials", "2",
    )
    code_a, _, err_a = run_cli(capsys, *base, "--model", "A")
    assert code_a == 1 and err_a == "error: model A needs --k\n"
    code_b, _, err_b = run_cli(capsys, *base, "--model", "B", "--k", "1")
    assert code_b == 1
    assert err_b == "error: model B derives widths from formulas; drop --k\n"


def test_estimate_reaches_a_billion_constants_without_expanding(capsys, files):
    # the level-5e8 expansion of a 2-constant sample is far over the
    # expansion cap, but its width-2 statistic is exact: a sample on the
    # edge c1->c2 or c2->c3 holds on the l^2 cross-residue pairs of its
    # C(2l, 2), the sample {c1, c3} on none, and the truth is 2/3
    src = resources.files("relmarg.fixtures").joinpath("path.facts").read_text()
    facts = files("path.facts", src)
    cons = files("est.constraints", "1/2 ; exists X, Y: e(X,Y)\n")
    code, out, err = run_cli(
        capsys, "estimate", "--ground-truth", facts, "--m", "2", "--k", "2",
        "--target-n", "1000000000", "--constraints", cons, "--trials", "6",
        "--seed", "1", "--model", "A",
    )
    assert code == 0 and err == ""
    l = 500_000_000
    errors = []
    for t in range(6):
        sample = set(random.Random(f"1:{t}").sample(("c1", "c2", "c3"), 2))
        edge = sample != {"c1", "c3"}
        estimate = Fraction(l * l, l * (2 * l - 1)) if edge else Fraction(0)
        errors.append(abs(Fraction(2, 3) - estimate))
    (report,) = json.loads(out)["reports"]
    assert report["mean_error"]["rational"] == str(sum(errors) / 6)


def test_estimate_over_the_residue_listing_cap_exits_3_before_listing(capsys, files):
    # a sample of 65 constants has 65^4 residue sequences of 4 positions,
    # 71,402,500 cells: refused before one is listed or any trial is read
    constants = [f"c{i}" for i in range(1, 66)]
    facts = files("ring.facts", "".join(
        f"e({a}, {b})\n" for a, b in zip(constants, constants[1:] + constants[:1])
    ))
    cons = files("est.constraints", "1/2 ; forall W, X, Y, Z: ~e(W,X) | ~e(Y,Z)\n")
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "estimate", "--ground-truth", facts, "--m", "65", "--target-n", "130",
            "--constraints", cons, "--trials", "2", "--model", "B",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert err == (
        "error: residue groundings of 71402500 cells (17850625 rows of width 4 over 65 "
        f"constants) exceed the cap of {2**26}\n"
    )
    assert peak < 10 * 2**20


# ---------------------------------------------------------------------------
# verify

def test_verify_single_suite_json_is_byte_stable(capsys):
    args = ("verify", "--suite", "worked-example")
    code1, out1, err1 = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] is True
    (suite,) = payload["suites"]
    assert suite["name"] == "worked-example"
    assert all(c["passed"] for c in suite["checks"])
    assert "worked-example" in err1


def test_repeated_main_calls_match_a_fresh_parser(capsys):
    # main shares one parser across the calls of a process: a repeatable
    # --suite or a --format given in one call must not carry into the next
    calls = [
        ("verify", "--suite", "worked-example"),
        ("verify",),
        ("verify", "--suite", "expansion-example", "--format", "csv"),
        ("verify", "--suite", "expansion-example"),
    ]
    assert build_parser() is build_parser()
    shared = [run_cli(capsys, *argv)[:2] for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv)[:2])
    assert shared == fresh
    assert [code for code, _ in shared] == [0] * 4
    one, every = (json.loads(out)["suites"] for _, out in shared[:2])
    assert [s["name"] for s in one] == ["worked-example"]
    assert [s["name"] for s in every] == list(available_suites())
    assert shared[2][1].startswith("suite,passed,")
    assert json.loads(shared[3][1])["suites"][0]["name"] == "expansion-example"


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
    assert code == 1
    assert "invalid choice" in err


# ---------------------------------------------------------------------------
# pipeline

def test_pipeline_solvable_path(capsys, files, tmp_path):
    facts = files("r.facts", R_FACTS)
    formulas = files("p.formulas", "exists X: r(X)\n")
    model_dest = tmp_path / "fitted.json"
    code, out, _ = run_cli(
        capsys, "pipeline", "--facts", facts, "--formulas", formulas,
        "--target-n", "4", "--model", "A", "--width", "2",
        "--model-out", str(model_dest),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["target_size"] == 4
    assert payload["level"] == 2
    assert payload["realizable"] is True
    assert payload["hull_distance"] == pytest.approx(0.0, abs=1e-9)
    assert payload["model"]["kind"] == "A"
    assert json.loads(model_dest.read_text()) == payload["model"]
    # the constraint value comes exactly from the level-2 expansion
    theta = Fraction(payload["constraints"][0]["theta"]["rational"])
    assert 0 < theta < 1


def test_pipeline_cap_exceeded_keeps_constraints_and_exits_3(capsys, files):
    facts = files("path.facts", PATH_FACTS)
    formulas = files("p.formulas", "exists X, Y: X != Y & e(X,Y)\n")
    code, out, err = run_cli(
        capsys, "pipeline", "--facts", facts, "--formulas", formulas,
        "--target-n", "6", "--model", "A", "--width", "2",
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["model"] is None
    assert payload["realizable"] is None
    assert "note" in payload
    assert "cap" in payload["note"]
    assert payload["constraints"][0]["theta"]["rational"] == "8/15"
    assert err == "error: 36 ground atoms exceed the enumeration cap of 24\n"


@pytest.mark.parametrize("target", [10_000_000, 1_000_000_000])
def test_pipeline_reads_huge_targets_without_expanding(capsys, files, target):
    # the level-l expansion of the path has l^2 edges on each of its two
    # residue pairs among C(3l, 2) pairs: theta = 4l / (3(3l - 1)), exact,
    # and the world space over the target size is far over the atom cap
    src = resources.files("relmarg.fixtures").joinpath("path.facts").read_text()
    facts = files("path.facts", src)
    formulas = files("p.formulas", "exists X, Y: X != Y & e(X,Y)\n")
    code, out, err = run_cli(
        capsys, "pipeline", "--facts", facts, "--formulas", formulas,
        "--target-n", str(target), "--model", "A", "--width", "2",
    )
    assert code == 3
    assert err.startswith("error:") and "cap" in err
    payload = json.loads(out)
    l = math.ceil(target / 3)
    assert payload["level"] == l
    assert f"{target**2} ground atoms exceed the enumeration cap of 24" in payload["note"]
    theta = payload["constraints"][0]["theta"]["rational"]
    assert Fraction(theta) == Fraction(4 * l, 3 * (3 * l - 1))


PIPELINE_FORMULAS = {
    "example1.facts": (
        ["exists X, Y: X != Y & fr(X,Y)", "forall X, Y: ~fr(X,Y) | sm(Y)", "exists X: sm(X)"],
        ["forall X, Y: ~fr(X,Y) | sm(Y)", "forall X: sm(X)"],
    ),
    "path.facts": (
        ["exists X, Y: e(X,Y)", "forall X: exists Y: X = Y | e(X,Y) | e(Y,X)"],
        ["forall X, Y: e(X,Y) | e(Y,X)", "forall X, Y, Z: ~e(X,Y) | ~e(Y,Z)"],
    ),
    "three_color.facts": (
        ["exists X: r(X) | g(X)", "forall X, Y: X = Y | e(X,Y)"],
        ["forall X, Y: ~e(X,Y) | ~r(X) | ~r(Y)"],
    ),
    "pigeonhole.facts": (
        ["exists X: r(X)", "exists X, Y: X != Y & ~r(X) & ~r(Y)"],
        ["forall X: r(X)", "forall X, Y: r(X) | r(Y)"],
    ),
}


@pytest.mark.parametrize("fixture", sorted(PIPELINE_FORMULAS))
def test_pipeline_targets_equal_the_materialised_expansion(capsys, files, fixture):
    src = resources.files("relmarg.fixtures").joinpath(fixture).read_text()
    facts = files(fixture, src)
    train = parse_facts(src)
    a_texts, b_texts = PIPELINE_FORMULAS[fixture]
    for texts, model, kind in [
        (a_texts, ("--model", "A", "--width", "1"), ModelA(1)),
        (a_texts, ("--model", "A", "--width", "2"), ModelA(2)),
        (b_texts, ("--model", "B"), MODEL_B),
    ]:
        formulas = files("p.formulas", "\n".join(texts) + "\n")
        code, out, _ = run_cli(
            capsys, "pipeline", "--facts", facts, "--formulas", formulas,
            "--target-n", "8", *model,
        )
        assert code in (0, 2, 3)
        payload = json.loads(out)
        level = math.ceil(8 / len(train.constants))
        assert payload["level"] == level
        grown = expand(train, level)
        want = [str(statistic(parse_formula(t), grown, kind)) for t in texts]
        assert [c["theta"]["rational"] for c in payload["constraints"]] == want


def test_pipeline_noise_is_seeded(capsys, files):
    facts = files("r.facts", R_FACTS)
    formulas = files("p.formulas", "exists X: r(X)\n")
    args = (
        "pipeline", "--facts", facts, "--formulas", formulas, "--target-n", "4",
        "--model", "A", "--width", "2", "--noise", "0.3", "--seed", "2",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["model"] is not None


@pytest.mark.parametrize(
    "formula, model, level",
    [
        ("exists X, Y: X != Y & e(X,Y)", ("--model", "A", "--width", "2"), 2),
        ("forall X, Y, Z: ~e(X,Y) | ~e(Y,Z)", ("--model", "B"), 3),
    ],
)
def test_pipeline_noise_raises_the_level_to_the_width(capsys, files, formula, model, level):
    # the 3-constant path reaches target size 3 at level 1, but noise on
    # congruent slots reaches every width-k example only from level k on
    src = resources.files("relmarg.fixtures").joinpath("path.facts").read_text()
    facts = files("path.facts", src)
    formulas = files("p.formulas", formula + "\n")
    code, out, _ = run_cli(
        capsys, "pipeline", "--facts", facts, "--formulas", formulas,
        "--target-n", "3", *model, "--noise", "0.3",
    )
    assert code in (0, 2)
    assert json.loads(out)["level"] == level


@pytest.mark.parametrize("target", ["0", "-1"])
def test_pipeline_rejects_a_target_size_below_one(capsys, files, target):
    facts = files("path.facts", PATH_FACTS)
    formulas = files("p.formulas", "exists X, Y: e(X,Y)\n")
    code, out, err = run_cli(
        capsys, "pipeline", "--facts", facts, "--formulas", formulas,
        "--target-n", target, "--model", "A", "--width", "2",
    )
    assert code == 1 and out == ""
    assert err == f"error: target size {target} must be positive\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "--level", "1000000"),
        ("expand", "--level", "1000000", "--noise", "0.5"),
        ("pipeline", "--target-n", "10000000", "--model", "A", "--width", "2", "--noise", "0.5"),
    ],
)
def test_oversized_expansions_exit_3_before_building(capsys, files, argv):
    # a million-fold path has 3 million constants and 2 trillion atoms
    src = resources.files("relmarg.fixtures").joinpath("path.facts").read_text()
    facts = files("path.facts", src)
    formulas = files("p.formulas", "exists X, Y: X != Y & e(X,Y)\n")
    extra = ("--formulas", formulas) if argv[0] == "pipeline" else ()
    code, out, err = run_cli(capsys, argv[0], "--facts", facts, *extra, *argv[1:])
    assert code == 3
    assert err.startswith("error:") and "cap" in err
    assert out == ""


# ---------------------------------------------------------------------------
# failing runs that still write a payload

PIGEONHOLE = ("pigeonhole.facts", "forall X: r(X)\nforall X, Y: r(X) | r(Y)\n",
              ("--target-n", "8", "--model", "B"))
PATH_AT_NINE = ("path.facts", "exists X, Y: X != Y & e(X,Y)\n",
                ("--target-n", "9", "--model", "A", "--width", "2"))


@pytest.mark.parametrize(
    "command, source, code, key, to_file",
    [
        ("maxent", "json", 2, "boundary", False),
        ("maxent", "csv", 2, "boundary", False),
        ("pipeline", PIGEONHOLE, 2, "diagnosis", False),
        ("pipeline", PIGEONHOLE, 2, "diagnosis", True),
        ("pipeline", PATH_AT_NINE, 3, "note", False),
        ("pipeline", PATH_AT_NINE, 3, "note", True),
    ],
    ids=["maxent-json", "maxent-csv", "pipeline-2", "pipeline-2-out", "pipeline-3",
         "pipeline-3-out"],
)
def test_failing_runs_write_their_payload_and_one_error_line(
    capsys, files, tmp_path, command, source, code, key, to_file
):
    model_dest = tmp_path / "never.json"
    report = tmp_path / "report.json"
    if command == "maxent":
        # maxent's --out is the model file: the diagnosis goes to stdout,
        # as JSON even under --format csv
        facts = files("three.facts", R_FACTS)
        src = resources.files("relmarg.fixtures").joinpath("pigeonhole.constraints").read_text()
        cons = files("pigeonhole.constraints", src)
        argv = ("maxent", "--facts", facts, "--constraints", cons, "--model", "A",
                "--width", "2", "--out", str(model_dest), "--format", source)
    else:
        fixture, formulas, rest = source
        src = resources.files("relmarg.fixtures").joinpath(fixture).read_text()
        argv = ("pipeline", "--facts", files(fixture, src),
                "--formulas", files("p.formulas", formulas), *rest,
                "--model-out", str(model_dest))
        argv += ("--out", str(report)) if to_file else ()
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert not model_dest.exists()
    if to_file:
        assert out == ""
        payload = json.loads(report.read_text())
    else:
        payload = json.loads(out)
    assert key in payload
    if key == "boundary":
        assert payload["boundary"] is False
        message = payload["message"]
    elif key == "diagnosis":
        assert payload["model"] is None and payload["realizable"] is True
        message = payload["diagnosis"]["message"]
    else:
        assert payload["model"] is None and payload["realizable"] is None
        message = "81 ground atoms exceed the enumeration cap of 24"
        assert payload["note"].startswith(message + "; ")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["maxent", "expand"])
def test_an_unwritable_out_exits_1_with_one_error_line(capsys, files, tmp_path, command):
    facts = files("r.facts", R_FACTS)
    dest = tmp_path / "missing" / "out.txt"
    if command == "maxent":
        cons = files("r.constraints", "2/3 ; exists X: r(X)\n")
        argv = ("maxent", "--facts", facts, "--constraints", cons,
                "--model", "A", "--width", "2", "--out", str(dest))
    else:
        argv = ("expand", "--facts", facts, "--level", "2", "--out", str(dest))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and str(dest) in err
    assert not dest.exists()


# ---------------------------------------------------------------------------
# usage errors

@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("stats",),
        ("stats", "--facts", "x.facts"),
        ("nonsense",),
        ("expand", "--facts", "x.facts"),
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err


def test_missing_file_exits_1(capsys, files):
    formulas = files("p.formulas", "exists X: r(X)\n")
    code, _, err = run_cli(
        capsys, "stats", "--facts", "/nonexistent/no.facts",
        "--formulas", formulas, "--model", "A", "--width", "1",
    )
    assert code == 1
    assert "error" in err.lower()


@pytest.mark.parametrize(
    "exc, code",
    [
        (CapExceededError("too many worlds", 10, 5), 3),
        (NotRealizableError("no finite weights", (Fraction(1),), 0.5, False), 2),
        (InfeasibleError("feasibility phase stalled"), 2),
        (DomainError("bad width"), 1),
        (ToolkitError("plain failure"), 1),
        (FileNotFoundError("no such file"), 1),
    ],
)
def test_errors_map_to_exit_codes(capsys, monkeypatch, exc, code):
    def fail(args):
        raise exc

    # an uncached parser binds the subcommand to fail
    monkeypatch.setattr(cli, "cmd_verify", fail)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert run_cli(capsys, "verify") == (code, "", f"error: {exc}\n")


def test_model_width_flag_validation(capsys, files):
    facts = files("r.facts", R_FACTS)
    formulas = files("p.formulas", "exists X: r(X)\n")
    code, _, err = run_cli(
        capsys, "stats", "--facts", facts, "--formulas", formulas, "--model", "A",
    )
    assert code == 1 and "width" in err
    code_b, _, err_b = run_cli(
        capsys, "stats", "--facts", facts, "--formulas", formulas,
        "--model", "B", "--width", "2",
    )
    assert code_b == 1 and "width" in err_b


def test_bad_formula_reports_position(capsys, files):
    facts = files("r.facts", R_FACTS)
    formulas = files("bad.formulas", "exists X r(X)\n")
    code, _, err = run_cli(
        capsys, "stats", "--facts", facts, "--formulas", formulas,
        "--model", "A", "--width", "1",
    )
    assert code == 1
    assert ":1:" in err  # line:col position


# ---------------------------------------------------------------------------
# packaged fixtures drive the documented examples

def test_packaged_example_fixture_matches_friends():
    text = resources.files("relmarg.fixtures").joinpath("example1.facts").read_text()
    assert "alice" in text


def test_stats_on_packaged_fixture(capsys, tmp_path, files):
    src = resources.files("relmarg.fixtures").joinpath("example1.facts").read_text()
    facts = files("ex1.facts", src)
    formulas = files("a.formulas", "forall X, Y: ~fr(X,Y) | sm(Y)\n")
    _, out, _ = run_cli(
        capsys, "stats", "--facts", facts, "--formulas", formulas,
        "--model", "A", "--width", "2",
    )
    assert json.loads(out)["statistics"][0]["value"]["rational"] == "1/3"
