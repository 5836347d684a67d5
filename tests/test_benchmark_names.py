"""The names the benchmark's tracer wraps and its hooks read.

``perfbench/spans.py`` wraps relmarg functions by name and reads result
fields in its hooks, so a name dropped here would break only the traced
benchmark runs.  These checks fail on such a change in the tests instead."""

import dataclasses
import importlib
import types
from pathlib import Path

import pytest

from relmarg import data, estimation, logic, maxent, polytope, worlds

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans() -> types.ModuleType:
    # spans.py imports only the standard library, so it runs on its own;
    # exec leaves no bytecode cache beside it
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


TRACED = [(layer, name) for layer, names in _spans().TRACED.items() for name in names]


@pytest.mark.parametrize(("layer", "name"), TRACED, ids=[f"{l}.{n}" for l, n in TRACED])
def test_every_traced_function_exists(layer, name):
    assert callable(getattr(importlib.import_module(f"relmarg.{layer}"), name))


def test_the_tracer_finds_count_matrix_vars_of_and_vertices():
    assert callable(worlds.WorldSpace.count_matrix)
    assert callable(logic.vars_of)
    # the vertex-count hook reads the polytope's vertices
    assert hasattr(polytope.MarginalPolytope, "vertices")


@pytest.mark.parametrize(
    ("cls", "field"),
    [
        (polytope.EtaVerdict, "probes_checked"),
        (maxent.MaxEntModel, "iterations"),
        (estimation.ExperimentConfig, "trials"),
        (worlds.WorldSpace, "atoms"),
        (worlds.WorldSpace, "worlds"),
        (worlds.WorldSpace, "constants"),
        (data.GlobalExample, "atoms"),
    ],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_the_fields_the_hooks_read_exist(cls, field):
    assert field in {f.name for f in dataclasses.fields(cls)}
