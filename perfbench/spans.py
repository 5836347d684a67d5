"""Traced runs: spans around the calls into each relmarg layer, from outside.

``Tracer.install`` replaces each traced function with a wrapper on its own
module, on every relmarg module that re-bound it with ``from ... import``,
and replaces the ``WorldSpace.count_matrix`` method.  ``uninstall`` puts the
originals back.  Nothing under ``src/`` is edited.  Wrappers record only
inside ``job_span``, so output checks between jobs stay untraced.

Each wrapped call records a span (name, parent, job, start, end); a span's
self time is its duration minus the time its child spans cover.  The hot
leaf functions (``logic.holds``, ``data.fragment``, ``data.canonicalize``)
only add to a count and a total on their parent span.  Spans stay in memory
until ``dump``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

# layer -> traced public functions
TRACED = {
    "cli": ["main"],
    "logic": ["parse_formula", "holds"],
    "data": ["parse_facts", "fragment", "canonicalize"],
    "stats": ["statistic", "marginal_distribution_a"],
    "expansion": ["expand", "noisy_expand", "mixture_residual"],
    "worlds": ["enumerate_worlds"],
    "maxent": ["solve_maxent", "model_distribution", "shrink_distribution",
               "distribution_statistic"],
    "polytope": ["polytope_vertices", "hull_distance", "eta_interior", "realizability_check"],
    "estimation": ["run_error_experiment", "sample_subexample", "adjusted_estimate"],
}
HOT = {"logic.holds", "data.fragment", "data.canonicalize"}
COUNT_MATRIX = "worlds.count_matrix"
MARK = "__perfbench_span__"

NAME, PARENT, JOB, START, END, CHILD, HOTS = range(7)


def wrapped_attributes():
    """(module, attribute) pairs of relmarg that currently hold a wrapper."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "relmarg" or modname.startswith("relmarg.")):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append((modname, attr))
            elif isinstance(value, type):
                found.extend((modname, f"{attr}.{k}") for k, v in vars(value).items()
                             if hasattr(v, MARK))
    return found


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.enabled = False
        self.job = None
        self._restore: list[tuple] = []
        self._requests: dict[int, tuple] = {}

    # -- span bookkeeping ----------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, parent, self.job, time.perf_counter(), None, 0.0, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        self.stack.pop()
        if span[PARENT] is not None:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    def job_span(self, job_id, template):
        tracer = self

        class _JobSpan:
            def __enter__(self):
                tracer.job = job_id
                self.idx = tracer._open(f"job:{template}")
                tracer.enabled = True
                return self

            def __exit__(self, *exc):
                tracer.enabled = False
                tracer._close(self.idx)
                tracer.job = None
                return False

        return _JobSpan()

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name, fn, on_result=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(idx)
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            tracer._close(idx)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def _wrap_hot(self, name, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                parent = tracer.spans[tracer.stack[-1]]
                parent[CHILD] += dt
                hots = parent[HOTS]
                if hots is None:
                    parent[HOTS] = {name: [1, dt]}
                else:
                    agg = hots.get(name)
                    if agg is None:
                        hots[name] = [1, dt]
                    else:
                        agg[0] += 1
                        agg[1] += dt

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self):
        """Wrap every traced function wherever relmarg bound it."""
        import importlib

        from relmarg import logic, worlds

        owners = {layer: importlib.import_module(f"relmarg.{layer}") for layer in TRACED}
        hooks = {
            "worlds.enumerate_worlds": (_after_enumerate, None),
            "maxent.solve_maxent": (_after_solve, _solve_error),
            "polytope.polytope_vertices": (_after_vertices, None),
            "polytope.eta_interior": (_after_eta, None),
            "expansion.expand": (_after_expand, None),
            "estimation.run_error_experiment": (_after_experiment, None),
        }
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "relmarg" or n.startswith("relmarg."))]
        for layer, names in TRACED.items():
            owner = owners[layer]
            for fname in names:
                name = f"{layer}.{fname}"
                original = getattr(owner, fname)
                if name in HOT:
                    wrapper = self._wrap_hot(name, original)
                else:
                    wrapper = self._wrap(name, original, *hooks.get(name, (None, None)))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        original = worlds.WorldSpace.count_matrix
        self._restore.append((worlds.WorldSpace, "count_matrix", original))
        self._vars_of = logic.vars_of
        worlds.WorldSpace.count_matrix = self._wrap_count_matrix(original)

    def uninstall(self):
        self.enabled = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap_count_matrix(self, original):
        """count_matrix, counting repeated requests (cache hits) and the
        groundings each first request evaluates: worlds x formulas x C(n,k)
        subsets for Model A, P(n,v) substitutions for Model B."""
        tracer = self
        inner = self._wrap(COUNT_MATRIX, original)

        @functools.wraps(original)
        def wrapper(space, formulas, kind):
            if not tracer.enabled:
                return original(space, formulas, kind)
            key = (tuple(formulas), kind)
            seen = tracer._requests.setdefault(id(space), (space, set()))[1]
            hit = key in seen
            start = len(tracer.spans)
            result = inner(space, formulas, kind)
            if hit:
                tracer.counters[COUNT_MATRIX + ".hits"] += 1
            else:
                seen.add(key)
                n = len(space.constants)
                width = getattr(kind, "width", None)
                per_world = sum(
                    math.comb(n, width) if width is not None
                    else math.perm(n, len(tracer._vars_of(f)))
                    for f in formulas
                )
                span = tracer.spans[start]
                tracer.counters[COUNT_MATRIX + ".groundings"] += len(space.worlds) * per_world
                tracer.counters[COUNT_MATRIX + ".miss_s"] += span[END] - span[START]
            return result

        setattr(wrapper, MARK, COUNT_MATRIX)
        return wrapper

    # -- results ---------------------------------------------------------------

    def totals(self):
        """name -> [calls, self seconds], hot functions included."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            if span[END] is None:
                continue
            agg = out[span[NAME]]
            agg[0] += 1
            agg[1] += span[END] - span[START] - span[CHILD]
            for hot, (calls, seconds) in (span[HOTS] or {}).items():
                h = out[hot]
                h[0] += calls
                h[1] += seconds
        return out

    def hot_under(self, hot, parent_name):
        return sum(
            span[HOTS][hot][1] for span in self.spans
            if span[NAME] == parent_name and span[HOTS] and hot in span[HOTS]
        )

    def dump(self, path, extra):
        records = [
            {"id": i, "name": s[NAME], "parent": s[PARENT], "job": s[JOB],
             "start": s[START], "end": s[END],
             "self": None if s[END] is None else s[END] - s[START] - s[CHILD],
             "hot": s[HOTS] or {}}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": records, "counters": dict(self.counters), **extra}, fh)


def _after_enumerate(tracer, args, space):
    tracer.counters["worlds.enumerate_worlds.patterns"] += 1 << len(space.atoms)
    tracer.counters["worlds.enumerate_worlds.accepted"] += len(space.worlds)


def _after_solve(tracer, args, model):
    tracer.counters["maxent.solve_maxent.iterations"] += model.iterations


def _solve_error(tracer, exc):
    if type(exc).__name__ == "NotRealizableError":
        tracer.counters["maxent.solve_maxent.not_realizable"] += 1


def _after_vertices(tracer, args, poly):
    tracer.counters["polytope.polytope_vertices.vertices"] += len(poly.vertices)


def _after_eta(tracer, args, verdict):
    tracer.counters["polytope.eta_interior.probes"] += verdict.probes_checked


def _after_expand(tracer, args, grown):
    tracer.counters["expansion.expand.atoms_out"] += len(grown.atoms)


def _after_experiment(tracer, args, reports):
    tracer.counters["estimation.run_error_experiment.trials"] += args[0].trials
