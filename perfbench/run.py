"""Benchmark of relmarg: seeded closed-loop workloads, one client, one thread.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0

Workloads are ``fit``, ``geometry`` and ``estimate`` (see the README next to
this file).  The job list is generated from ``--seed``; the program receives
only the generated inputs.  Jobs run in whole rounds of the workload's
template mix until at least ``--seconds`` have passed and at least 160 jobs
have completed.  Every output is checked; with the default seed it is also
compared with the reference recorded in ``perfbench/reference``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
two rounds of the job list untraced and then traced, times the workload's
share of the nine ``relmarg verify`` suites, and reports the per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

common.pin_environment()

import harness  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            harness.setup(args.workload, args.seed, args.setup_only)
            return 0
        digest = common.source_digest()
        if args.trace:
            import tracerun

            attempted, failed, metrics, extra = tracerun.run_traced(args.workload, args.seed)
        else:
            attempted, failed, metrics, extra = harness.run_timed(
                args.workload, args.seed, args.seconds
            )
        if common.source_digest() != digest:
            raise common.SetupError("files under src/ changed during the run")
    except common.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
