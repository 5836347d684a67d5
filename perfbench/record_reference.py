"""Record the reference outputs of the default seed's job lists.

    python3 perfbench/record_reference.py [workload ...]

Runs every job of each workload's list once, refuses to record if any
construction invariant fails, and writes ``perfbench/reference/<workload>.json``
with each job's exact-output digest and float outputs.  References are meant
to be recorded once, from the commit that defined the benchmark; later
commits are checked against them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import common

common.pin_environment()

import harness  # noqa: E402


def record(workload):
    workdir = os.path.join(common.WORK, f"record-{os.getpid()}")
    try:
        jobs = harness.setup(workload, common.DEFAULT_SEED, workdir)
        entries = []
        for index, job in enumerate(jobs):
            outcome = job.check(job.run())
            if outcome.problems:
                raise SystemExit(f"{workload} job {index} ({job.template}): {outcome.problems}")
            entries.append({"template": job.template, "digest": outcome.digest,
                            "floats": outcome.floats})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = os.path.join(harness.REFERENCE_DIR, f"{workload}.json")
    write_reference(path, {"workload": workload, "seed": common.DEFAULT_SEED,
                           "source_digest": common.source_digest()}, entries)
    print(f"{workload}: {len(entries)} jobs recorded to {os.path.relpath(path, common.ROOT)}")


def write_reference(path, header, entries):
    """JSON with one job per line, so a re-recording diffs job by job."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header)[:-1] + ', "jobs": [\n')
        fh.write(",\n".join(json.dumps(e) for e in entries))
        fh.write("\n]}\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or harness.WORKLOADS:
        record(name)
