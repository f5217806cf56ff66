"""Planted-fault self-test: the benchmark's checks are not vacuous.

Runs every workload at tiny sizes for two rounds and expects:

* no failed run on the unmodified program;
* failed runs on ``fuzz-oracle`` under the dagfuzz mutations
  ``drop_arc`` (a lost dependence) and ``skip_writeback`` (results never
  reach host memory);
* failed runs on a regular workload told a wrong task count, and on one
  whose makespan changes between rounds.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from measure import Runner  # noqa: E402
from workloads import WORKLOADS, build_workload  # noqa: E402


def two_rounds(workload, mutate=None) -> Runner:
    from repro.dagfuzz import MUTATIONS
    runner = Runner(workload)
    ctx = MUTATIONS[mutate]() if mutate else contextlib.nullcontext()
    with ctx:
        runner.round(0)
        runner.round(1)
    return runner


def wrong_count(workload):
    first = workload.points[0]
    workload.points[0] = dataclasses.replace(
        first, expected_tasks=first.expected_tasks + 1)
    return workload


def drifting_makespan(workload):
    """The first point reads its makespan a little longer on every call."""
    first = workload.points[0]
    calls = []

    def read(state):
        out = first.read(state)
        calls.append(1)
        out.makespan += len(calls) * 1e-15
        return out

    workload.points[0] = dataclasses.replace(first, read=read)
    return workload


def main() -> int:
    cases = [(f"{name} unmodified", name, None, None, False)
             for name in WORKLOADS]
    cases += [
        ("fuzz-oracle under drop_arc", "fuzz-oracle", "drop_arc", None, True),
        ("fuzz-oracle under skip_writeback", "fuzz-oracle",
         "skip_writeback", None, True),
        ("mgpu-regular with a wrong task count", "mgpu-regular", None,
         wrong_count, True),
        ("dag-adaptive with a drifting makespan", "dag-adaptive", None,
         drifting_makespan, True),
    ]
    ok = True
    for label, name, mutate, plant, want_failures in cases:
        workload = build_workload(name, seed=1, tiny=True)
        if plant:
            workload = plant(workload)
        runner = two_rounds(workload, mutate)
        good = (runner.failed > 0) == want_failures
        ok &= good
        print(f"{'PASS' if good else 'FAIL'}  {label}: "
              f"{runner.failed} of {runner.attempted} runs failed")
        if runner.errors:
            print(f"      first failure: {runner.errors[0]}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
