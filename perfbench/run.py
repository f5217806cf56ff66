"""Benchmark of the OmpSs/Nanos++ simulator: host cost per simulated task,
simulated makespan, and where the host time goes, layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mgpu-regular --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload is a closed loop: rounds of back-to-back simulations in this
one process and thread.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate profiled run; both end
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
See README.md next to this file for the metrics, the workloads and the
checks.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: set-up is measured in this process plus this many fresh interpreters.
SETUP_PROBES = 2
#: share of a traced run spent on untraced rounds (the overhead baseline).
UNTRACED_SHARE = 0.4


def _import_program() -> None:
    """Put the checkout's sources on the path; refuse to run without them."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no repro sources at {SRC}; run from the "
                 "root of a checkout")
    sys.path.insert(0, SRC)


def _per_task(st) -> float:
    wall = sum(st.point_walls.values())
    return wall / st.tasks * 1e6 if st.tasks else float("nan")


def _setup_seconds(args, own: float) -> float:
    """Median set-up time: this process plus fresh interpreters, each
    timing its own import of repro and build of the workload's inputs."""
    samples = [own]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def _units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(runner, seconds: float, setup_s: float) -> dict:
    import cProfile
    import pstats

    from measure import us_per_task

    # The warm-up round is untimed; it counts the Python calls.
    prof = cProfile.Profile()
    first = runner.round(0, profiler=prof)
    timed = []
    deadline = time.perf_counter() + seconds
    while not timed or time.perf_counter() < deadline:
        timed.append(runner.round(len(timed) + 1))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "wall_us_per_task": us_per_task(timed),
        "sim_makespan_s": _geomean(first.makespans),
        "events_per_task": first.events / first.tasks,
        "py_calls_per_task": pstats.Stats(prof).total_calls / first.tasks,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    print(f"timed rounds: {len(timed)}; runs per round: {first.runs}; "
          f"tasks per round: {first.tasks}; us/task per round: "
          + " ".join(f"{_per_task(s):.1f}" for s in timed))
    slice_ms = statistics.median(x for s in timed for x in s.slices) * 1e3
    print(f"raw wall us/task {us_per_task(timed, 'point_walls'):.1f}; "
          f"calibration slice median {slice_ms:.3f} ms")
    return values


def per_layer(runner, seconds: float, trace_path: str) -> dict:
    import cProfile
    import pstats

    from measure import (LAYERS, attribute, model_metrics, resumes,
                         us_per_task)
    from repro.runtime import trace

    runner.round(0)                               # warm-up, untimed
    start = time.perf_counter()
    plain, profiled = [], []
    while not plain or time.perf_counter() < start + UNTRACED_SHARE * seconds:
        plain.append(runner.round(len(plain) + 1))
    prof = cProfile.Profile()
    while not profiled or time.perf_counter() < start + seconds:
        profiled.append(runner.round(100 + len(profiled), profiler=prof))
    traced = runner.round(1000, tracer_factory=trace.install, keep=True)
    runner.write_chrome(trace_path)

    stats = pstats.Stats(prof).stats
    self_time, calls = attribute(stats)
    total = sum(self_time.values())
    tasks = sum(s.tasks for s in profiled)
    base_us = us_per_task(plain)
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_us_per_task"] = \
            self_time.get(layer, 0.0) / total * base_us
        values[f"{layer}.calls_per_task"] = calls.get(layer, 0.0) / tasks
    values["sim.resumes_per_task"] = resumes(stats) / tasks
    values["profile.unattributed_frac"] = \
        self_time.get("unattributed", 0.0) / total
    values["trace.overhead_us_per_task"] = us_per_task(profiled) - base_us
    values["host.raw_wall_us_per_task"] = us_per_task(plain, "point_walls")
    values["host.calibration_ms"] = statistics.median(
        x for s in plain for x in s.slices) * 1e3
    for phase in ("build", "run", "read"):
        values[f"run.{phase}_ms_per_run"] = statistics.median(
            getattr(s, phase) / s.runs * 1e3 for s in plain)
    values.update(model_metrics(traced.outcomes, traced.tasks))
    print(f"untraced rounds: {len(plain)}; profiled rounds: "
          f"{len(profiled)}; spans: {trace_path}")
    return values


def run_all(args, workloads) -> int:
    """Every workload in turn, each in its own interpreter."""
    status = 0
    for name in workloads:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], timeout=600)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    _import_program()
    from measure import Runner
    from workloads import WORKLOADS, build_workload

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, WORKLOADS)

    workload = build_workload(args.workload, args.seed)
    own_setup = time.perf_counter() - _T_START
    if args.setup_probe:
        print(own_setup)
        return 0
    # Set-up objects move out of the collector's sight, so collection cost
    # in the timed rounds does not depend on the benchmark's input size.
    gc.collect()
    gc.freeze()

    runner = Runner(workload)
    print(f"workload {args.workload} seed {args.seed}; python "
          f"{platform.python_version()}")
    if args.trace:
        path = os.path.join(HERE, "out",
                            f"{args.workload}-seed{args.seed}.trace.json")
        values = per_layer(runner, args.seconds, path)
        units = _units("per_layer")
    else:
        values = end_to_end(runner, args.seconds,
                            _setup_seconds(args, own_setup))
        units = _units("end_to_end")
    if set(values) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {runner.attempted}, failed {runner.failed}")
    for error in runner.errors:
        print(f"  FAILED {error}", file=sys.stderr)
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
