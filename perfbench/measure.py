"""Rounds, checks, and the layer-by-layer accounting of a traced run.

A *round* runs every point of a workload once, back to back in this
process and thread, then every functional check once.  Each point run is
checked independently of the program:

* finished tasks equal the count the benchmark derives from the size;
* the makespan is at least the summed kernel work over the device count;
* the run repeats the first round's makespan, task and event counts bit
  for bit;
* the point's own output check, where it has one (the dagfuzz oracle).

A failed check marks that run failed and the round goes on.  Spans around
every call the benchmark makes into the program are kept in memory and
can be written out as Chrome trace-event JSON.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import repro

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

#: per-layer host-time buckets, named after the ``repro`` modules.
LAYERS = ("sim", "api", "runtime.dependences", "runtime.scheduler",
          "runtime.coherence", "runtime.datamove", "runtime.gpu_manager",
          "runtime.cluster", "runtime.core", "memory", "cuda", "gasnet",
          "hardware", "metrics", "apps", "dagfuzz")
_TOP = {"sim", "api", "memory", "cuda", "gasnet", "hardware", "metrics",
        "apps", "dagfuzz"}
_RUNTIME_MODULES = {"dependences", "coherence", "datamove", "gpu_manager"}

#: host-speed calibration: a fixed slice of engine-shaped Python work (heap
#: traffic, dict traffic, integer arithmetic) runs between point runs at
#: least every CAL_INTERVAL seconds of point work.
CAL_ITERS = 8000
CAL_INTERVAL = 0.1
#: the slice time normalised figures are scaled to: the slice's median on
#: the 2-core machine the reference figures come from (README.md).
CAL_REF_S = 0.009
#: how strongly the simulator's host time follows the slice's: across 20
#: runs on that machine, scaling by (CAL_REF_S / slice) ** 0.75 left the
#: least run-to-run spread (1.0 over-corrects, 0.5 under-corrects).
CAL_EXPONENT = 0.75


def calibration_slice() -> float:
    """Seconds this host takes for the fixed calibration work."""
    heap: list = []
    table: dict = {}
    total = 0
    t0 = time.perf_counter()
    for i in range(CAL_ITERS):
        heapq.heappush(heap, (i % 97, i))
        table[i % 512] = i
        total += table.get((i * 7) % 512, 0)
        if i % 3 == 0:
            heapq.heappop(heap)
    return time.perf_counter() - t0


@dataclass
class RoundStats:
    tasks: int = 0
    events: int = 0
    makespans: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    #: host seconds in build + run + read, per point
    point_walls: dict = field(default_factory=dict)
    #: wall times scaled by host speed: (CAL_REF_S over the mean of the
    #: calibration slices just before and just after the point run) raised
    #: to CAL_EXPONENT
    point_norm: dict = field(default_factory=dict)
    slices: list = field(default_factory=list)
    build: float = 0.0
    run: float = 0.0
    read: float = 0.0
    runs: int = 0


class Runner:
    """Runs rounds of one workload and keeps the failure tally."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: "list[str]" = []
        self.spans: "list[tuple]" = []
        self._first: dict = {}
        self._t0 = time.perf_counter()

    def _fail(self, what: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {why}")

    def _span(self, name, cat, start, end, rnd) -> None:
        self.spans.append((name, cat, start - self._t0, end - self._t0, rnd))

    def _check(self, point, out) -> "str | None":
        top = point.expected_top or point.expected_tasks
        if (out.finished, out.executed) != (top, point.expected_tasks):
            return (f"finished {out.finished} tasks and ran "
                    f"{out.executed}, expected {top} and "
                    f"{point.expected_tasks}")
        if not out.makespan >= point.min_makespan > 0:
            return (f"makespan {out.makespan!r} below the kernel-work "
                    f"bound {point.min_makespan!r}")
        sig = (out.makespan, out.executed, out.events)
        first = self._first.setdefault(point.name, sig)
        if sig != first:
            return f"not deterministic: {sig} after {first}"
        if point.verify is not None:
            return point.verify(out)
        return None

    def round(self, rnd: int, profiler=None, tracer_factory=None,
              keep=False) -> RoundStats:
        """One round.  ``profiler`` (a cProfile.Profile) is enabled only
        around the build/run/read calls; ``tracer_factory`` returns a
        context manager installed around each point run."""
        stats = RoundStats()
        clock = time.perf_counter
        gc.collect()
        slices = stats.slices
        slices.append(calibration_slice())
        since_slice = 0.0
        walls = []
        for point in self.workload.points:
            self.attempted += 1
            if since_slice >= CAL_INTERVAL:
                slices.append(calibration_slice())
                since_slice = 0.0
            ctx = tracer_factory() if tracer_factory else nullcontext()
            try:
                with ctx as tracer:
                    t0 = clock()
                    if profiler:
                        profiler.enable()
                    try:
                        state = point.build()
                        t1 = clock()
                        state = point.run(state)
                        t2 = clock()
                        out = point.read(state)
                        t3 = clock()
                    finally:
                        if profiler:
                            profiler.disable()
            except Exception as exc:        # a crash is a failed run
                self._fail(point.name, f"{type(exc).__name__}: {exc}")
                continue
            self._span(f"{point.name}.build", "build", t0, t1, rnd)
            self._span(f"{point.name}.run", "run", t1, t2, rnd)
            self._span(f"{point.name}.read", "read", t2, t3, rnd)
            error = self._check(point, out)
            self._span(f"{point.name}.check", "check", t3, clock(), rnd)
            if error:
                self._fail(point.name, error)
            since_slice += t3 - t0
            walls.append((point.name, t3 - t0, len(slices) - 1))
            stats.build += t1 - t0
            stats.run += t2 - t1
            stats.read += t3 - t2
            stats.runs += 1
            stats.tasks += out.executed
            stats.events += out.events
            stats.makespans.append(out.makespan)
            if keep:
                out.outputs = None          # checked already; free the bytes
                stats.outcomes.append((out, tracer))
        slices.append(calibration_slice())
        for name, wall, i in walls:
            stats.point_walls[name] = wall
            speed = CAL_REF_S * 2 / (slices[i] + slices[i + 1])
            stats.point_norm[name] = wall * speed ** CAL_EXPONENT
        for name, check in self.workload.functional:
            self.attempted += 1
            t0 = clock()
            try:
                error = check()
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            self._span(name, "functional", t0, clock(), rnd)
            if error:
                self._fail(name, error)
        return stats

    def write_chrome(self, path: str) -> None:
        """The benchmark's spans as Chrome trace-event JSON, one thread
        per span category."""
        cats = sorted({s[1] for s in self.spans})
        tid = {c: i + 1 for i, c in enumerate(cats)}
        events = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid[c],
                   "args": {"name": c}} for c in cats]
        events += [{"name": name, "cat": cat, "ph": "X", "pid": 1,
                    "tid": tid[cat], "ts": start * 1e6,
                    "dur": (end - start) * 1e6, "args": {"round": rnd}}
                   for name, cat, start, end, rnd in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"workload": self.workload.name}}, fh)


def us_per_task(rounds: list, field: str = "point_norm") -> float:
    """Host microseconds per task: each point's median time over the
    rounds, summed, over the tasks of one round.  Per-point medians keep a
    burst of host noise from moving a whole round's figure."""
    points = getattr(rounds[0], field)
    total = sum(statistics.median(getattr(r, field)[name] for r in rounds
                                  if name in getattr(r, field))
                for name in points)
    return total / rounds[0].tasks * 1e6


# ----------------------------------------------------------------------
# Profile attribution
# ----------------------------------------------------------------------

def layer_of(filename: str) -> "str | None":
    """The layer a source file belongs to; None outside repro and the
    benchmark (builtins, the standard library, NumPy)."""
    if filename.startswith(_BENCH_DIR):
        return "bench"
    if not filename.startswith(_REPRO_DIR):
        return None
    parts = filename[len(_REPRO_DIR):].split(os.sep)
    if parts[0] in _TOP:
        return parts[0]
    if parts[0] == "runtime":
        if len(parts) > 2:                      # scheduler/, cluster/
            return f"runtime.{parts[1]}"
        stem = parts[1][:-3]
        return f"runtime.{stem}" if stem in _RUNTIME_MODULES \
            else "runtime.core"
    return "other"                              # faults, sanitizer, ...


def attribute(stats: dict) -> "tuple[dict, dict]":
    """Charge every function's self time and calls to a layer.

    Functions outside the layers (builtins, library code) are charged to
    their callers in proportion to the cumulative time each caller spent
    in them, recursively, so library time lands in the ``repro`` layer
    that called it.  Time no layer can be found for (a cycle among
    library functions, a library root) lands in ``unattributed``.
    """
    memo: dict = {}

    def dist(func, visiting) -> dict:
        if func in memo:
            return memo[func]
        layer = layer_of(func[0])
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        weights = {c: v[3] for c, v in callers.items() if c not in visiting}
        total = sum(weights.values())
        if total <= 0:
            return {"unattributed": 1.0}
        out: dict = {}
        for caller, w in weights.items():
            for lay, share in dist(caller, visiting | {func}).items():
                out[lay] = out.get(lay, 0.0) + share * w / total
        memo[func] = out
        return out

    self_time: dict = {}
    calls: dict = {}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        for lay, share in dist(func, frozenset()).items():
            self_time[lay] = self_time.get(lay, 0.0) + tt * share
            calls[lay] = calls.get(lay, 0.0) + nc * share
    return self_time, calls


def resumes(stats: dict) -> int:
    """Calls of the engine's process-resume step."""
    return sum(v[1] for f, v in stats.items()
               if f[2] == "_resume" and layer_of(f[0]) == "sim")


# ----------------------------------------------------------------------
# Modelled components, from each run's counter snapshot and Tracer
# ----------------------------------------------------------------------

def _sum(snap: dict, prefix: str, suffix: str) -> float:
    return sum(v for k, v in snap.items()
               if k.startswith(prefix) and k.endswith(suffix)
               and isinstance(v, (int, float)))


def model_metrics(outcomes: list, tasks: int) -> dict:
    """Deterministic per-round counts and ratios from one round's runs."""
    hits = misses = evictions = writebacks = lookups = transfers = 0
    moved = elided = fused = steals = switches = am_msgs = am_bytes = 0
    pending = 0
    kernel_busy = gpu_span = 0.0
    busiest_link = 0.0
    for out, tracer in outcomes:
        s = out.snapshot
        hits += _sum(s, "cache.", ".hits")
        misses += _sum(s, "cache.", ".misses")
        evictions += _sum(s, "cache.", ".evictions")
        writebacks += _sum(s, "cache.", ".writebacks")
        lookups += s.get("directory.lookups", 0)
        transfers += s.get("coherence.transfers", 0)
        moved += s.get("coherence.bytes_transferred", 0)
        elided += s.get("datamove.writebacks_elided", 0)
        fused += s.get("datamove.fused_transfers", 0)
        steals += s.get("scheduler.steals", 0)
        switches += s.get("scheduler.adaptive.switches", 0)
        pending = max(pending, s.get("scheduler.pending.high_water", 0))
        am_msgs += sum(v for k, v in s.items()
                       if k.startswith("am.") and k.endswith("_sent")
                       and k != "am.bytes_sent")
        am_bytes += s.get("am.bytes_sent", 0)
        if tracer is not None and tracer.events:
            end = max(e.end for e in tracer.events)
            gpus = [p for p in tracer.places() if p.startswith("gpu:")]
            kernel_busy += sum(tracer.busy_time(p, ("kernel",))
                               for p in gpus)
            gpu_span += len(gpus) * end
            for k, v in s.items():
                if k.startswith("hardware.link.") and \
                        k.endswith(".busy_seconds") and end > 0:
                    busiest_link = max(busiest_link, v / end)
    return {
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions_per_task": evictions / tasks,
        "cache.writebacks_per_task": writebacks / tasks,
        "directory.lookups_per_task": lookups / tasks,
        "coherence.transfers_per_task": transfers / tasks,
        "coherence.mb_moved": moved / 1e6,
        "datamove.writebacks_elided": elided,
        "datamove.fused_transfers": fused,
        "scheduler.steals": steals,
        "scheduler.adaptive.switches": switches,
        "scheduler.pending_high_water": pending,
        "am.messages_per_task": am_msgs / tasks,
        "am.mb_sent": am_bytes / 1e6,
        "link.busiest_busy_frac": busiest_link,
        "gpu.busy_frac": kernel_busy / gpu_span if gpu_span else 0.0,
    }
