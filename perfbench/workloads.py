"""The four benchmark workloads: points, sizes, configurations and checks.

A *point* is one simulation the benchmark runs again on every round.  It
has three phases the benchmark times separately (``build`` -> ``run`` ->
``read``), an expected finished-task count and a makespan lower bound the
benchmark derives itself from the problem size, and optionally a check
of the run's outputs.  A workload is a list of points plus a list of
functional checks (small functional-mode runs compared with each app's
serial NumPy reference).

Points call the apps' ``run_ompss`` entry points, the machine builders,
and — for ``fuzz-oracle`` — the ``Runtime`` API the way
:func:`repro.dagfuzz.run_workload` does (with its task builder,
``repro.dagfuzz.runner._build_task``), split so that its three phases can
be timed apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.apps import cholesky, jacobi, matmul, spreduce, stream
from repro.dagfuzz import generate, sequential_reference
from repro.dagfuzz.runner import _build_task, build_machine
from repro.hardware import build_gpu_cluster, build_multi_gpu_node
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.config import SCHEDULERS
from repro.sim import Environment

WORKLOADS = ("mgpu-regular", "cluster-regular", "dag-adaptive",
             "fuzz-oracle")

#: the paper's best configuration (write-back, affinity, GPU overlap and
#: prefetch); datamove stays off.
BEST = dict(functional=False, cache_policy="wb", scheduler="affinity",
            overlap=True, prefetch=True)
#: the adaptive tier with its datamove loop (every dag-adaptive point).
ADAPTIVE = dict(scheduler="adaptive", adaptive_datamove=True)
#: STREAM's software-cache share of GPU memory: about 140 MB of a Tesla
#: S2050 and 160 MB of a GTX 480, far below the 768 MB working set per
#: GPU, so blocks are evicted and written back on every sweep.  (The
#: cluster needs the larger share: with presend 2, three in-flight tasks
#: of 48 MB each must fit at once.)
STREAM_CACHE_FRACTION = {"mgpu": 0.05, "cluster": 0.1}
#: fuzz-oracle DAGs per round (``irregular`` and ``nested`` alternate
#: every 36 DAGs).
FUZZ_DAGS = 400


@dataclass
class Outcome:
    """What the benchmark reads back from one point run."""

    makespan: float
    finished: int            # top-level tasks the runtime accounted
    executed: int            # task bodies run by workers, children included
    events: int
    snapshot: dict
    outputs: Optional[dict] = None


def outcome(makespan: float, snap: dict, outputs=None) -> Outcome:
    executed = sum(v for k, v in snap.items() if k.endswith(".tasks") and
                   k.startswith(("worker.", "gpu.")))
    return Outcome(makespan, snap["runtime.tasks_finished"], executed,
                   snap["engine.events_processed"], snap, outputs)


@dataclass
class Point:
    name: str
    build: Callable[[], object]
    run: Callable[[object], object]
    read: Callable[[object], Outcome]
    expected_tasks: int      # task bodies, children included
    min_makespan: float
    #: top-level tasks, where it differs from ``expected_tasks``.
    expected_top: Optional[int] = None
    #: extra output check on every run: returns an error text or None.
    verify: Optional[Callable[[Outcome], Optional[str]]] = None


@dataclass
class Workload:
    name: str
    points: list
    #: (name, check) pairs; ``check()`` returns an error text or None.
    functional: list = field(default_factory=list)


# ----------------------------------------------------------------------
# Independent expectations: task counts and kernel work per app
# ----------------------------------------------------------------------

def _gpu_spec(machine):
    return machine.nodes[0].gpus[0].spec


def _num_gpus(machine) -> int:
    return sum(len(node.gpus) for node in machine.nodes)


def matmul_tasks(size) -> int:
    return size.nt ** 3


def stream_tasks(size) -> int:
    return size.blocks * (4 * size.ntimes + 1)      # + one init per block


def cholesky_tasks(size) -> int:
    nt = size.nt
    return nt * (nt + 1) * (nt + 2) // 6


def jacobi_tasks(size) -> int:
    return size.nb * size.iters


def spreduce_tasks(size) -> int:
    return sum(len(edges) for edges in spreduce.build_plan(size)) \
        + size.segments


def kernel_seconds(app: str, size, g) -> float:
    """Summed kernel time of the timed phase on GPU spec ``g``, without
    jitter, from the cost models the apps document."""
    sgemm, peak = g.sgemm_gflops * 1e9, g.peak_sp_gflops * 1e9
    bw = g.effective_mem_bandwidth
    if app == "matmul":
        return size.nt ** 3 * 2.0 * size.bs ** 3 / sgemm
    if app == "stream":
        # copy 2, scale 2, add 3, triad 3 float64 accesses per element
        return size.blocks * size.ntimes * 10 * 8 * size.bsize / bw
    if app == "cholesky":
        nt, b = size.nt, size.bs
        pairs, triples = nt * (nt - 1) // 2, nt * (nt - 1) * (nt - 2) // 6
        return (nt * (b ** 3 / 3.0) / (peak * 0.08)      # potrf
                + pairs * b ** 3 / (sgemm * 0.5)         # trsm
                + pairs * b ** 3 / sgemm                 # syrk
                + triples * 2.0 * b ** 3 / sgemm)        # gemm
    if app == "jacobi":
        edge = 24 * (size.rows + 1) * size.n
        mid = 24 * (size.rows + 2) * size.n
        return size.iters * (2 * edge + (size.nb - 2) * mid) / bw
    if app == "spreduce":
        edges = sum(len(e) for e in spreduce.build_plan(size))
        return (edges * 4 * (size.bs + 2 * size.seg_len)
                + size.segments * 12 * size.seg_len) / bw
    raise ValueError(app)


_APPS = {"matmul": (matmul, matmul_tasks), "stream": (stream, stream_tasks),
         "cholesky": (cholesky, cholesky_tasks),
         "jacobi": (jacobi, jacobi_tasks),
         "spreduce": (spreduce, spreduce_tasks)}


def _machine_factory(kind: str, count: int):
    if kind == "mgpu":
        return lambda: build_multi_gpu_node(Environment(), num_gpus=count)
    return lambda: build_gpu_cluster(Environment(), num_nodes=count)


def app_point(app: str, kind: str, count: int, size, cfg: dict) -> Point:
    """A point that runs one app's ``run_ompss`` in performance mode."""
    module, tasks = _APPS[app]
    config = RuntimeConfig(**cfg)
    build = _machine_factory(kind, count)
    probe = build()
    bound = (kernel_seconds(app, size, _gpu_spec(probe))
             * (1.0 - config.kernel_jitter) / _num_gpus(probe))

    def run(machine):
        return module.run_ompss(machine, size, config=config)

    def read(res) -> Outcome:
        return outcome(res.makespan, res.metrics)

    return Point(f"{app}-{kind}{count}", build, run, read,
                 expected_tasks=tasks(size), min_makespan=bound)


def app_functional(app: str, kind: str, count: int, size, cfg: dict,
                   compare) -> "tuple[str, Callable]":
    """A functional-mode run at a small size against the serial reference.

    The reference is computed once, here (set-up); the check re-runs the
    OmpSs version on a fresh machine every time it is called.
    """
    module, _ = _APPS[app]
    reference = module.run_serial(size).output
    config = RuntimeConfig(**dict(cfg, functional=True))
    build = _machine_factory(kind, count)

    def check() -> Optional[str]:
        out = module.run_ompss(build(), size, config=config,
                               verify=True).output
        for key, want in reference.items():
            if not compare(out[key], want):
                return f"{app} output {key!r} differs from serial reference"
        return None

    return f"{app}-{kind}{count}-functional", check


def _allclose(rtol):
    return lambda got, want: np.allclose(got, want, rtol=rtol, atol=0.0)


def _equal(got, want) -> bool:
    return np.array_equal(got, want)


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------

# The performance points' sizes and order are fixed, so their simulated
# figures repeat exactly across seeds and every point runs in the same
# context (the calibration slices around a point see the same neighbours).
# The seed picks the sizes of the functional checks instead.

def _regular(kind: str, count: int, seed: int, tiny: bool) -> Workload:
    cfg = dict(BEST)
    if kind == "cluster":
        cfg["presend"] = 2
    stream_cfg = dict(cfg, gpu_cache_fraction=STREAM_CACHE_FRACTION[kind])
    if tiny:
        mm = matmul.MatmulSize(n=512, bs=128)
        st = stream.StreamSize(n=2 ** 16, bsize=2 ** 12, ntimes=2)
    else:
        mm = matmul.MatmulSize(n=4096, bs=256)
        st = stream.StreamSize(n=2 ** 27, bsize=2 ** 21, ntimes=4)
    points = [app_point("matmul", kind, count, mm, cfg),
              app_point("stream", kind, count, st, stream_cfg)]
    functional = [
        app_functional("matmul", kind, count,
                       matmul.MatmulSize(n=16 * (2 + seed % 4), bs=16),
                       cfg, _allclose(1e-4)),
        app_functional("stream", kind, count,
                       stream.StreamSize(n=16 * (2 + seed % 5), bsize=16,
                                         ntimes=2),
                       stream_cfg, _allclose(1e-12)),
    ]
    return Workload(f"{kind}-regular", points, functional)


def _dag_adaptive(seed: int, tiny: bool) -> Workload:
    mgpu = dict(functional=False, overlap=True, prefetch=True, **ADAPTIVE)
    cluster = dict(BEST, presend=2, **ADAPTIVE)
    if tiny:
        ch = cholesky.CholeskySize(n=1024, bs=256)
        jc = jacobi.JacobiSize(n=512, nb=4, iters=2)
        sr = spreduce.SpreduceSize(nb=16, bs=4096, segments=8,
                                   seg_len=1024, max_degree=4)
    else:
        ch, jc, sr = (cholesky.PAPER_CHOLESKY, jacobi.PAPER_JACOBI,
                      spreduce.PAPER_SPREDUCE)
    points = [
        # Cholesky starts under write-through: the adaptive datamove loop
        # has to recover the write-back mode by itself.
        app_point("cholesky", "mgpu", 4, ch, dict(mgpu, cache_policy="wt")),
        app_point("cholesky", "cluster", 8, ch, cluster),
        app_point("jacobi", "mgpu", 4, jc, mgpu),
        app_point("jacobi", "cluster", 4, jc, cluster),
        app_point("spreduce", "mgpu", 4, sr, mgpu),
        app_point("spreduce", "cluster", 4, sr, cluster),
    ]
    ch_test = cholesky.CholeskySize(n=16 * (4 + seed % 5), bs=16)
    jc_test = jacobi.JacobiSize(n=4 * (6 + seed % 5), nb=4, iters=3)
    sr_test = spreduce.SpreduceSize(nb=12, bs=64, segments=8, seg_len=8,
                                    max_degree=5, seed=seed)
    functional = []
    for kind, count, cfg in (("mgpu", 4, mgpu), ("cluster", 4, cluster)):
        functional += [
            app_functional("cholesky", kind, count, ch_test, cfg, _equal),
            app_functional("jacobi", kind, count, jc_test, cfg, _equal),
            app_functional("spreduce", kind, count, sr_test, cfg, _equal),
        ]
    return Workload("dag-adaptive", points, functional)


# ----------------------------------------------------------------------
# fuzz-oracle: seeded dagfuzz DAGs through the public Runtime API
# ----------------------------------------------------------------------

def count_ops(ops) -> int:
    """Tasks a dagfuzz op list submits, children included."""
    return sum(1 + count_ops(op.children) for op in ops)


def op_seconds(ops) -> float:
    return sum(op.cost + op_seconds(op.children) for op in ops)


def fuzz_point(spec, index: int, machine_name: str,
               config: RuntimeConfig) -> Point:
    """One DAG: build machine + runtime + tasks, run, read every region."""
    table = spec.regions()
    expected = sequential_reference(spec)
    probe = build_machine(Environment(), machine_name)
    devices = _num_gpus(probe) + sum(n.spec.cpu.cores for n in probe.nodes)
    bound = op_seconds(spec.ops) * (1.0 - config.kernel_jitter) / devices

    def build():
        env = Environment()
        rt = Runtime(build_machine(env, machine_name), config)
        objects = [rt.register_array(
            f"o{i}", spec.object_elements(i),
            initial=np.full(spec.object_elements(i), np.float32(i + 1),
                            dtype=np.float32))
            for i in range(spec.num_objects)]

        def region_of(rid):
            info = table[rid]
            return objects[info.obj_index].region(info.start, info.length)

        tasks = [_build_task(op, f"t{i}", region_of)
                 for i, op in enumerate(spec.ops)]
        return rt, region_of, tasks

    def run(state):
        rt, region_of, tasks = state

        def main():
            for op, task in zip(spec.ops, tasks):
                rt.submit(task)
                if op.wait_after == "on":
                    yield from rt.taskwait_on([region_of(op.out)])
                elif op.wait_after == "on_noflush":
                    yield from rt.taskwait_on([region_of(op.out)],
                                              noflush=True)
                elif op.wait_after == "all":
                    yield from rt.taskwait()
                elif op.wait_after == "all_noflush":
                    yield from rt.taskwait(noflush=True)
            yield from rt.taskwait()

        return rt, region_of, rt.run_main(main())

    def read(state) -> Outcome:
        rt, region_of, makespan = state
        outputs = {info.rid: np.array(rt.master_host.read(
            region_of(info.rid))) for info in table}
        return outcome(makespan, rt.metrics.snapshot(), outputs)

    def verify(out: Outcome) -> Optional[str]:
        for info in table:
            got = out.outputs[info.rid]
            if not (got == np.float32(expected[info.rid])).all():
                return (f"region {info.rid} expected {expected[info.rid]} "
                        f"got {np.unique(got)!r}")
        return None

    return Point(f"dag{index}-{machine_name}-{config.scheduler}-"
                 f"{config.cache_policy.value}", build, run, read,
                 expected_tasks=count_ops(spec.ops), min_makespan=bound,
                 expected_top=len(spec.ops), verify=verify)


def _fuzz_oracle(seed: int, tiny: bool) -> Workload:
    """DAG seeds come from ``seed``; scheduler, cache policy, machine and
    profile rotate with the DAG's index (periods 6, 18, 36 and 72), so
    every round covers each combination equally."""
    count = 24 if tiny else FUZZ_DAGS
    first = seed * 100_003 % 1_000_000
    points = []
    for i in range(count):
        profile = ("irregular", "nested")[i // 36 % 2]
        spec = generate(first + i, profile)
        cache = ("wb", "wt", "nocache")[i // 6 % 3]
        config = RuntimeConfig(functional=True, scheduler=SCHEDULERS[i % 6],
                               cache_policy=cache)
        machine = ("gpu2", "cluster2")[i // 18 % 2]
        points.append(fuzz_point(spec, i, machine, config))
    return Workload("fuzz-oracle", points)


def build_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    """Every input of one workload: points, references and expectations."""
    if name == "mgpu-regular":
        return _regular("mgpu", 4, seed, tiny)
    if name == "cluster-regular":
        return _regular("cluster", 4, seed, tiny)
    if name == "dag-adaptive":
        return _dag_adaptive(seed, tiny)
    if name == "fuzz-oracle":
        return _fuzz_oracle(seed, tiny)
    raise ValueError(f"unknown workload {name!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")
