"""Shared machinery: host probe, timed operation loop, results, output."""

from __future__ import annotations

import ctypes
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Probe time (ms) that defines the "reference host speed".  fleet_bursty
# and cdt_train scale each operation's wall time by REFERENCE_PROBE_MS /
# probe_ms, so a phase in which the host runs uniformly slower moves the
# probe and the operation together and cancels out.  A round value in
# the range the probe reads on a 2-vCPU Intel Xeon VM (OpenBLAS 0.3.31,
# 1 thread): about 4 ms in its fastest phases, 10-13 ms in its slowest.
REFERENCE_PROBE_MS = 10.0

# setup_s is the median of this many in-process set-ups.
SETUP_REPEATS = 3

# A run is flagged (not failed) when its noise sources exceed these,
# which about the noisiest quarter of runs on a 2-vCPU VM did.
PROBE_IQR_FLAG = 0.25          # probe IQR as a share of its median
LATENESS_FLAG_MS = 8.0         # open-loop generator p99 lateness


def _load_metric_specs() -> Tuple[Dict[str, str], Dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


E2E_UNITS, LAYER_UNITS = _load_metric_specs()


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
def _blas_threads() -> Optional[int]:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({
                line.split()[-1] for line in handle if "openblas" in line
            })
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(seed: int, thread_env: Sequence[str]) -> Dict:
    """What a result needs next to it to be compared with another."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {name: os.environ.get(name) for name in thread_env},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "reference_probe_ms": REFERENCE_PROBE_MS,
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q * 100.0))


def tail_quantile(n: int) -> float:
    """Highest quantile with at least ten samples beyond it (<= p99).

    Below twenty samples no quantile above the median qualifies, so the
    median is reported instead.
    """
    if n <= 0:
        return 0.5
    return min(0.99, max(0.5, 1.0 - 10.0 / n))


def latency_metrics(values_ms: Sequence[float]) -> Dict[str, Tuple[float, int]]:
    """``latency_p50_ms`` and ``latency_tail_ms`` of ``values_ms``."""
    n = len(values_ms)
    return {
        "latency_p50_ms": (percentile(values_ms, 0.5), n),
        "latency_tail_ms": (percentile(values_ms, tail_quantile(n)), n),
    }


def iqr_share(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ----------------------------------------------------------------------
# Host-speed probe
# ----------------------------------------------------------------------
def _aligned(shape) -> np.ndarray:
    """A float32 array on a 64-byte boundary.  The same GEMM runs ~5%
    slower on an unaligned array, and numpy's default alignment would
    make that a per-process coin flip."""
    size = int(np.prod(shape))
    buffer = np.empty(size + 16, dtype=np.float32)
    start = (-buffer.ctypes.data % 64) // 4
    return buffer[start:start + size].reshape(shape)


class HostProbe:
    """Fixed ~10 ms of work owned by the benchmark: 96x96 float32 GEMMs.

    Run with no program threads alive, its time tracks how fast the host
    is right now.  Of the probes tried (GEMM, pure-Python loop, large
    and tiny elementwise numpy ops, and mixes), GEMM alone tracked the
    per-operation times of both fleet_bursty and cdt_train best across
    the host's fast and slow phases.

    The host's speed also flickers within an operation, so workloads
    run short :meth:`chunk` probes at fixed points inside each timed
    operation.  A *window* pools every probe GEMM from the probe before
    an operation to the probe after it; its mean speed is the estimate
    for that operation, and the chunks' own time is taken out of the
    operation's wall time.
    """

    GEMMS = 450

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._a, self._b, self._out = (_aligned((96, 96)) for _ in range(3))
        self._a[:] = rng.standard_normal((96, 96))
        self._b[:] = rng.standard_normal((96, 96))
        self.samples_ms: List[float] = []
        self.open_window()

    def _run(self, count: int) -> float:
        a, b, out = self._a, self._b, self._out
        start = time.perf_counter()
        for _ in range(count):
            np.matmul(a, b, out=out)
        elapsed = time.perf_counter() - start
        self._window_s += elapsed
        self._window_gemms += count
        return elapsed

    def measure(self) -> float:
        """One full probe; returns its time in ms."""
        value = self._run(self.GEMMS) * 1e3
        self.samples_ms.append(value)
        return value

    def chunk(self, count: int = 30) -> None:
        """A short probe inside a timed operation."""
        self.inside_s += self._run(count)

    def open_window(self) -> None:
        self._window_s = 0.0
        self._window_gemms = 0
        self.inside_s = 0.0

    def window_ms(self) -> float:
        """Mean probe time (ms per full probe) over the current window."""
        return self._window_s / self._window_gemms * self.GEMMS * 1e3


# ----------------------------------------------------------------------
# GC pause accounting
# ----------------------------------------------------------------------
class GCPauses:
    """Total collector pause time while installed (via gc.callbacks)."""

    def __init__(self):
        self.total_s = 0.0
        self.count = 0
        self._start = 0.0

    def _callback(self, phase, info) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.total_s += time.perf_counter() - self._start
            self.count += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False


def settle_heap() -> None:
    """Collect set-up garbage and move survivors out of the collector's
    reach, so collections during timing scan only what timing allocates."""
    gc.collect()
    gc.freeze()


# ----------------------------------------------------------------------
# Timed set-up and operation loops
# ----------------------------------------------------------------------
@dataclass
class SetupTiming:
    raw_s: List[float] = field(default_factory=list)
    adjusted_s: List[float] = field(default_factory=list)

    @property
    def value_s(self) -> float:
        """Median host-adjusted set-up time."""
        return statistics.median(self.adjusted_s)


def timed(fn: Callable[[], object], probe: HostProbe):
    """Run ``fn`` between two probes: (result, wall s, adjusted s).

    The wall time leaves out probe chunks run inside ``fn``; the
    adjusted time is the wall time at the reference host speed.
    """
    probe.open_window()
    probe.measure()
    start = time.perf_counter()
    output = fn()
    wall = time.perf_counter() - start - probe.inside_s
    probe.measure()
    return output, wall, wall * REFERENCE_PROBE_MS / probe.window_ms()


def repeated_setup(
    build: Callable[[], object],
    probe: HostProbe,
    teardown: Optional[Callable[[object], None]] = None,
    repeats: int = SETUP_REPEATS,
):
    """Run ``build`` ``repeats`` times; keep the last product.

    Every earlier product is torn down before the next build starts, so
    each repetition starts from the same state.
    """
    timing = SetupTiming()
    product = None
    for k in range(repeats):
        if k and teardown is not None:
            teardown(product)
        product = None
        product, wall, adjusted = timed(build, probe)
        timing.raw_s.append(wall)
        timing.adjusted_s.append(adjusted)
    return product, timing


@dataclass
class OpSample:
    index: int
    wall_s: float
    adjusted_s: float
    traced: bool
    output: object = None


def run_ops(
    op: Callable[[int], object],
    seconds: float,
    probe: HostProbe,
    tracer=None,
    finish: Optional[Callable[[object], object]] = None,
    min_untraced: int = 3,
) -> List[OpSample]:
    """Repeat ``op(index)`` for ``seconds``, each bracketed by probes.

    ``finish(output)`` runs outside the timed window and its return
    value is kept as the sample's output.  With a tracer, odd-numbered
    operations run with its wrappers installed and even ones without,
    so both halves see the same host phases and the difference between
    them is the tracing overhead.
    """
    samples: List[OpSample] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        untraced = sum(1 for s in samples if not s.traced)
        if time.perf_counter() >= deadline and untraced >= min_untraced:
            break
        traced = tracer is not None and index % 2 == 1

        def call():
            if not traced:
                return op(index)
            tracer.install()
            try:
                with tracer.span("op", rid=index):
                    return op(index)
            finally:
                tracer.uninstall()

        output, wall, adjusted = timed(call, probe)
        if finish is not None:
            output = finish(output)
        samples.append(OpSample(index, wall, adjusted, traced, output))
        index += 1
    return samples


def op_rates(samples: Sequence[OpSample], work: float) -> Dict[str, float]:
    """Median per-operation throughput, host-adjusted and raw."""
    adjusted = statistics.median(s.adjusted_s for s in samples)
    raw = statistics.median(s.wall_s for s in samples)
    return {"adjusted": work / adjusted, "raw": work / raw}


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def rss_peak_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Result:
    """Everything one run reports."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    e2e: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    traced_e2e: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    layers: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    flags: List[str] = field(default_factory=list)
    details: Dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.failures

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def final_line(self, trace: int) -> Dict:
        values, units = (
            (self.layers, LAYER_UNITS) if trace else (self.e2e, E2E_UNITS)
        )
        missing = sorted(set(units) - set(values))
        if missing:
            raise RuntimeError(f"workload did not report {missing}")
        metrics = {}
        for name, unit in units.items():
            value = float(values[name][0])
            if not math.isfinite(value):
                raise RuntimeError(f"metric {name} is not finite: {value}")
            metrics[name] = {"value": value, "unit": unit}
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": metrics,
        }


def host_layers(result: Result, probe: HostProbe, gc_pauses: GCPauses) -> None:
    """The benchmark's own noise-explaining metrics."""
    samples = probe.samples_ms
    result.layers["host.probe_ms"] = (statistics.median(samples), len(samples))
    spread = iqr_share(samples)
    result.layers["host.probe_iqr_share"] = (spread, len(samples))
    if spread > PROBE_IQR_FLAG:
        result.flags.append(
            f"host probe IQR is {spread:.1%} of its median "
            f"(> {PROBE_IQR_FLAG:.0%}): host speed changed during the run"
        )
    result.layers["runtime.gc_pause_ms"] = (
        gc_pauses.total_s * 1e3, gc_pauses.count
    )


def _format(name: str, value: float, unit: str, samples: int) -> str:
    return f"  {name:<34} {value:>14.6g} {unit:<9} n={samples}"


def print_report(result: Result, trace: int) -> None:
    print(f"attempted {result.attempted}  failed {result.failed}")
    print("end-to-end (untraced operations):")
    for name, unit in E2E_UNITS.items():
        if name in result.e2e:
            value, samples = result.e2e[name]
            print(_format(name, value, unit, samples))
    if trace:
        print("end-to-end (traced operations):")
        for name, unit in E2E_UNITS.items():
            if name in result.traced_e2e:
                value, samples = result.traced_e2e[name]
                print(_format(name, value, unit, samples))
        print("per-layer:")
        for name, unit in LAYER_UNITS.items():
            if name in result.layers:
                value, samples = result.layers[name]
                print(_format(name, value, unit, samples))
    for flag in result.flags:
        print(f"FLAG: {flag}")
    for failure in result.failures:
        print(f"CHECK FAILED: {failure}")
    sys.stdout.flush()


def stop_helper_processes() -> None:
    """Stop and reap every process multiprocessing started here.

    Runs before the interpreter exits, so no child outlives the run.
    Worker processes go first: each holds the resource tracker's pipe
    open.  Then the semaphores still registered are unlinked now rather
    than at exit, because an unlink after the tracker stopped would
    start a new tracker that outlives this process.  Last, the tracker
    is stopped and reaped.
    """
    if "multiprocessing" not in sys.modules:
        return
    from multiprocessing import active_children, resource_tracker, util

    children = active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join()
    util._run_finalizers(0)
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def output_dir() -> str:
    path = os.path.join(ROOT, ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path


def save_record(args, fingerprint_: Dict, result: Result) -> str:
    """Keep the full result next to its fingerprint."""
    path = os.path.join(
        output_dir(),
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
    )
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint_,
        "result": result.final_line(args.trace),
        "e2e": {k: list(v) for k, v in result.e2e.items()},
        "traced_e2e": {k: list(v) for k, v in result.traced_e2e.items()},
        "layers": {k: list(v) for k, v in result.layers.items()},
        "flags": result.flags,
        "failures": result.failures,
        "details": result.details,
    }
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)
    return path
