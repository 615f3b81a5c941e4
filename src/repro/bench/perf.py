"""Perf micro-benchmark suite: the repo's wall-clock trajectory.

Every tracked op is timed twice where a reference implementation exists:

* **fast** — the shipping configuration (conv matmul fast paths on,
  quantised-weight cache on),
* **reference** — the same op with those optimisations disabled, i.e.
  the pre-optimisation execution path, timed live on the same machine so
  the reported ``speedup`` is machine-independent.

Results are written to ``BENCH_perf.json``: per-op median wall-clock,
reference wall-clock, live speedup, and — where the op existed before
the fast-execution-engine PR — the pre-PR median measured on the
reference dev container (``PRE_PR_BASELINE_S``), anchoring the
trajectory future PRs extend.

``scripts/bench.py`` (or ``python -m repro bench``) runs the suite at
smoke scale and fails if any tracked op regressed more than
``REGRESSION_FACTOR``x against the committed
``benchmarks/perf/baseline.json``.

Scale selection follows the experiment harness: the
``REPRO_BENCH_SCALE`` environment variable (``smoke`` | ``default``)
overrides the CLI/default choice.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from .. import rng as rng_mod

__all__ = [
    "PRE_PR_BASELINE_S",
    "REGRESSION_FACTOR",
    "add_arguments",
    "run_suite",
    "run_from_args",
    "write_results",
    "load_baseline",
    "check_regressions",
    "main",
]

SCHEMA_VERSION = 1

# An op regressing beyond this factor vs the committed baseline fails
# the bench gate.  Generous on purpose: machine noise (CI container vs
# dev laptop) must not trip it, a lost fast path will.
REGRESSION_FACTOR = 2.0

# Median wall-clock (seconds) of the tracked ops measured at smoke scale
# on the reference dev container immediately BEFORE the fast-execution
# engine PR (quantised-weight caching, conv matmul fast paths, cost-model
# memoization).  Medians over 4 interleaved pre/post A/B rounds in fresh
# subprocesses, same op definitions and ordering as this suite.  These
# anchor the speedup trajectory; only comparable to smoke-scale runs.
PRE_PR_BASELINE_S: Dict[str, float] = {
    "conv_1x1_pointwise": 0.002229,
    "conv_3x3_dense": 0.014658,
    "conv_3x3_depthwise": 0.016722,
    "cdt_training_step": 1.198459,
    "spnet_eval_forward": 0.09679,
    "automapper_alexnet_search": 0.264985,
}


@dataclass(frozen=True)
class BenchScale:
    """Repeat counts and model sizes for one bench scale."""

    name: str
    conv_repeats: int
    step_repeats: int
    mapper_repeats: int
    width_mult: float
    batch_size: int
    mapper_generations: int
    serve_requests: int = 96
    serve_repeats: int = 3


BENCH_SCALES = {
    "smoke": BenchScale(
        name="smoke", conv_repeats=5, step_repeats=3, mapper_repeats=3,
        width_mult=0.5, batch_size=16, mapper_generations=6,
        serve_requests=96, serve_repeats=3,
    ),
    "default": BenchScale(
        name="default", conv_repeats=9, step_repeats=5, mapper_repeats=3,
        width_mult=1.0, batch_size=32, mapper_generations=12,
        serve_requests=320, serve_repeats=3,
    ),
}


def _median_seconds(fn: Callable[[], None], repeats: int, warmup: int = 1) -> float:
    gc.collect()  # stable GC state: earlier ops' garbage must not bill here
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


# ----------------------------------------------------------------------
# Tracked ops
# ----------------------------------------------------------------------
def _bench_conv_kernels(scale: BenchScale) -> Dict[str, Dict[str, float]]:
    """Conv micro-kernels: forward + backward, fast vs reference path."""
    from ..tensor import Tensor, conv2d, fast_conv

    rng_mod.set_seed(2021)
    rng = rng_mod.get_rng()
    n = scale.batch_size // 2
    cases = {
        # MobileNetV2's dominant layer type: pointwise expansion conv.
        "conv_1x1_pointwise": (
            (n, 96, 16, 16), (24, 96, 1, 1), dict(stride=1, padding=0, groups=1),
        ),
        "conv_3x3_dense": (
            (n, 32, 16, 16), (64, 32, 3, 3), dict(stride=1, padding=1, groups=1),
        ),
        "conv_3x3_depthwise": (
            (n, 96, 16, 16), (96, 1, 3, 3), dict(stride=1, padding=1, groups=96),
        ),
    }
    ops: Dict[str, Dict[str, float]] = {}
    for name, (x_shape, w_shape, kwargs) in cases.items():
        x = Tensor(rng.normal(size=x_shape).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=w_shape).astype(np.float32), requires_grad=True)

        def run():
            out = conv2d(x, w, **kwargs)
            out.backward(np.ones_like(out.data))

        def run_reference():
            with fast_conv(False):
                run()

        fast_s = _median_seconds(run, scale.conv_repeats)
        ref_s = _median_seconds(run_reference, scale.conv_repeats)
        ops[name] = {"median_s": fast_s, "reference_s": ref_s}
    return ops


def _make_cdt_fixture(scale: BenchScale):
    from ..core.cdt import CascadeDistillation
    from ..nn.models import mobilenet_v2
    from ..optim import SGD
    from ..quant import SwitchableFactory, SwitchablePrecisionNetwork
    from ..tensor import Tensor

    rng_mod.set_seed(2021)
    rng = rng_mod.get_rng()
    bits = [4, 8, 12, 16]
    model = mobilenet_v2(
        num_classes=5, factory=SwitchableFactory(bits),
        width_mult=scale.width_mult, setting="cifar",
    )
    sp_net = SwitchablePrecisionNetwork(model, bits)
    optimizer = SGD(sp_net.parameters(), lr=0.05)
    strategy = CascadeDistillation(beta=1.0)
    images = Tensor(
        rng.normal(size=(scale.batch_size, 3, 16, 16)).astype(np.float32)
    )
    labels = rng.integers(0, 5, size=scale.batch_size)
    return sp_net, optimizer, strategy, images, labels


def _bench_cdt_step(scale: BenchScale) -> Dict[str, Dict[str, float]]:
    """One CDT training step (MobileNetV2-scale synthetic, 4 bit-widths)."""
    from ..quant import weight_cache
    from ..tensor import fast_conv

    sp_net, optimizer, strategy, images, labels = _make_cdt_fixture(scale)

    def step():
        optimizer.zero_grad()
        loss, _ = strategy.compute_loss(sp_net, images, labels)
        loss.backward()
        optimizer.step()

    def step_reference():
        with fast_conv(False), weight_cache(False):
            step()

    fast_s = _median_seconds(step, scale.step_repeats)
    ref_s = _median_seconds(step_reference, scale.step_repeats)
    ops = {"cdt_training_step": {"median_s": fast_s, "reference_s": ref_s}}

    # Eval forward: weight quantisation is 100% cacheable once training
    # stops, so this isolates the cache win from the conv fast paths.
    from ..tensor import no_grad

    sp_net.eval()

    def eval_forward():
        with no_grad():
            sp_net(images)

    def eval_forward_reference():
        with fast_conv(False), weight_cache(False):
            eval_forward()

    fast_s = _median_seconds(eval_forward, scale.step_repeats + 2)
    ref_s = _median_seconds(eval_forward_reference, scale.step_repeats + 2)
    ops["spnet_eval_forward"] = {"median_s": fast_s, "reference_s": ref_s}
    return ops


def _bench_automapper(scale: BenchScale) -> Dict[str, Dict[str, float]]:
    """Fig. 5-style AutoMapper network search (AlexNet on the ASIC)."""
    from ..core.automapper import AutoMapper, AutoMapperConfig
    from ..hardware import eyeriss_like_asic, network_by_name

    workloads = network_by_name("alexnet")
    device = eyeriss_like_asic()

    def search():
        mapper = AutoMapper(
            device,
            AutoMapperConfig(
                generations=scale.mapper_generations, seed_key="bench-prepr",
            ),
        )
        mapper.search_network(workloads, pipeline=False)

    return {
        "automapper_alexnet_search": {
            "median_s": _median_seconds(search, scale.mapper_repeats)
        }
    }


def _bench_serve(scale: BenchScale) -> Dict[str, Dict[str, float]]:
    """Serving layer: bursty serve-sim end to end + checkpoint round-trip.

    ``serve_sim_bursty_slo`` times the full request path of a
    one-replica fleet — traffic admission, micro-batch coalescing,
    SLO-adaptive precision switching and the real batched forwards — on
    a fixed bursty arrival trace.
    The reference run disables the conv fast paths and quantised-weight
    cache, pricing the same simulation on the pre-fast-engine kernels.

    ``serve_fleet_sim_bursty`` runs the same trace through a 4-replica
    fleet behind the least-queue router (fleet spin-up — four private
    model instances — plus routing and multi-server dispatch included),
    and ``serve_fleet_autoscale_burst`` through an autoscaled fleet
    (1 -> 4 replicas, latency-aware router), tracking the cost of more
    replicas and autoscaling on top of the one-replica path.
    """
    import dataclasses
    import shutil
    import tempfile

    from ..api.config import AutoscaleConfig
    from ..quant import weight_cache
    from ..serve import (
        load_checkpoint,
        make_fleet,
        prepare_simulation,
        save_checkpoint,
        simulate_fleet,
    )
    from ..serve.simulator import SERVE_SCALES
    from ..tensor import fast_conv

    rng_mod.set_seed(2021)
    serve_scale = dataclasses.replace(
        SERVE_SCALES["smoke"], num_requests=scale.serve_requests
    )
    # Same setup path as `repro serve-sim`, so this op tracks exactly
    # what the CLI runs.
    fixture = prepare_simulation("bursty", serve_scale)

    def run_sim():
        simulate_fleet(make_fleet(fixture, "slo"), fixture.requests)

    def run_sim_reference():
        with fast_conv(False), weight_cache(False):
            run_sim()

    ops: Dict[str, Dict[str, float]] = {}
    fast_s = _median_seconds(run_sim, scale.serve_repeats)
    ref_s = _median_seconds(run_sim_reference, scale.serve_repeats)
    ops["serve_sim_bursty_slo"] = {"median_s": fast_s, "reference_s": ref_s}

    def run_fleet():
        fleet = make_fleet(
            fixture, "slo", replicas=4, router="least_queue"
        )
        simulate_fleet(fleet, fixture.requests)

    def run_autoscaled_fleet():
        fleet = make_fleet(
            fixture, "slo", replicas=1, router="latency_aware",
            autoscale=AutoscaleConfig(min_replicas=1, max_replicas=4),
        )
        simulate_fleet(fleet, fixture.requests)

    ops["serve_fleet_sim_bursty"] = {
        "median_s": _median_seconds(run_fleet, scale.serve_repeats)
    }
    ops["serve_fleet_autoscale_burst"] = {
        "median_s": _median_seconds(run_autoscaled_fleet, scale.serve_repeats)
    }

    def run_fleet_traced():
        from ..obs.metrics import MetricsRecorder, MetricsRegistry
        from ..obs.tracer import Tracer

        tracer = Tracer(sinks=(MetricsRecorder(MetricsRegistry()),))
        fleet = make_fleet(
            fixture, "slo", replicas=4, router="least_queue", tracer=tracer,
        )
        simulate_fleet(fleet, fixture.requests)

    # Same fleet sim with the full telemetry plane live (span events +
    # metrics sink); its reference is the untraced fleet run, so the
    # speedup column reads as tracing overhead (should sit near 1.0 —
    # the acceptance bar is < 5% regression).
    ops["fleet_sim_traced"] = {
        "median_s": _median_seconds(run_fleet_traced, scale.serve_repeats),
        "reference_s": ops["serve_fleet_sim_bursty"]["median_s"],
    }

    tmp = tempfile.mkdtemp(prefix="repro-bench-ckpt-")
    try:
        base = os.path.join(tmp, "model")

        def roundtrip():
            save_checkpoint(fixture.sp_net, fixture.config, base)
            load_checkpoint(base)

        ops["serve_checkpoint_roundtrip"] = {
            "median_s": _median_seconds(roundtrip, scale.serve_repeats)
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return ops


def _bench_loadtest(scale: BenchScale) -> Dict[str, Dict[str, float]]:
    """Workload-lab grid harness end to end at bench scale.

    ``loadtest_grid_smoke`` times a 4-cell
    policy x replicas grid (one scenario) including fixture
    preparation, per-cell fleet spin-up, fault-plan resolution, the
    fleet simulations themselves, and Pareto extraction — i.e. what one
    scenario-slice of ``repro loadtest`` costs, tracking the harness
    overhead on top of the raw fleet simulation ops above.
    """
    from ..api.config import FaultConfig, LoadTestConfig
    from ..workload.loadtest import run_loadtest

    config = LoadTestConfig(
        name="bench", seed=0, scale="smoke",
        scenarios=("bursty",), policies=("slo", "static"),
        routers=("least_queue",), replicas=(1, 2),
        num_requests=scale.serve_requests,
        faults=(
            FaultConfig(kind="latency_spike", at=0.4, duration=0.2,
                        factor=3.0),
        ),
    )

    def run():
        run_loadtest(config)

    return {
        "loadtest_grid_smoke": {
            "median_s": _median_seconds(run, 2)
        }
    }


def _bench_pipeline(scale: BenchScale) -> Dict[str, Dict[str, float]]:
    """`repro pipeline run` end to end at bench scale.

    Tracks the full config-driven flow — SP-NAS generation, CDT
    training, per-bit AutoMapper deployment, and the traffic-replay
    serve stage — including every artifact write/read chaining the
    stages, i.e. exactly what the ``scripts/ci.sh`` pipeline smoke gate
    executes (at reduced sizes so the tracked op stays cheap).
    """
    import shutil
    import tempfile

    from ..api.config import (
        DeployConfig,
        ModelConfig,
        PipelineConfig,
        SearchConfig,
        ServeConfig,
        TrainConfig,
    )
    from ..api.pipeline import run_pipeline

    config = PipelineConfig(
        name="bench",
        seed=0,
        model=ModelConfig(
            name="derived", bit_widths=(4, 8), num_classes=3, image_size=8,
        ),
        search=SearchConfig(space="tiny", epochs=1, batch_size=16, samples=48),
        train=TrainConfig(
            epochs=1, batch_size=16, train_samples=48, test_samples=24,
        ),
        deploy=DeployConfig(device="edge", generations=2),
        serve=ServeConfig(
            scenario="bursty", policy="slo",
            num_requests=max(scale.serve_requests // 2, 32),
            max_batch=8, mapper_generations=2,
        ),
    )

    def run():
        tmp = tempfile.mkdtemp(prefix="repro-bench-pipeline-")
        try:
            run_pipeline(config, run_dir=tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    return {"pipeline_smoke": {"median_s": _median_seconds(run, 2)}}


# ----------------------------------------------------------------------
# Suite driver
# ----------------------------------------------------------------------
def run_suite(scale: str = "smoke") -> Dict:
    """Run every tracked op; returns the ``BENCH_perf.json`` payload."""
    scale = os.environ.get("REPRO_BENCH_SCALE", scale)
    if scale not in BENCH_SCALES:
        raise ValueError(
            f"unknown bench scale {scale!r}; available: {sorted(BENCH_SCALES)}"
        )
    cfg = BENCH_SCALES[scale]
    ops: Dict[str, Dict[str, float]] = {}
    # Order matters for isolation: the AutoMapper search (pure-Python
    # object churn, GC-sensitive) runs before the CDT fixture builds its
    # large live heap.
    ops.update(_bench_conv_kernels(cfg))
    ops.update(_bench_automapper(cfg))
    ops.update(_bench_serve(cfg))
    ops.update(_bench_loadtest(cfg))
    ops.update(_bench_cdt_step(cfg))
    ops.update(_bench_pipeline(cfg))
    gc.collect()
    for name, entry in ops.items():
        if entry.get("reference_s"):
            entry["speedup"] = round(entry["reference_s"] / entry["median_s"], 3)
        if cfg.name == "smoke" and name in PRE_PR_BASELINE_S:
            entry["pre_pr_s"] = PRE_PR_BASELINE_S[name]
            entry["speedup_vs_pre_pr"] = round(
                PRE_PR_BASELINE_S[name] / entry["median_s"], 3
            )
    return {
        "schema": SCHEMA_VERSION,
        "suite": "perf",
        "scale": cfg.name,
        "unix_time": time.time(),
        "ops": ops,
    }


def write_results(results: Dict, path: str = "BENCH_perf.json") -> str:
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_baseline(path: str) -> Optional[Dict]:
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def check_regressions(
    results: Dict, baseline: Dict, factor: float = REGRESSION_FACTOR
) -> List[str]:
    """Tracked ops slower than ``factor`` x the committed baseline."""
    failures = []
    for name, entry in baseline.get("ops", {}).items():
        current = results["ops"].get(name)
        if current is None:
            failures.append(f"{name}: tracked op missing from current run")
            continue
        if current["median_s"] > factor * entry["median_s"]:
            failures.append(
                f"{name}: {current['median_s']:.6f}s vs baseline "
                f"{entry['median_s']:.6f}s (> {factor:.1f}x)"
            )
    return failures


def add_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the bench options to ``parser``.

    Shared between the standalone ``scripts/bench.py`` parser and the
    ``python -m repro bench`` subparser, so ``repro bench --help``
    renders through the ordinary argparse plumbing.
    """
    parser.add_argument("--scale", default="smoke", choices=sorted(BENCH_SCALES))
    parser.add_argument("--output", default="BENCH_perf.json")
    parser.add_argument(
        "--baseline", default=os.path.join("benchmarks", "perf", "baseline.json"),
        help="committed baseline to gate regressions against",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from this run instead of gating",
    )
    parser.add_argument(
        "--factor", type=float, default=REGRESSION_FACTOR,
        help="fail when any op is this many times slower than baseline",
    )
    return parser


def main(argv=None) -> int:
    parser = add_arguments(
        argparse.ArgumentParser(
            prog="repro bench",
            description="run the tracked perf suite and write BENCH_perf.json",
        )
    )
    args = parser.parse_args(argv)
    return run_from_args(args)


def run_from_args(args: argparse.Namespace) -> int:
    """Execute the suite from parsed bench arguments."""
    results = run_suite(args.scale)
    write_results(results, args.output)
    print(f"wrote {args.output}")
    for name, entry in sorted(results["ops"].items()):
        line = f"  {name}: {entry['median_s'] * 1e3:.3f} ms"
        if "speedup" in entry:
            line += f" ({entry['speedup']:.2f}x vs reference path)"
        if "speedup_vs_pre_pr" in entry:
            line += f" ({entry['speedup_vs_pre_pr']:.2f}x vs pre-PR)"
        print(line)

    if args.update_baseline:
        write_results(results, args.baseline)
        print(f"updated baseline {args.baseline}")
        return 0

    baseline = load_baseline(args.baseline)
    if baseline is None:
        print(f"no baseline at {args.baseline}; skipping regression gate")
        return 0
    if baseline.get("scale") != results["scale"]:
        print(
            f"baseline scale {baseline.get('scale')!r} != run scale "
            f"{results['scale']!r}; skipping regression gate"
        )
        return 0
    failures = check_regressions(results, baseline, args.factor)
    if failures:
        print("PERF REGRESSION:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"regression gate ok (<= {args.factor:.1f}x committed baseline)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
