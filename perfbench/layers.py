"""Per-layer metrics from recorded spans.

Every workload reports every per-layer metric: a layer its operations
never call reports 0 with a sample count of 0.
"""

from __future__ import annotations

import os
import statistics
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import harness
from spans import Span, Target, Tracer, self_time

# The program's public functions, at the attributes their callers use.
# conv2d is looked up in the modules whose layers call it.
TARGETS = [
    Target("repro.quant.network", "SwitchablePrecisionNetwork.forward",
           "quant.network.forward"),
    Target("repro.serve.engine", "InferenceEngine.dispatch",
           "serve.engine.dispatch"),
    Target("repro.serve.policies", "StaticPolicy.choose_bits",
           "serve.policies.choose_bits"),
    Target("repro.serve.policies", "LatencySLOPolicy.choose_bits",
           "serve.policies.choose_bits"),
    Target("repro.serve.policies", "QueueDepthPolicy.choose_bits",
           "serve.policies.choose_bits"),
    Target("repro.serve.routing", "RoundRobinRouter.route",
           "serve.routing.route"),
    Target("repro.serve.routing", "LeastQueueRouter.route",
           "serve.routing.route"),
    Target("repro.serve.routing", "LatencyAwareRouter.route",
           "serve.routing.route"),
    Target("repro.serve.cluster", "make_fleet", "serve.cluster.make_fleet"),
    Target("repro.serve.cluster", "simulate_fleet",
           "serve.cluster.simulate_fleet"),
    Target("repro.serve.engine", "BitLatencyModel.from_cost_model",
           "hardware.latency_model"),
    Target("repro.serving.http", "read_request", "serving.http.read_request"),
    Target("repro.serving.http", "render_response",
           "serving.http.render_response"),
    Target("repro.serving.gateway", "decode_image",
           "serving.gateway.decode_image"),
    Target("repro.serving.gateway", "json_response",
           "serving.http.json_response"),
    Target("repro.serving.pool", "WorkerPool.submit", "serving.pool.submit"),
    Target("repro.core.cdt", "CascadeDistillation.compute_loss",
           "core.cdt.compute_loss"),
    Target("repro.tensor.autograd", "Tensor.backward",
           "tensor.autograd.backward"),
    Target("repro.nn.layers", "conv2d", "tensor.conv.conv2d"),
    Target("repro.quant.layers", "conv2d", "tensor.conv.conv2d"),
    Target("repro.optim.optimizers", "SGD.step", "optim.step"),
]

SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def _root(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


def _p50(values: List[float], unit: str):
    if not values:
        return (0.0, 0)
    return (statistics.median(values) * SCALE[unit], len(values))


def span_layers(tracer: Tracer, result: "harness.Result") -> None:
    """Fill every span-derived per-layer metric the trace supports."""
    layers = result.layers
    ops = tracer.named("op")
    op_time = sum(s.duration for s in ops)
    n_ops = len(ops)
    kids = tracer.children()
    by_name: Dict[str, List[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    setups = [(s.start, s.end) for s in tracer.named("setup")]

    def in_ops(name: str) -> List[Span]:
        # Calls made during set-up are left out; so is all but the
        # operations in a workload that has operation spans.  Set-up is
        # told by time, not by parent: the gateway's connection handlers
        # inherit the context its server was started in.
        spans = by_name.get(name, [])
        if ops:
            return [s for s in spans if _root(s).name == "op"]
        return [
            s for s in spans
            if not any(start <= s.start <= end for start, end in setups)
        ]

    def durations(name: str) -> List[float]:
        return [s.duration for s in in_ops(name)]

    def busy(name: str) -> List[float]:
        return [s.busy for s in in_ops(name)]

    forwards = in_ops("quant.network.forward")
    layers["quant.network.forward_ms"] = _p50(
        [s.duration for s in forwards], "ms")
    layers["quant.network.forward_calls"] = (
        len(forwards) / n_ops if n_ops else 0.0, n_ops)
    layers["quant.network.forward_share"] = (
        sum(s.duration for s in forwards) / op_time if op_time else 0.0,
        len(forwards))

    dispatching = [
        s for s in in_ops("serve.engine.dispatch")
        if any(c.name == "quant.network.forward" for c in kids.get(id(s), ()))
    ]
    layers["serve.engine.dispatch_self_ms"] = _p50(
        [self_time(s, kids) for s in dispatching], "ms")
    layers["serve.policies.choose_bits_us"] = _p50(
        durations("serve.policies.choose_bits"), "us")
    layers["serve.routing.route_us"] = _p50(
        durations("serve.routing.route"), "us")
    layers["serve.cluster.make_fleet_ms"] = _p50(
        durations("serve.cluster.make_fleet"), "ms")
    loops = in_ops("serve.cluster.simulate_fleet")
    loop_time = sum(s.duration for s in loops)
    layers["serve.cluster.loop_self_share"] = (
        sum(self_time(s, kids) for s in loops) / loop_time
        if loop_time else 0.0,
        len(loops))
    # Priced during set-up, so every call counts, not only those in ops.
    layers["hardware.latency_model_s"] = _p50(
        [s.duration for s in by_name.get("hardware.latency_model", [])],
        "s")

    layers["serving.http.read_request_us"] = _p50(
        busy("serving.http.read_request"), "us")
    layers["serving.http.render_response_us"] = _p50(
        durations("serving.http.render_response"), "us")
    layers["serving.gateway.decode_image_us"] = _p50(
        durations("serving.gateway.decode_image"), "us")
    layers["serving.http.json_response_us"] = _p50(
        durations("serving.http.json_response"), "us")
    layers["serving.pool.submit_us"] = _p50(
        durations("serving.pool.submit"), "us")

    layers["core.cdt.compute_loss_ms"] = _p50(
        durations("core.cdt.compute_loss"), "ms")
    layers["tensor.autograd.backward_ms"] = _p50(
        durations("tensor.autograd.backward"), "ms")
    convs = durations("tensor.conv.conv2d")
    layers["tensor.conv.conv2d_ms"] = _p50(convs, "ms")
    layers["tensor.conv.conv2d_calls"] = (
        len(convs) / n_ops if n_ops else 0.0, n_ops)
    layers["optim.step_ms"] = _p50(durations("optim.step"), "ms")


def traced_setup(tracer: Optional[Tracer], setup: Callable[[], object]):
    """Run ``setup()``, inside a "setup" span when tracing."""
    if tracer is None:
        return setup()
    tracer.install()
    try:
        with tracer.span("setup"):
            return setup()
    finally:
        tracer.uninstall()


def overhead(result: "harness.Result", untraced: float, traced: float,
             samples: int) -> None:
    """Tracing overhead from the end-to-end time of traced vs untraced
    operations (positive: tracing made operations slower)."""
    result.layers["trace.overhead_share"] = (
        traced / untraced - 1.0 if untraced else 0.0, samples)


def report_ops(
    result: "harness.Result",
    args,
    samples: Sequence["harness.OpSample"],
    work: float,
    setup: "harness.SetupTiming",
    probe: "harness.HostProbe",
    pauses: "harness.GCPauses",
    tracer: Optional[Tracer],
    latency: Optional[Callable] = None,
) -> None:
    """The metrics every operation-loop workload reports.

    ``work`` is what one operation completes.  ``latency(samples)``
    returns the latency metrics of a group of operations; without it
    they are the host-adjusted per-operation times.
    """
    result.attempted = len(samples)

    def e2e(group) -> Dict[str, Tuple[float, int]]:
        if latency is not None:
            metrics = latency(group)
        else:
            metrics = harness.latency_metrics(
                [s.adjusted_s * 1e3 for s in group])
        metrics["throughput_per_s"] = (
            harness.op_rates(group, work)["adjusted"], len(group))
        return metrics

    untraced = [s for s in samples if not s.traced]
    result.e2e.update(e2e(untraced))
    result.e2e["setup_s"] = (setup.value_s, len(setup.adjusted_s))
    result.e2e["rss_peak_mb"] = (harness.rss_peak_mb(), 1)
    result.layers["host.raw_throughput_per_s"] = (
        harness.op_rates(untraced, work)["raw"], len(untraced))
    harness.host_layers(result, probe, pauses)
    result.details.update(
        setup_raw_s=setup.raw_s,
        setup_adjusted_s=setup.adjusted_s,
        op_wall_s=[s.wall_s for s in samples],
        op_adjusted_s=[s.adjusted_s for s in samples],
        op_traced=[s.traced for s in samples],
    )
    if tracer is not None:
        traced = [s for s in samples if s.traced]
        result.traced_e2e.update(e2e(traced))
        span_layers(tracer, result)
        overhead(
            result,
            statistics.median(s.adjusted_s for s in untraced),
            statistics.median(s.adjusted_s for s in traced),
            len(traced),
        )
        tracer.write(os.path.join(
            harness.output_dir(),
            f"spans-{args.workload}-seed{args.seed}.jsonl",
        ))
    fill_absent(result)


def fill_absent(result: "harness.Result") -> None:
    """Layers this workload never calls report 0 with no samples."""
    for name in harness.LAYER_UNITS:
        result.layers.setdefault(name, (0.0, 0))
