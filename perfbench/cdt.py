"""cdt_train: cascade-distillation training steps on an SP-Net.

One operation is one step on a MobileNetV2 SP-Net at bits 4/8/12/16
(width 0.5, batch 16, 16x16 inputs): ``compute_loss``, ``backward``,
``SGD.step`` and ``zero_grad``.  Gradients are on, BN runs in train
mode and weight quantization is recomputed every step, so the shared
tensor/nn/quant code runs differently here than in the serving
workloads.  Every step trains on the same seeded batch, so the loss
must fall over the run and stay finite.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

import harness
import layers
from spans import Tracer

BITS = (4, 8, 12, 16)
WIDTH = 0.5
BATCH = 16
IMAGE = 16
CLASSES = 5
# Plain SGD: with momentum 0.9 the loss on the one fixed batch turns
# back up after ~35 steps at lr 0.005.
LR = 0.01
MOMENTUM = 0.0
# Single-step losses spike by ~0.3 (batch statistics, 4-bit weights), so
# progress is judged on the mean of this many losses at each end.
LOSS_WINDOW = 5
WARMUP_STEPS = 2
CHUNK_GEMMS = 150


def run(args) -> harness.Result:
    from repro import rng
    from repro.core.cdt import CascadeDistillation
    from repro.data.synthetic import SyntheticSpec, make_synthetic
    from repro.nn.models import mobilenet_v2
    from repro.optim import SGD
    from repro.quant import SwitchableFactory, SwitchablePrecisionNetwork
    from repro.tensor import Tensor

    probe = harness.HostProbe()
    tracer = Tracer(layers.TARGETS) if args.trace else None
    result = harness.Result()

    rng.set_seed(args.seed)
    data = make_synthetic(
        SyntheticSpec(name="perfbench-cdt", num_classes=CLASSES,
                      image_size=IMAGE),
        BATCH, "train",
    )
    images = Tensor(data.images)
    labels = data.labels
    losses: list = []

    def step(sp_net, optimizer, strategy) -> float:
        loss, _ = strategy.compute_loss(sp_net, images, labels)
        probe.chunk(CHUNK_GEMMS)
        loss.backward()
        probe.chunk(CHUNK_GEMMS)
        optimizer.step()
        optimizer.zero_grad()
        return loss.item()

    def build():
        rng.set_seed(args.seed)
        model = mobilenet_v2(
            num_classes=CLASSES, factory=SwitchableFactory(BITS),
            width_mult=WIDTH, setting="cifar",
        )
        sp_net = SwitchablePrecisionNetwork(model, BITS)
        probe.chunk(CHUNK_GEMMS)
        optimizer = SGD(sp_net.parameters(), lr=LR, momentum=MOMENTUM)
        strategy = CascadeDistillation(beta=1.0)
        warm = [step(sp_net, optimizer, strategy) for _ in range(WARMUP_STEPS)]
        return sp_net, optimizer, strategy, warm

    (sp_net, optimizer, strategy, warm), setup = layers.traced_setup(
        tracer, lambda: harness.repeated_setup(build, probe)
    )
    losses.extend(warm)

    harness.settle_heap()
    with harness.GCPauses() as pauses:
        samples = harness.run_ops(
            lambda index: step(sp_net, optimizer, strategy),
            args.seconds, probe, tracer=tracer,
        )
    losses.extend(s.output for s in samples)

    # Output checks.
    if args.corrupt == "cdt_finite":
        losses[len(losses) // 2] = float("nan")
    window = min(LOSS_WINDOW, len(losses) // 2)
    if args.corrupt == "cdt_decrease":
        losses[-window:] = [losses[0] + 1.0] * window
    bad = [i for i, loss in enumerate(losses) if not math.isfinite(loss)]
    result.check(not bad, f"non-finite loss at steps {bad}")
    first = statistics.fmean(losses[:window])
    last = statistics.fmean(losses[-window:])
    result.check(
        last < first,
        f"loss did not fall: mean of the first {window} steps {first:.4f}, "
        f"of the last {window} {last:.4f}",
    )
    result.details.update(losses=losses)
    layers.report_ops(
        result, args, samples, BATCH, setup, probe, pauses, tracer
    )
    result.failed = len(bad)
    return result
