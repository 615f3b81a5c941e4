"""fleet_bursty: the discrete-event fleet simulator, in one process.

One operation is ``make_fleet`` (4 private replicas, ``least_queue``
router, ``slo`` policy) plus ``simulate_fleet`` over the smoke-scale
bursty trace.  Each arrival of the trace carries four requests: the
trace's 24-request bursts are sized to overload one engine, and four
replicas absorb them at 1x volume without a single precision switch.
At 4x volume a burst overloads every replica, so batches of 1 to 8 run
at all three bit-widths.

The seed draws the model weights and the request images.  The arrival
schedule is the scenario's canonical one (drawn under a fixed seed):
arrivals alone decide batching and precision, so every seed asks for
the same work and seed-to-seed spread is measurement noise only.

Latency is the host-adjusted wall time between consecutive completed
batches, the compute a request waits for in the simulator, per batch
of the schedule.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time

import harness
import layers
from spans import Tracer

SCENARIO = "bursty"
SCALE = "smoke"
POLICY = "slo"
ROUTER = "least_queue"
REPLICAS = 4
VOLUME = 4
SCHEDULE_SEED = 0
CHUNK_EVERY = 4


class _Recorder:
    """Per-operation capture hooked onto every replica's batch stats:
    the id of each completed request, the chunk-free wall time of each
    completed batch, and a host probe chunk every CHUNK_EVERY batches."""

    def __init__(self, probe: harness.HostProbe):
        self.probe = probe
        self.completed: list = []
        self.stamps: list = []

    def attach(self, engine) -> None:
        record_batch = engine.stats.record_batch

        def record(batch):
            self.completed.extend(r.request_id for r in batch.results)
            if len(self.stamps) % CHUNK_EVERY == 0:
                self.probe.chunk()
            self.stamps.append(time.perf_counter() - self.probe.inside_s)
            record_batch(batch)

        engine.stats.record_batch = record


def run(args) -> harness.Result:
    from repro import rng
    from repro.serve import cluster, simulator

    probe = harness.HostProbe()
    tracer = Tracer(layers.TARGETS) if args.trace else None
    result = harness.Result()

    def build():
        rng.set_seed(args.seed)
        fixture = simulator.prepare_simulation(SCENARIO, SCALE)
        probe.chunk(150)
        # Warm-up: one replica over the plain trace switches between all
        # three bit-widths, so every lazy path has run once.
        warm = cluster.make_fleet(fixture, POLICY, replicas=1, router=ROUTER)
        cluster.simulate_fleet(warm, fixture.requests)
        return fixture

    fixture, setup = layers.traced_setup(
        tracer, lambda: harness.repeated_setup(build, probe)
    )
    rng.set_seed(SCHEDULE_SEED)
    schedule = [
        r.arrival_s for r in simulator.generate_requests(
            SCENARIO, fixture.scale, fixture.latency_model,
            fixture.sp_net.highest,
        )
    ]
    requests = tuple(
        dataclasses.replace(
            r, request_id=r.request_id * VOLUME + k,
            arrival_s=schedule[r.request_id],
        )
        for r in fixture.requests
        for k in range(VOLUME)
    )

    def op(index):
        fleet = cluster.make_fleet(
            fixture, POLICY, replicas=REPLICAS, router=ROUTER
        )
        recorder = _Recorder(probe)
        for engine in fleet.engines():
            recorder.attach(engine)
        end_s = cluster.simulate_fleet(fleet, requests)
        return fleet, end_s, recorder

    def finish(output):
        fleet, end_s, recorder = output
        report = cluster.build_fleet_report(
            SCENARIO, POLICY, fixture.scale, fleet, end_s, fixture.slo_s
        )
        stamps = recorder.stamps
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        return report, recorder.completed, gaps

    harness.settle_heap()
    with harness.GCPauses() as pauses:
        samples = harness.run_ops(
            op, args.seconds, probe, tracer=tracer, finish=finish
        )

    # Output checks.
    expected_ids = list(range(len(requests)))
    first_json = None
    for sample in samples:
        report, completed, _ = sample.output
        if args.corrupt == "fleet_ids" and sample.index == 1:
            completed = completed + completed[:1]
        report_json = json.dumps(report.to_json_dict(), sort_keys=True)
        if args.corrupt == "fleet_report" and sample.index == 1:
            report_json = report_json.replace('"switches": ', '"switches": 1')
        ok = sorted(completed) == expected_ids
        result.check(
            ok,
            f"op {sample.index}: {len(completed)} completions for "
            f"{len(requests)} requests, "
            f"{len(set(completed))} distinct",
        )
        if first_json is None:
            first_json = report_json
        same = report_json == first_json
        result.check(
            same, f"op {sample.index}: fleet report differs from op 0's"
        )
        result.failed += int(not (ok and same))
    first_report = samples[0].output[0]

    def latency(group):
        # Every operation runs the same batches in the same order, so the
        # median over operations of each batch's gap is that batch's
        # compute time with one-off stalls (collections, host flicker)
        # voted out.
        per_op = [
            [gap * sample.adjusted_s / sample.wall_s
             for gap in sample.output[2]]
            for sample in group
        ]
        return harness.latency_metrics(
            [statistics.median(gaps) * 1e3 for gaps in zip(*per_op)]
        )

    result.details.update(occupancy=first_report.occupancy)
    result.layers["serve.engine.batch_size_mean"] = (
        first_report.mean_batch_size, first_report.batches)
    result.layers["serve.engine.bit_switches"] = (
        float(first_report.switches), 1)
    layers.report_ops(
        result, args, samples, len(requests), setup, probe, pauses, tracer,
        latency=latency,
    )
    return result
