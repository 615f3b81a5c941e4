"""serve_http: the real serving plane, driven over HTTP.

One worker process behind the asyncio ``Gateway`` at ``time_scale=1``
(wall latency equals virtual latency; the auto scale would multiply it
by a factor taken from one noisy warm-up forward).  This process runs
the gateway and the load generator on one event loop, over at most
``nproc`` keep-alive connections:

1. a closed loop (each connection sends its next request when the last
   one is answered) gives ``throughput_per_s`` and the request latency
   ``latency_p50_ms`` / ``latency_tail_ms``, from send to answer, as
   the median over ten consecutive windows of each window's value (the
   window tail is about p93; the pooled p98.6 spread 14-31% over ten
   runs, one VM hiccup moving it);
2. then an open loop issues a Poisson schedule at a fixed rate and times
   every request from the instant it was due, so waiting for a free
   connection or a stalled generator is charged to latency.  Its p50
   and tail are the per-layer metrics ``loadgen.open_p50_ms`` and
   ``loadgen.open_tail_ms``, next to how late the generator issued
   requests, ``loadgen.lateness_ms``.  They are not end-to-end metrics
   because on a VM they follow the host's timer wake-up delay: in two
   consecutive runs the open-loop p50 read 33.7 and 26.7 ms while the
   closed-loop p50 read 28.0 and 29.1 ms.

Unlike the other workloads, these metrics are not scaled by the host
probe.  Most of a request's time is fixed timers (the batch-release
timeout, cost-model pacing) and wake-ups across two processes, which a
GEMM probe does not track: over ten runs, scaling by a power of the
probe doubled the spread of throughput (4.0% -> 8.1%) and p50.

The seed draws the model weights and the request images; the arrival
schedule is fixed, so every seed asks for the same load.  With few
connections batches rarely fill: requests wait out the batch-release
timeout and pay the per-request cost of HTTP parsing, base64/JSON, the
multiprocessing queues and a forward of one or two images.

Every 200 response is checked against this process's own eval forward
of the same batch at the served bits, from the same checkpoint.  The
per-batch composition matters: the activation quantizer scales each
batch by its own range.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import shutil
import statistics
import time
from typing import Dict, List, Optional

import numpy as np

import harness
import layers
from spans import Target, Tracer

SCENARIO = "bursty"
SCALE = "smoke"
POLICY = "slo"
ROUTER = "least_queue"
WORKERS = 1
CONNECTIONS = 2              # keep-alive connections, at most nproc
TIME_SCALE = 1.0
# About half the closed-loop capacity in the host's slow phases (61-82
# req/s measured), so the open loop stays below saturation in every phase.
OPEN_RATE_PER_S = 30.0
CLOSED_SHARE = 0.7           # of --seconds; the open loop gets the rest
SCHEDULE_SEED = 0
REQUEST_TIMEOUT_S = 10.0
LATENCY_WINDOWS = 10

class Exchange:
    """One request as the client saw it."""

    __slots__ = ("rid", "image", "due", "fired", "sent", "done", "status",
                 "body")

    def __init__(self, rid: int, image: int, due: float, fired: float):
        self.rid = rid
        self.image = image
        self.due = due          # when the schedule says to send
        self.fired = fired      # when the generator issued it
        self.sent = 0.0         # when a free connection took it
        self.done = 0.0
        self.status = 0
        self.body: Optional[Dict] = None


class Client:
    """Keep-alive HTTP/1.1 connections to the gateway."""

    def __init__(self, host: str, port: int, bodies: List[bytes]):
        self.host = host
        self.port = port
        self.bodies = bodies
        self.free: asyncio.Queue = asyncio.Queue()
        self.connections: List = []

    async def open(self, count: int) -> None:
        for _ in range(count):
            conn = await asyncio.open_connection(self.host, self.port)
            self.connections.append(conn)
            self.free.put_nowait(conn)

    async def close(self) -> None:
        for _, writer in self.connections:
            writer.close()
        for _, writer in self.connections:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.connections.clear()

    async def _replace(self, conn) -> None:
        self.connections.remove(conn)
        conn[1].close()
        fresh = await asyncio.open_connection(self.host, self.port)
        self.connections.append(fresh)
        self.free.put_nowait(fresh)

    def _body(self, exchange: Exchange) -> bytes:
        body = self.bodies[exchange.image] + b', "request_id": %d}' % (
            exchange.rid)
        return (
            b"POST /infer HTTP/1.1\r\nHost: perfbench\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        ) + body

    async def send(self, exchange: Exchange) -> None:
        """Send on the next free connection and wait for the answer."""
        conn = await self.free.get()
        reader, writer = conn
        loop = asyncio.get_running_loop()
        exchange.sent = loop.time()
        try:
            writer.write(self._body(exchange))
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), REQUEST_TIMEOUT_S
            )
            length = 0
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            payload = await asyncio.wait_for(
                reader.readexactly(length), REQUEST_TIMEOUT_S
            )
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError) as exc:
            exchange.done = loop.time()
            exchange.status = -1
            exchange.body = {"error": repr(exc)}
            await self._replace(conn)
            return
        exchange.done = loop.time()
        exchange.status = int(head.split(b" ", 2)[1])
        exchange.body = json.loads(payload)
        self.free.put_nowait(conn)


async def closed_loop(client: Client, seconds: float, next_rid, images: int,
                      connections: int) -> List[Exchange]:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + seconds
    done: List[Exchange] = []

    async def user():
        while loop.time() < deadline:
            rid = next_rid()
            now = loop.time()
            exchange = Exchange(rid, rid % images, now, now)
            await client.send(exchange)
            done.append(exchange)

    await asyncio.gather(*(user() for _ in range(connections)))
    return done


async def open_loop(client: Client, arrivals: np.ndarray, next_rid,
                    images: int) -> List[Exchange]:
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.05
    exchanges: List[Exchange] = []
    tasks = []
    for offset in arrivals:
        due = start + float(offset)
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        rid = next_rid()
        exchange = Exchange(rid, rid % images, due, loop.time())
        exchanges.append(exchange)
        tasks.append(asyncio.ensure_future(client.send(exchange)))
    await asyncio.gather(*tasks)
    return exchanges


def _expected_predictions(checkpoint: str, records, images) -> Dict[int, tuple]:
    """rid -> (reference prediction, bits label, worker's prediction).

    The reference comes from an in-process forward of each batch the
    worker ran, with the same batch composition and bits."""
    from repro.obs.tracer import bits_label
    from repro.serve.checkpoint import load_checkpoint
    from repro.tensor import Tensor, no_grad

    sp_net, _ = load_checkpoint(checkpoint)
    sp_net.eval()
    cache: Dict[tuple, np.ndarray] = {}
    expected = {}
    for record in records:
        batch = np.stack([images(r.request_id) for r in record.results])
        cache_key = (record.bits, batch.tobytes())
        if cache_key not in cache:
            sp_net.set_bitwidth(record.bits)
            with no_grad():
                logits = sp_net(Tensor(batch.astype(np.float32)))
            cache[cache_key] = np.argmax(logits.data, axis=1)
        for result, pred in zip(record.results, cache[cache_key]):
            expected[result.request_id] = (
                int(pred), bits_label(record.bits), int(result.prediction)
            )
    return expected


def run(args) -> harness.Result:
    from repro import rng
    from repro.serve import checkpoint, simulator
    from repro.serving.gateway import Gateway, encode_image
    from repro.serving.pool import WorkerPool

    probe = harness.HostProbe()
    result = harness.Result()
    resolved: Dict[int, float] = {}

    def on_submit(returned) -> None:
        rid, future = returned
        future.add_done_callback(
            lambda _f, rid=rid: resolved.__setitem__(rid, time.monotonic())
        )

    targets = [
        Target(t.module, t.qualname, t.name, after=on_submit)
        if t.name == "serving.pool.submit" else t
        for t in layers.TARGETS
    ]
    tracer = Tracer(targets) if args.trace else None
    workdir = os.path.join(harness.output_dir(), f"serve_http-{os.getpid()}")
    loop = asyncio.new_event_loop()
    connections = min(CONNECTIONS, os.cpu_count() or 1)

    def build():
        rng.set_seed(args.seed)
        fixture = simulator.prepare_simulation(SCENARIO, SCALE)
        ckpt, _ = checkpoint.save_checkpoint(
            fixture.sp_net, fixture.config, os.path.join(workdir, "model")
        )
        size = fixture.scale.image_size
        pool = WorkerPool(
            ckpt, POLICY, fixture.latency_model,
            bit_widths=fixture.sp_net.bit_widths, workers=WORKERS,
            router=ROUTER, max_batch=fixture.scale.max_batch,
            slo_s=fixture.slo_s, time_scale=TIME_SCALE,
            warmup_shape=(3, size, size),
        )
        pool.start()
        gateway = Gateway(pool)
        try:
            loop.run_until_complete(gateway.start())
        except BaseException:
            pool.stop()
            raise
        return fixture, ckpt, pool, gateway

    def teardown(built) -> None:
        _, _, pool, gateway = built
        loop.run_until_complete(gateway.close())
        pool.stop()

    built = None
    try:
        built, setup = layers.traced_setup(
            tracer, lambda: harness.repeated_setup(build, probe, teardown)
        )
        fixture, ckpt, pool, gateway = built
        images = [r.image for r in fixture.requests]
        bodies = [
            json.dumps({**encode_image(image), "label": r.label})[:-1]
            .encode("ascii")
            for image, r in zip(images, fixture.requests)
        ]
        next_rid = itertools.count().__next__
        closed_s = args.seconds * CLOSED_SHARE
        open_s = args.seconds - closed_s
        count = max(1, int(round(OPEN_RATE_PER_S * open_s)))
        arrivals = np.cumsum(
            np.random.default_rng(SCHEDULE_SEED).exponential(
                1.0 / OPEN_RATE_PER_S, count)
        )

        async def drive():
            client = Client(gateway.host, gateway.port, bodies)
            await client.open(connections)
            phases = {}
            try:
                def closed(seconds):
                    return closed_loop(
                        client, seconds, next_rid,
                        len(images), connections,
                    )
                if tracer is None:
                    phases["closed"] = (closed_s, await closed(closed_s))
                else:
                    half = closed_s / 2
                    phases["closed"] = (half, await closed(half))
                    tracer.install()
                    phases["closed_traced"] = (half, await closed(half))
                phases["open"] = (open_s, await open_loop(
                    client, arrivals, next_rid, len(images)
                ))
            finally:
                # Connections close before the gateway does, so no
                # handler is cancelled mid-request.
                await client.close()
                if tracer is not None:
                    tracer.uninstall()
            return phases

        harness.settle_heap()
        probe.measure()
        with harness.GCPauses() as pauses:
            phases = loop.run_until_complete(drive())
        probe.measure()
        snapshot = pool.snapshot()
        records = [r for worker in pool.batch_records() for r in worker]
        rejected = pool.rejected
        epoch, scale = pool.clock.epoch, pool.clock.time_scale
        teardown(built)
        built = None
    finally:
        if built is not None:
            teardown(built)
        built = pool = gateway = None
        loop.close()

    exchanges = [e for _, group in phases.values() for e in group]
    image_of = {e.rid: images[e.image] for e in exchanges}
    expected = _expected_predictions(ckpt, records, image_of.__getitem__)
    shutil.rmtree(workdir, ignore_errors=True)

    # Output checks: every request answered 200 with the prediction the
    # reference forward gives for its batch at its bits.
    if args.corrupt == "http_status":
        exchanges[len(exchanges) // 2].status = 500
    if args.corrupt == "http_prediction":
        body = exchanges[len(exchanges) // 2].body
        body["prediction"] = (body["prediction"] + 1) % 1000
    bad = []
    for e in exchanges:
        if e.status != 200:
            bad.append(f"request {e.rid}: status {e.status} {e.body}")
            continue
        want = expected.get(e.rid)
        got = (e.body["prediction"], e.body["bits"])
        if want is None or got != (want[0], want[1]) or want[2] != want[0]:
            bad.append(f"request {e.rid}: served {got}, reference {want}")
    result.attempted = len(exchanges)
    result.failed = len(bad)
    result.check(not bad, f"{len(bad)} bad responses, first: "
                          f"{bad[0] if bad else ''}")

    def throughput(phase):
        seconds, group = phases[phase]
        ok = sum(1 for e in group if e.status == 200)
        return (ok / seconds, len(group))

    def latency(phase):
        # The median over consecutive windows of each window's p50 and
        # tail: a hiccup of the VM in one window moves one value only.
        group = phases[phase][1]
        windows = [
            harness.latency_metrics([(e.done - e.due) * 1e3 for e in part])
            for part in np.array_split(np.array(group, dtype=object),
                                       LATENCY_WINDOWS)
        ]
        return {
            name: (statistics.median(w[name][0] for w in windows), len(group))
            for name in windows[0]
        }

    result.e2e.update(latency("closed"))
    result.e2e["throughput_per_s"] = throughput("closed")
    result.e2e["setup_s"] = (setup.value_s, len(setup.adjusted_s))
    result.e2e["rss_peak_mb"] = (harness.rss_peak_mb(), 1)
    result.details.update(
        setup_raw_s=setup.raw_s,
        setup_adjusted_s=setup.adjusted_s,
        closed_latency_ms=[(e.done - e.due) * 1e3
                           for e in phases["closed"][1]],
        connections=connections,
        open_requests=count,
    )

    layers_ = result.layers
    open_group = phases["open"][1]
    lateness = [(e.fired - e.due) * 1e3 for e in open_group]
    open_latency = harness.latency_metrics(
        [(e.done - e.due) * 1e3 for e in open_group])
    layers_["loadgen.open_p50_ms"] = open_latency["latency_p50_ms"]
    layers_["loadgen.open_tail_ms"] = open_latency["latency_tail_ms"]
    late_p99 = harness.percentile(lateness, 0.99)
    layers_["loadgen.lateness_ms"] = (late_p99, len(lateness))
    if late_p99 > harness.LATENESS_FLAG_MS:
        result.flags.append(
            f"load generator p99 lateness {late_p99:.1f} ms "
            f"(> {harness.LATENESS_FLAG_MS} ms)"
        )
    layers_["host.raw_throughput_per_s"] = result.e2e["throughput_per_s"]
    harness.host_layers(result, probe, pauses)
    waits = [(e.body["start_s"] - e.body["arrival_s"]) * scale * 1e3
             for e in exchanges if e.status == 200]
    layers_["serving.pool.queue_wait_ms"] = (
        statistics.median(waits) if waits else 0.0, len(waits))
    sizes = [rec.size for rec in records]
    layers_["serving.pool.batch_size_mean"] = (
        sum(sizes) / len(sizes) if sizes else 0.0, len(sizes))
    layers_["serving.pool.rejected"] = (float(rejected), len(exchanges))
    forward_s = max(w["forward_wall_s"] for w in snapshot["workers"])
    model = fixture.latency_model
    tightest = model.batch_overhead_s + min(model.per_image_s.values())
    layers_["serving.worker.forward_ms"] = (forward_s * 1e3, WORKERS)
    layers_["serving.worker.time_scale_auto"] = (
        max(1.0, 2.0 * forward_s / tightest), WORKERS)
    if tracer is not None:
        result.traced_e2e.update(latency("closed_traced"))
        traced_rate = throughput("closed_traced")
        result.traced_e2e["throughput_per_s"] = traced_rate
        services = [
            (resolved[e.rid] - (epoch + e.body["start_s"] * scale)) * 1e3
            for e in exchanges
            if e.rid in resolved and e.status == 200
        ]
        layers_["serving.pool.service_ms"] = (
            statistics.median(services) if services else 0.0, len(services))
        layers.span_layers(tracer, result)
        layers.overhead(
            result, 1.0 / result.e2e["throughput_per_s"][0],
            1.0 / traced_rate[0], traced_rate[1],
        )
        tracer.write(os.path.join(
            harness.output_dir(), f"spans-serve_http-seed{args.seed}.jsonl"
        ))
    layers.fill_absent(result)
    return result
