"""End-to-end benchmark for the InstantNet reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_bursty --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``fleet_bursty`` -- the discrete-event fleet simulator (4 replicas,
  ``least_queue`` router, ``slo`` policy) over the smoke-scale bursty
  trace, in one process.
* ``serve_http`` -- the real serving plane: one spawned worker behind
  the asyncio gateway at ``time_scale=1``, driven over keep-alive
  connections by a closed loop (throughput) and then an open Poisson
  loop (latency).
* ``cdt_train`` -- cascade-distillation training steps on a MobileNetV2
  SP-Net.

End-to-end metrics:

* ``throughput_per_s`` -- simulated requests/s, HTTP 200 responses/s in
  the closed loop, or training images/s;
* ``latency_p50_ms`` / ``latency_tail_ms`` -- closed-loop request
  latency (serve_http), compute time per batch of the schedule
  (fleet_bursty) or time per training step (cdt_train); the tail is the
  highest percentile with at least ten samples beyond it;
* ``setup_s`` -- from after imports until the workload is ready to
  time, the median of three in-process set-ups;
* ``rss_peak_mb`` -- peak resident memory of this process plus its
  largest worker process.

Times of fleet_bursty and cdt_train, and every ``setup_s``, are
reported at a reference host speed: a benchmark-owned GEMM probe runs
before, inside and after every timed operation and set-up, and each
time is scaled by reference / probe (see ``harness.py``).  The unscaled
throughput is kept as the per-layer metric ``host.raw_throughput_per_s``.
serve_http's load metrics stay unscaled (see ``http_load.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
public functions of each layer from outside the program, alternates
traced and untraced operations, and prints the per-layer metrics plus
the tracing overhead.  ``--corrupt CHECK`` damages one output before
the checks run, to show that check failing (the run then exits 1).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every other
line is for people: the environment fingerprint, each metric with its
unit and sample count, and any flagged noise source.  Results, span
dumps and scratch files go to ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools must be sized before numpy loads.  A multi-threaded
# OpenBLAS stalls for ~0.1-1 s on the first few small GEMMs of a
# process, and the worker processes the benchmark spawns inherit this.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOADS = ("fleet_bursty", "serve_http", "cdt_train")
CORRUPTIONS = {
    "fleet_bursty": ("fleet_ids", "fleet_report"),
    "serve_http": ("http_prediction", "http_status"),
    "cdt_train": ("cdt_finite", "cdt_decrease"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",),
        help="one workload, or all of them, each in its own process",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt", default=None,
        choices=sorted(c for cs in CORRUPTIONS.values() for c in cs),
        help="damage one output before checking (demonstrates a check)",
    )
    args = parser.parse_args(argv)
    if args.corrupt and args.corrupt not in CORRUPTIONS.get(args.workload, ()):
        parser.error(
            f"--corrupt {args.corrupt} does not apply to {args.workload}"
        )
    if args.workload == "all":
        return run_all(args)

    # Importing the program fails in a directory without its sources,
    # which must end the run before any result is printed.
    import repro  # noqa: F401
    import harness

    # A SIGTERM leaves through the same clean-up as every other exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return run_one(args, harness)
    finally:
        harness.stop_helper_processes()


def run_one(args, harness) -> int:
    started = time.perf_counter()
    fingerprint = harness.fingerprint(args.seed, THREAD_ENV)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))

    if args.workload == "fleet_bursty":
        import fleet as workload
    elif args.workload == "serve_http":
        import http_load as workload
    else:
        import cdt as workload
    result = workload.run(args)

    harness.print_report(result, args.trace)
    harness.save_record(args, fingerprint, result)
    print(f"elapsed_s {time.perf_counter() - started:.2f}")
    print(json.dumps(result.final_line(args.trace), sort_keys=True))
    return 0 if result.correct else 1


def run_all(args) -> int:
    """Run every workload in a fresh process and combine their results.

    The combined last line names each metric ``<workload>.<metric>``.
    """
    import subprocess

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return status


if __name__ == "__main__":
    sys.exit(main())
