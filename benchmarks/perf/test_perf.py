"""Tracked perf suite: checks the trajectory against the committed baseline.

Run directly::

    PYTHONPATH=src python -m pytest benchmarks/perf -q -s

The suite times every tracked op twice — optimised path and reference
(pre-optimisation) path — so the asserted speedups are measured live on
the current machine rather than against hard-coded wall-clock numbers.
Thresholds are deliberately below the typical measured speedups (see
BENCH_perf.json / README "Performance") to keep the gate robust to
machine noise.  The suite never writes BENCH_perf.json: ``repro bench``
is its only writer.
"""

import json
import os

import pytest

from repro.bench import check_regressions, load_baseline, run_suite

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_BASELINE = os.path.join(_REPO_ROOT, "benchmarks", "perf", "baseline.json")


@pytest.fixture(scope="module")
def suite_results():
    results = run_suite("smoke")
    print()
    print(json.dumps(results["ops"], indent=2, sort_keys=True))
    return results


def test_all_tracked_ops_present(suite_results):
    assert set(suite_results["ops"]) >= {
        "conv_1x1_pointwise",
        "conv_3x3_dense",
        "conv_3x3_depthwise",
        "cdt_training_step",
        "spnet_eval_forward",
        "automapper_alexnet_search",
        "serve_sim_bursty_slo",
        "serve_checkpoint_roundtrip",
        "pipeline_smoke",
    }
    for entry in suite_results["ops"].values():
        assert entry["median_s"] > 0


def test_cdt_step_speedup(suite_results):
    """CDT training step beats its own slow path (target >= 1.5x)."""
    assert suite_results["ops"]["cdt_training_step"]["speedup"] >= 1.2


def test_eval_forward_speedup(suite_results):
    """Eval forwards cache 100% of weight quantisation."""
    assert suite_results["ops"]["spnet_eval_forward"]["speedup"] >= 1.2


def test_pointwise_conv_speedup(suite_results):
    """The 1x1 fast path must beat im2col."""
    assert suite_results["ops"]["conv_1x1_pointwise"]["speedup"] >= 1.2


def test_no_regression_vs_committed_baseline(suite_results):
    baseline = load_baseline(_BASELINE)
    if baseline is None or baseline.get("scale") != suite_results["scale"]:
        pytest.skip("no comparable committed baseline")
    failures = check_regressions(suite_results, baseline)
    assert not failures, "\n".join(failures)
