"""Declarative SLOs evaluated deterministically over recorded spans.

The telemetry plane (PR 7) records and renders; this module *judges*.
An :class:`SLOSpec` names one objective over the span stream a traced
run wrote — "95% of requests complete within 25 ms", "99.9% of admitted
requests complete", "95% of requests cost at most 2 uJ" — and
:func:`evaluate_events` scores it the way an SRE error-budget review
would:

* the run's virtual span is cut into **tumbling streaming windows**
  (``window_s`` wide; ``0`` derives a window from the span so one
  config fits every scale);
* each window's **SLI** is the fraction of *good* events
  (latency within threshold / request completed / batch energy within
  budget), and its **burn rate** is ``(1 - SLI) / (1 - target)`` — how
  many times faster than sustainable the error budget is being spent;
* the familiar **multi-window** signals fall out: the *fast* burn is
  the worst single window, the *slow* burn aggregates
  ``long_window_factor`` adjacent windows, and the overall verdict
  compares the run-wide SLI against the target.

Everything is a pure function of the event list and the spec — no
clocks, no RNG, stdlib only — so ``slo_report.json`` is byte-identical
across runs of the same seeded workload (the CI gate asserts this).
The report feeds :mod:`repro.obs.alerts` (rule evaluation over the
window series) and the future canary plane (promote/rollback on
verdicts instead of eyeballs).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .views import cell_key

__all__ = [
    "SLO_SIGNALS",
    "SLOSpec",
    "WindowResult",
    "percentile",
    "specs_from_config",
    "evaluate_events",
    "build_slo_report",
    "render_slo_report",
    "slo_report_to_json",
]

# The signals a spec may score.  Latency and energy are per-request
# threshold SLIs; availability is admitted-vs-completed.
SLO_SIGNALS = ("latency", "availability", "energy")

# Auto window derivation: span / DEFAULT_WINDOWS tumbling windows.
DEFAULT_WINDOWS = 8


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), pure Python.

    The obs package is stdlib-only by contract, so the serve plane's
    numpy-backed percentile is reimplemented here: sort, take rank
    ``q/100 * (n-1)``, interpolate between the bracketing samples.
    A single sample is every percentile of itself.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective over a run's span stream.

    ``target`` is the good-event ratio the run must sustain (a latency
    SLO "p95 <= threshold" is exactly "95% of requests are good", so a
    95th-percentile objective has ``target=0.95``).  ``threshold``
    carries the per-event budget: seconds for ``latency``, picojoules
    per request for ``energy``; availability ignores it.
    """

    name: str
    signal: str                  # one of SLO_SIGNALS
    target: float                # required good-event ratio in (0, 1)
    threshold: float = 0.0
    window_s: float = 0.0        # 0: span / DEFAULT_WINDOWS
    long_window_factor: int = 6  # slow-burn window = factor * window_s

    def __post_init__(self):
        if self.signal not in SLO_SIGNALS:
            raise ValueError(
                f"SLOSpec.signal must be one of {SLO_SIGNALS}, "
                f"got {self.signal!r}"
            )
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"SLOSpec.target must be a ratio in (0, 1), "
                f"got {self.target!r}"
            )
        if self.signal != "availability" and self.threshold <= 0:
            raise ValueError(
                f"SLOSpec {self.name!r}: {self.signal} SLOs need a "
                f"positive threshold, got {self.threshold!r}"
            )
        if self.window_s < 0:
            raise ValueError(
                f"SLOSpec.window_s must be >= 0 (0: auto), "
                f"got {self.window_s!r}"
            )
        if self.long_window_factor < 1:
            raise ValueError(
                f"SLOSpec.long_window_factor must be >= 1, "
                f"got {self.long_window_factor!r}"
            )

    def to_dict(self) -> Dict:
        return asdict(self)


@dataclass(frozen=True)
class WindowResult:
    """Good/total counts and burn rate for one tumbling window."""

    start_s: float
    end_s: float
    good: int
    total: int

    @property
    def sli(self) -> Optional[float]:
        if self.total == 0:
            return None
        return self.good / self.total

    def burn_rate(self, target: float) -> Optional[float]:
        sli = self.sli
        if sli is None:
            return None
        return (1.0 - sli) / (1.0 - target)

    def to_dict(self, target: float) -> Dict:
        return {
            "start_s": self.start_s,
            "end_s": self.end_s,
            "good": self.good,
            "total": self.total,
            "sli": self.sli,
            "burn_rate": self.burn_rate(target),
        }


def specs_from_config(
    config, default_latency_target_s: Optional[float] = None
) -> Tuple[SLOSpec, ...]:
    """Resolve an :class:`~repro.api.config.SLOConfig` into specs.

    ``latency_target_s == 0`` means "derive from the run": callers that
    know the workload's SLO (the loadtest harness, serve-sim) pass it
    as ``default_latency_target_s``; with neither, the latency SLO is
    skipped (``repro slo check`` then requires an explicit target).
    """
    specs: List[SLOSpec] = []
    latency_s = config.latency_target_s or default_latency_target_s
    if latency_s:
        specs.append(SLOSpec(
            name=f"latency_p{config.latency_percentile:g}",
            signal="latency",
            target=config.latency_percentile / 100.0,
            threshold=float(latency_s),
            window_s=config.window_s,
            long_window_factor=config.long_window_factor,
        ))
    specs.append(SLOSpec(
        name="availability",
        signal="availability",
        target=config.availability_target,
        window_s=config.window_s,
        long_window_factor=config.long_window_factor,
    ))
    if config.energy_target_pj > 0:
        specs.append(SLOSpec(
            name="energy_per_request",
            signal="energy",
            target=config.latency_percentile / 100.0,
            threshold=config.energy_target_pj,
            window_s=config.window_s,
            long_window_factor=config.long_window_factor,
        ))
    return tuple(specs)


# ----------------------------------------------------------------------
# Event -> (time, good) sample extraction per signal
# ----------------------------------------------------------------------
def _samples(events: List[Dict], spec: SLOSpec) -> List[Tuple[float, bool]]:
    """(time_s, good) pairs for one spec over one cell's events."""
    samples: List[Tuple[float, bool]] = []
    if spec.signal == "latency":
        for e in events:
            if e["kind"] == "complete":
                samples.append(
                    (e["time_s"], e["latency_s"] <= spec.threshold)
                )
    elif spec.signal == "availability":
        # Admitted requests that never complete are the bad events;
        # count each admission at its arrival, good iff its id
        # completes anywhere in the stream.
        completed = {
            e.get("request_id")
            for e in events
            if e["kind"] == "complete"
        }
        for e in events:
            if e["kind"] == "enqueue":
                samples.append(
                    (e["time_s"], e.get("request_id") in completed)
                )
    elif spec.signal == "energy":
        for e in events:
            if e["kind"] == "batch" and e.get("energy_pj") is not None:
                per_request = e["energy_pj"] / max(int(e["size"]), 1)
                good = per_request <= spec.threshold
                samples.extend([(e["time_s"], good)] * int(e["size"]))
    return samples


def _windows(
    samples: List[Tuple[float, bool]],
    start: float,
    end: float,
    window_s: float,
) -> List[WindowResult]:
    """Tumbling windows over [start, end]; empty windows are kept.

    A window wider than the run yields a single window covering the
    whole span — the burn rate then equals the run-wide burn.
    """
    span = max(end - start, 0.0)
    if window_s <= 0:
        window_s = span / DEFAULT_WINDOWS if span > 0 else 1.0
    count = max(int(span / window_s), 1) if span > 0 else 1
    if start + count * window_s < end:
        count += 1
    good = [0] * count
    total = [0] * count
    for time_s, is_good in samples:
        index = min(int((time_s - start) / window_s), count - 1)
        index = max(index, 0)
        total[index] += 1
        if is_good:
            good[index] += 1
    return [
        WindowResult(
            start_s=start + i * window_s,
            end_s=start + (i + 1) * window_s,
            good=good[i],
            total=total[i],
        )
        for i in range(count)
    ]


def _long_windows(
    windows: List[WindowResult], factor: int
) -> List[WindowResult]:
    """Aggregate ``factor`` adjacent windows into slow-burn windows."""
    out: List[WindowResult] = []
    for i in range(0, len(windows), factor):
        chunk = windows[i:i + factor]
        out.append(WindowResult(
            start_s=chunk[0].start_s,
            end_s=chunk[-1].end_s,
            good=sum(w.good for w in chunk),
            total=sum(w.total for w in chunk),
        ))
    return out


def _max_burn(
    windows: List[WindowResult], target: float
) -> Optional[float]:
    burns = [
        b for b in (w.burn_rate(target) for w in windows) if b is not None
    ]
    return max(burns) if burns else None


def evaluate_events(
    events: List[Dict],
    specs: Sequence[SLOSpec],
    tracer=None,
) -> List[Dict]:
    """Score every spec against every cell of the event stream.

    Returns one entry per cell: the cell labels, and per spec the
    verdict, run-wide SLI, error budget, multi-window burn rates, and
    the full window series (what the alert rules consume).  When a live
    ``tracer`` is given, one ``slo`` verdict event per (cell, spec) is
    emitted at the cell's end time so the verdict lands in the span log
    and the metrics.
    """
    by_cell: Dict[Tuple, List[Dict]] = {}
    for event in events:
        if event["kind"] in ("stage", "slo", "alert"):
            continue
        by_cell.setdefault(cell_key(event), []).append(event)

    results: List[Dict] = []
    for key in sorted(by_cell, key=lambda k: tuple(str(i) for i in k)):
        cell_events = by_cell[key]
        times = [e["time_s"] for e in cell_events]
        finishes = [e["finish_s"] for e in cell_events if "finish_s" in e]
        start = min(times) if times else 0.0
        end = max(times + finishes) if times else 0.0
        cell = dict(key)
        slos: List[Dict] = []
        for spec in specs:
            samples = _samples(cell_events, spec)
            windows = _windows(samples, start, end, spec.window_s)
            long_windows = _long_windows(
                windows, spec.long_window_factor
            )
            good = sum(w.good for w in windows)
            total = sum(w.total for w in windows)
            sli = (good / total) if total else None
            allowance = 1.0 - spec.target
            consumed = (
                ((1.0 - sli) / allowance) if sli is not None else None
            )
            violated = sli is not None and sli < spec.target
            verdict = "violated" if violated else "pass"
            observed = None
            if spec.signal == "latency":
                latencies = [
                    e["latency_s"] for e in cell_events
                    if e["kind"] == "complete"
                ]
                if latencies:
                    observed = percentile(latencies, spec.target * 100.0)
            slos.append({
                "spec": spec.to_dict(),
                "verdict": verdict,
                "sli": sli,
                "observed": observed,
                "good": good,
                "total": total,
                "error_budget": {
                    "allowed": allowance,
                    "consumed_fraction": consumed,
                    "remaining_fraction": (
                        1.0 - consumed if consumed is not None else None
                    ),
                },
                "burn": {
                    "window_s": (
                        windows[0].end_s - windows[0].start_s
                        if windows else 0.0
                    ),
                    "fast": _max_burn(windows, spec.target),
                    "slow": _max_burn(long_windows, spec.target),
                },
                "windows": [w.to_dict(spec.target) for w in windows],
            })
            if tracer is not None and tracer.enabled:
                tracer.emit(
                    "slo", end, slo=spec.name, verdict=verdict,
                    sli=sli, target=spec.target, **cell,
                )
        results.append({"cell": cell, "slos": slos})
    return results


def build_slo_report(
    events: List[Dict],
    config,
    default_latency_target_s: Optional[float] = None,
    tracer=None,
) -> Dict:
    """The ``slo_report.json`` payload for one recorded run."""
    specs = specs_from_config(
        config, default_latency_target_s=default_latency_target_s
    )
    cells = evaluate_events(events, specs, tracer=tracer)
    violations = sum(
        1 for cell in cells for s in cell["slos"]
        if s["verdict"] == "violated"
    )
    return {
        "config": config.to_dict(),
        "specs": [spec.to_dict() for spec in specs],
        "cells": cells,
        "violations": violations,
        "verdict": "violated" if violations else "pass",
    }


def slo_report_to_json(payload: Dict) -> str:
    """Deterministic bytes: sorted keys, trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_slo_report(payload: Dict) -> str:
    """One line per (cell, objective) — the console verdict table."""
    lines = [
        f"SLO report: {payload['verdict']} "
        f"({payload['violations']} violation(s), "
        f"{len(payload['cells'])} cell(s))"
    ]
    for cell in payload["cells"]:
        title = " / ".join(
            f"{k}={v}" for k, v in cell["cell"].items()
        ) or "run"
        lines.append(f"  {title}")
        for s in cell["slos"]:
            sli = "n/a" if s["sli"] is None else f"{s['sli']:.5f}"
            fast = s["burn"]["fast"]
            slow = s["burn"]["slow"]
            burn = (
                f"burn fast={fast:.2f} slow={slow:.2f}"
                if fast is not None and slow is not None else "burn n/a"
            )
            lines.append(
                f"    {s['verdict']:<9} {s['spec']['name']:<24} "
                f"sli={sli} target={s['spec']['target']:.5f} {burn}"
            )
    return "\n".join(lines)
