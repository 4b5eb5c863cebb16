"""One benchmark episode in a fresh process: set up, measure, judge.

Usage (from the root of a checkout)::

    python3 perfbench/episode.py '{"workload": "ping_failover",
        "schedule": {"cells": [0], "kill_ns": [600000000]}, "trace": false}'

Prints one JSON object: reference-scaled and raw host seconds of the
set-up (from the first import of ``repro`` to the first measured slice)
and of the measured phase, peak RSS, the canonical digest, the output
checks, the simulated metrics and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from reference import ScaledClock, reference_loop  # noqa: E402
from tracing import SPANS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_episode(workload: str, schedule: dict, trace: bool) -> dict:
    with open(os.path.join(HERE, "record.json")) as f:
        nominal_s = json.load(f)["t_ref_nominal_s"]
    reference_loop()  # First run pays one-off interpreter warm-up.
    tracer = Tracer() if trace else None
    built = []

    def load() -> None:
        importlib.import_module("repro")
        if tracer is not None:
            tracer.install()

    clock = ScaledClock(nominal_s)
    # Import and build are separate slices, so a reference sits between.
    clock.slice(load)
    clock.slice(lambda: built.append(WORKLOADS[workload](schedule)))
    episode = built[0]
    for work in episode.warmup_slices():
        clock.slice(work)

    first_measured = len(clock.elapsed_s)
    sim = episode.sim
    events_before = sim.events_processed
    queued_peak = sim.queued_entries
    # Per measured slice: span self times and top-level span time.
    span_deltas = []
    if tracer is not None:
        tracer.reset()
    for work in episode.slices():
        if tracer is not None:
            seen = dict(tracer.self_s), tracer.top_s
        clock.slice(work)
        queued_peak = max(queued_peak, sim.queued_entries)
        if tracer is not None:
            span_deltas.append((
                {name: tracer.self_s[name] - seen[0][name] for name in SPANS},
                tracer.top_s - seen[1],
            ))

    setup_raw, setup_scaled = clock.totals(0, first_measured)
    measured_raw, measured_scaled = clock.totals(first_measured, len(clock.elapsed_s))
    result = {
        "setup_s": setup_scaled,
        "setup_raw_s": setup_raw,
        "measured_s": measured_scaled,
        "measured_raw_s": measured_raw,
        "cell_s": episode.cell_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result.update(episode.judge())
    if tracer is not None:
        factors = clock.factors()[first_measured:]
        self_scaled = {name: 0.0 for name in SPANS}
        top_scaled = 0.0
        for (deltas, top), factor in zip(span_deltas, factors):
            for name, seconds in deltas.items():
                self_scaled[name] += seconds * factor
            top_scaled += top * factor
        layers = layer_metrics(tracer.calls, self_scaled, measured_scaled - top_scaled,
                               tracer.stat_deltas())
        layers["sim.events"] = sim.events_processed - events_before
        layers["sim.queued_peak"] = queued_peak
        result["layers"] = layers
        result["absent"] = tracer.absent
    return result


def main() -> None:
    spec = json.loads(sys.argv[1])
    result = run_episode(spec["workload"], spec["schedule"], bool(spec["trace"]))
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
