"""Slingshot reproduction benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ping_failover --seed 1 --seconds 30 --trace 0

Each run repeats one seeded workload as fresh-process episodes
(``episode.py``), one at a time, until ``--seconds`` have passed (and at
least ``MIN_EPISODES`` times).  Every episode's outputs are checked:
recovery invariants on the killed cells, a digest and simulated metrics
identical across the run's episodes, and, for the recorded seed, equal
to the outcome recorded in ``record.json``.  An episode that fails a
check, or crashes, counts as a failed operation.

With ``--trace 0`` the last line reports the end-to-end metrics, host
times as medians over episodes.  With ``--trace 1`` episodes alternate
untraced and traced; it reports the per-layer metrics of the traced
ones and the tracing overhead (traced over untraced measured time).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, make_schedule  # noqa: E402

MIN_EPISODES = 3
EPISODE_TIMEOUT_S = 120
#: Stop starting episodes when one more might end past this.
RUN_LIMIT_S = 165
UNITS = {
    "cell_s_per_host_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "goodput_mbps": "Mbit/s",
    "availability_pct": "%",
}


def run_episode(workload: str, schedule: dict, trace: bool) -> Optional[dict]:
    spec = json.dumps({"workload": workload, "schedule": schedule, "trace": trace})
    # Episodes import from cached bytecode, as an installed program would.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "episode.py"), spec],
            capture_output=True, text=True, timeout=EPISODE_TIMEOUT_S, env=env,
        )
    except subprocess.TimeoutExpired:
        print(f"episode timed out after {EPISODE_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(proc.stderr.strip()[-2000:], file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print(f"unparsable episode output: {proc.stdout[-500:]!r}", file=sys.stderr)
        return None


def episode_problems(result: dict, reference: dict) -> List[str]:
    """Failed checks, and any difference in digest or simulated metrics
    from ``reference``."""
    problems = [f"{c['name']}: {c['detail']}" for c in result["checks"] if not c["passed"]]
    if result["digest"] != reference["digest"]:
        problems.append(f"digest {result['digest'][:12]} != {reference['digest'][:12]}")
    if result["sim_metrics"] != reference["sim_metrics"]:
        problems.append(f"simulated metrics {result['sim_metrics']} != {reference['sim_metrics']}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(os.path.dirname(HERE), "src", "repro", "__init__.py")):
        print("no src/repro package beside the benchmark: nothing to measure",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "record.json")) as f:
        record = json.load(f)
    # Episodes are compared with the recorded outcome, or with the first.
    reference = record["outcomes"][args.workload] if args.seed == record["recorded_seed"] else None

    schedule = make_schedule(args.workload, args.seed)
    start = time.perf_counter()
    untraced: List[dict] = []
    traced: List[dict] = []
    attempted = failed = 0
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        enough = attempted >= MIN_EPISODES and (not args.trace or traced)
        if (enough and elapsed >= args.seconds) or elapsed + 1.5 * longest > RUN_LIMIT_S:
            break
        trace = bool(args.trace) and attempted % 2 == 1
        began = time.perf_counter()
        result = run_episode(args.workload, schedule, trace)
        longest = max(longest, time.perf_counter() - began)
        attempted += 1
        if result is None:
            failed += 1
            continue
        reference = reference or result
        problems = episode_problems(result, reference)
        if problems:
            failed += 1
            print(f"episode {attempted} failed: " + "; ".join(problems), file=sys.stderr)
        (traced if trace else untraced).append(result)

    if not untraced or (args.trace and not traced):
        print("no episode produced a result", file=sys.stderr)
        return 1

    def median(key: str, items: List[dict]) -> float:
        return statistics.median(r[key] for r in items)

    values: Dict[str, float]
    units: Dict[str, str]
    if args.trace:
        layers = traced[0]["layers"]
        values = {name: statistics.median(r["layers"][name] for r in traced) for name in layers}
        values["trace.overhead_ratio"] = median("measured_s", traced) / median("measured_s", untraced)
        # Exact for a seed, but spread by the kill phase across seeds
        # (detection alone ranges over 0.12-0.44 ms), so they are not
        # end-to-end metrics with a bound.
        values["core.detect_ms"] = traced[0]["sim_metrics"]["detect_ms"]
        values["apps.downtime_ms"] = traced[0]["sim_metrics"]["downtime_ms"]
        units = {name: _layer_unit(name) for name in values}
        if traced[0]["absent"]:
            print("absent entry points (reported as 0): " + ", ".join(traced[0]["absent"]))
    else:
        rates = [r["cell_s"] / r["measured_s"] for r in untraced]
        values = {
            "cell_s_per_host_s": statistics.median(rates),
            "setup_s": median("setup_s", untraced),
            "peak_rss_mb": median("peak_rss_mb", untraced),
        }
        values["goodput_mbps"] = untraced[0]["sim_metrics"]["goodput_mbps"]
        values["availability_pct"] = untraced[0]["sim_metrics"]["availability_pct"]
        units = UNITS
        raw_rates = [r["cell_s"] / r["measured_raw_s"] for r in untraced]
        print(
            f"{args.workload} seed {args.seed}: {len(untraced)} episodes, digest "
            f"{untraced[0]['digest'][:12]}; raw host context: cell_s_per_host_s "
            f"{statistics.median(raw_rates):.4f}, setup {median('setup_raw_s', untraced):.4f} s, "
            f"measured {median('measured_raw_s', untraced):.4f} s"
        )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio") or name == "core.ticks_per_detection":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
