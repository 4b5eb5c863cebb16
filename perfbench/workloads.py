"""The three workloads, driven only through the program's public API.

Each workload is a fixed simulated scenario: a set-up (build plus the
attach warm-up), a measured phase run as fixed sim-time slices, and a
judge that checks the outputs and derives the simulated metrics.  The
benchmark seed reaches the program only as the generated fault schedule
(``make_schedule``); the program's own seed is the constant
``PROGRAM_SEED``, so for one benchmark seed every episode simulates the
same thing and its digest and simulated metrics repeat exactly.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List

import numpy as np

MS = 1_000_000
SECOND = 1_000_000_000
#: Seed of the program's own RNG registry in every workload.
PROGRAM_SEED = 1
#: Attach warm-up the single-cell workloads run before measuring.
WARMUP_NS = 200 * MS
#: Reply/delivery gap a failover may cost a user (bounded_downtime).
DOWNTIME_BUDGET_NS = 60 * MS
#: Fault-to-boundary-commit budget for a fleet promotion.
FLEET_COMMIT_BUDGET_NS = 5 * MS

FLEET_CELLS = 64
FLEET_TRACERS = 2
FLEET_KILLS = 3


def make_schedule(workload: str, seed: int) -> Dict[str, List[int]]:
    """The seeded fault schedule: the only input the seed controls."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if workload == "ping_failover":
        return {"cells": [0], "kill_ns": [int(rng.integers(500 * MS, 700 * MS))]}
    if workload == "tcp_downlink_failover":
        return {"cells": [0], "kill_ns": [int(rng.integers(700 * MS, 800 * MS))]}
    if workload == "fleet_metro":
        # Three kills inside one 40 ms re-warm window against a pool of
        # two: two promotions and one pool exhaustion.
        cells = rng.choice(FLEET_CELLS, size=FLEET_KILLS, replace=False)
        kills = rng.integers(10 * MS, 20 * MS, size=FLEET_KILLS)
        return {"cells": [int(c) for c in cells], "kill_ns": [int(k) for k in kills]}
    raise ValueError(f"unknown workload {workload!r}")


class Episode:
    """One workload instance.  The constructor and :meth:`warmup_slices`
    are the set-up, :meth:`slices` is the measured phase, :meth:`judge`
    checks the outcome.  Subclasses set ``target`` (a cell or a fleet),
    ``sim``, ``cell_s`` and the class constants, and define ``start``
    (run once, at the end of the set-up) and ``judge``."""

    WARMUP_NS = WARMUP_NS
    END_NS: int
    SLICE_NS: int
    #: Simulated cell-seconds of the measured phase.
    cell_s: float

    def warmup_slices(self) -> List[Callable[[], None]]:
        return _grid(self.target, 0, self.WARMUP_NS, self.SLICE_NS) + [self.start]

    def slices(self) -> List[Callable[[], None]]:
        return _grid(self.target, self.WARMUP_NS, self.END_NS, self.SLICE_NS)

    def start(self) -> None:
        raise NotImplementedError

    def judge(self) -> Dict[str, object]:
        raise NotImplementedError


def _grid(target, start_ns: int, end_ns: int, step_ns: int) -> List[Callable[[], None]]:
    """Slices running ``target`` from ``start_ns`` to ``end_ns``."""
    return [
        functools.partial(target.run_until, min(t + step_ns, end_ns))
        for t in range(start_ns, end_ns, step_ns)
    ]


def _delivery_events(times: List[int]):
    from repro.faults.invariants import PROBE_RX
    from repro.sim.trace import TraceEvent

    return [TraceEvent(time=t, category=PROBE_RX) for t in times]


def _check_cell(events, deliveries: List[int], window, expected_migrations: int,
                budget_ns, expect_impossible: bool = False):
    """RecoveryInvariants over a cell's canonical trace plus the
    benchmark's own delivery times (as probe events): the check results
    and the longest delivery gap in the window."""
    from repro.faults.invariants import RecoveryInvariants

    merged = sorted(events + _delivery_events(deliveries), key=lambda e: e.time)
    checker = RecoveryInvariants(
        merged,
        window_start_ns=window[0],
        window_end_ns=window[1],
        downtime_budget_ns=budget_ns,
        expected_migrations=expected_migrations,
        expect_failover_impossible=expect_impossible,
    )
    return [r.as_dict() for r in checker.check_all()], checker.max_probe_gap_ns()


def _timeline(events):
    from repro.telemetry.timeline import FailoverTimeline

    return FailoverTimeline.from_events(events, window_start_ns=0, window_end_ns=0)


def _detect_ns(events) -> int:
    timeline = _timeline(events)
    if timeline.detect_latency_ns is None:
        raise RuntimeError("the killed PHY was never detected")
    return timeline.detect_latency_ns


def _commit_ns(events) -> int:
    timeline = _timeline(events)
    if timeline.fault_ns is None or timeline.committed_ns is None:
        raise RuntimeError("the promoted cell never committed its migration")
    return timeline.committed_ns - timeline.fault_ns


class PingFailover(Episode):
    """Fig 9 shape: three UEs pinged every 10 ms, primary PHY killed."""

    END_NS = 1000 * MS
    SLICE_NS = 25 * MS
    INTERVAL_NS = 10 * MS
    #: Pings sent after END_NS - GRACE_NS are neither counted nor lost.
    GRACE_NS = 100 * MS

    def __init__(self, schedule) -> None:
        from repro import CellConfig, build_slingshot_cell
        from repro.apps import PingClient, UePingResponder
        from repro.apps.dispatch import FlowDispatch

        self.kill_ns = schedule["kill_ns"][0]
        self.cell = self.target = build_slingshot_cell(CellConfig(seed=PROGRAM_SEED))
        self.sim = self.cell.sim
        self.clients = {}
        for ue_id, ue in self.cell.ues.items():
            flow = f"ping-{ue_id}"
            responder = UePingResponder(ue, flow, bearer_id=1)
            ue.dl_sink = FlowDispatch(flow, responder.on_packet, ue.dl_sink)
            self.clients[ue_id] = PingClient(
                self.sim, self.cell.server, ue_id=ue_id, flow_id=flow,
                bearer_id=1, interval_ns=self.INTERVAL_NS,
            )
        self.cell_s = (self.END_NS - WARMUP_NS) / SECOND

    def start(self) -> None:
        for client in self.clients.values():
            client.start()
        self.cell.kill_phy_at(0, self.kill_ns)

    def judge(self):
        events = self.cell.trace.canonical_events()
        window = (WARMUP_NS + self.GRACE_NS, self.END_NS - self.GRACE_NS)
        due = answered = 0
        checks, gaps = [], []
        for ue_id, client in sorted(self.clients.items()):
            counted = [s for s in client.samples if s.sent_ns <= window[1]]
            replies = [s.sent_ns + s.rtt_ns for s in counted if s.rtt_ns is not None]
            due += len(counted)
            answered += len(replies)
            results, gap = _check_cell(events, replies, window, 1, DOWNTIME_BUDGET_NS)
            checks += results
            gaps.append(gap)
        measured_s = (window[1] - WARMUP_NS) / SECOND
        packet_bits = 8 * next(iter(self.clients.values())).packet_bytes
        return {
            "digest": self.cell.trace.digest(),
            "checks": checks,
            "sim_metrics": {
                "detect_ms": _detect_ns(events) / MS,
                "downtime_ms": max(gaps) / MS,
                "goodput_mbps": answered * packet_bits / measured_s / 1e6,
                "availability_pct": 100.0 * answered / due,
            },
        }


class _DeliveryTap:
    """UE downlink sink that notes when the TCP receiver delivers new
    in-order bytes, then hands the SDU on unchanged."""

    def __init__(self, sim, receiver, inner) -> None:
        self.sim = sim
        self.receiver = receiver
        self.inner = inner
        self.times: List[int] = []

    def __call__(self, bearer_id, sdu) -> None:
        before = self.receiver.bytes_delivered
        self.inner(bearer_id, sdu)
        if self.receiver.bytes_delivered > before:
            self.times.append(self.sim.now)


class TcpDownlinkFailover(Episode):
    """Fig 10 single-UE shape: window-limited TCP downlink on the UM
    bearer through a primary PHY kill."""

    END_NS = 900 * MS
    SLICE_NS = 10 * MS
    #: Bins and gaps are judged from here: TCP's slow-start overshoot
    #: stalls in-order delivery from ~520 ms to ~645 ms, kill or not.
    JUDGE_FROM_NS = 660 * MS
    BIN_NS = 10 * MS

    def __init__(self, schedule) -> None:
        from repro import CellConfig, UeProfile, build_slingshot_cell
        from repro.apps import TcpIperfDownlink

        self.kill_ns = schedule["kill_ns"][0]
        config = CellConfig(
            seed=PROGRAM_SEED,
            ue_profiles=[
                UeProfile(ue_id=1, name="UE", mean_snr_db=17.0,
                          shadow_sigma_db=0.6, fade_probability=0.0)
            ],
        )
        self.cell = self.target = build_slingshot_cell(config)
        self.sim = self.cell.sim
        ue = self.cell.ue(1)
        self.flow = TcpIperfDownlink(self.sim, self.cell.server, ue, "iperf", 1,
                                     bin_ns=self.BIN_NS)
        self.tap = _DeliveryTap(self.sim, self.flow.receiver, ue.dl_sink)
        ue.dl_sink = self.tap
        self.cell_s = (self.END_NS - WARMUP_NS) / SECOND

    def start(self) -> None:
        self.flow.start()
        self.cell.kill_phy_at(0, self.kill_ns)

    def judge(self):
        events = self.cell.trace.canonical_events()
        window = (self.JUDGE_FROM_NS, self.END_NS)
        receiver = self.flow.receiver
        bins = range(window[0] // self.BIN_NS, window[1] // self.BIN_NS)
        served = sum(1 for b in bins if receiver.bins.get(b, 0) > 0)
        checks, gap = _check_cell(events, self.tap.times, window, 1, DOWNTIME_BUDGET_NS)
        return {
            "digest": self.cell.trace.digest(),
            "checks": checks,
            "sim_metrics": {
                "detect_ms": _detect_ns(events) / MS,
                "downtime_ms": gap / MS,
                "goodput_mbps": receiver.bytes_delivered * 8
                / ((self.END_NS - WARMUP_NS) / SECOND) / 1e6,
                "availability_pct": 100.0 * served / len(bins),
            },
        }


class FleetMetro(Episode):
    """64 cells (2 tracer cells) behind a pool of 2 standbys; three
    seeded primary kills inside one re-warm window."""

    #: Only a few slots of set-up: tracer UEs attach during the measured
    #: phase, since a 0.2 s warm-up of 64 cells would cost ~20 host-s.
    WARMUP_NS = 2 * MS
    END_NS = 42 * MS
    SLICE_NS = 1 * MS

    def __init__(self, schedule) -> None:
        from repro.fleet import FleetConfig, build_fleet

        self.kills = list(zip(schedule["cells"], schedule["kill_ns"]))
        self.fleet = self.target = build_fleet(
            FleetConfig(seed=PROGRAM_SEED, num_cells=FLEET_CELLS,
                        tracer_cells=FLEET_TRACERS)
        )
        self.sim = self.fleet.sim
        self.cell_s = FLEET_CELLS * (self.END_NS - self.WARMUP_NS) / SECOND

    def start(self) -> None:
        for cell_index, kill_ns in self.kills:
            self.fleet.kill_cell_primary_at(cell_index, kill_ns)

    def judge(self):
        from repro.fleet import fleet_digest

        checks = []
        detects, commits = [], []
        pool = self.fleet.pool
        for cell_index, _ in self.kills:
            cell = self.fleet.cells[cell_index]
            events = cell.trace.canonical_events()
            denied = cell.trace.count("orion.failover_impossible") > 0
            checks += _check_cell(events, [], (self.WARMUP_NS, self.END_NS),
                                  0 if denied else 1, None, expect_impossible=denied)[0]
            detects.append(_detect_ns(events))
            if not denied:
                commit = _commit_ns(events)
                commits.append(commit)
                checks.append({
                    "name": "fleet_commit_budget",
                    "passed": commit <= FLEET_COMMIT_BUDGET_NS,
                    "detail": f"cell {cell_index}: fault to commit {commit} ns",
                })
        checks.append({
            "name": "fleet_pool_accounting",
            "passed": (pool.promotions, pool.exhaustions) == (FLEET_KILLS - 1, 1),
            "detail": f"{pool.promotions} promotions, {pool.exhaustions} exhaustions",
        })
        summary = self.fleet.population.summary()
        user_epochs = summary["served_user_epochs"] + summary["degraded_user_epochs"]
        return {
            "digest": fleet_digest(self.fleet),
            "checks": checks,
            "sim_metrics": {
                "detect_ms": sum(detects) / len(detects) / MS,
                "downtime_ms": max(commits) / MS,
                "goodput_mbps": summary["served_bytes"] * 8 / (self.END_NS / SECOND) / 1e6,
                "availability_pct": 100.0 * summary["served_user_epochs"] / user_epochs,
            },
        }


WORKLOADS = {
    "ping_failover": PingFailover,
    "tcp_downlink_failover": TcpDownlinkFailover,
    "fleet_metro": FleetMetro,
}
