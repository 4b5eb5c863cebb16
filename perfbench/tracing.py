"""Per-layer spans for the traced run.

Each span wraps one public class method at a layer boundary.  Wrappers
are installed on the classes *before* anything is built, because
components bind methods (``link.send``, ``detector.on_timer_tick``, ...)
at construction.  A span's self time is its duration minus the time its
child spans cover; ``sim.self_s`` is the measured phase minus all
top-level spans (the engine plus everything no span covers).

An entry point that no longer exists is reported as absent instead of
failing the run, so the program can delete code without breaking the
benchmark.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Dict, List, Tuple

#: span name -> (module, class, methods).  Names are ``<layer>.<what>``,
#: layers being the ``src/repro/`` packages.
SPANS: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "net.pktgen_tick": ("repro.net.p4.packetgen", "PacketGenerator", ("on_tick",)),
    "core.detector_tick": ("repro.core.failure_detector", "FailureDetector", ("on_timer_tick",)),
    "core.detector_heartbeat": ("repro.core.failure_detector", "FailureDetector", ("on_heartbeat",)),
    "net.link_send": ("repro.net.link", "Link", ("send",)),
    "net.switch_ingress": ("repro.net.switch", "Switch", ("ingress",)),
    "core.middlebox": ("repro.core.fh_middlebox", "FronthaulMiddlebox", ("process",)),
    "fronthaul.ru_receive": ("repro.fronthaul.ru", "RadioUnit", ("receive_frame",)),
    "fapi.channel_send": ("repro.fapi.channels", "ShmChannel", ("send",)),
    "core.orion_l2": ("repro.core.orion", "L2SideOrion", ("receive_fapi", "receive_frame")),
    "core.orion_phy": ("repro.core.orion", "PhySideOrion", ("receive_fapi", "receive_frame")),
    "phy.decode_block": ("repro.phy.codec", "PhyCodec", ("decode_block",)),
    "phy.encode_blocks": ("repro.phy.codec", "PhyCodec", ("encode_blocks",)),
    "phy.ldpc_decode": ("repro.phy.ldpc", "LdpcCode", ("decode",)),
    "phy.syndrome": ("repro.phy.ldpc", "LdpcCode", ("syndrome_ok",)),
    "l2.receive_fapi": ("repro.l2.mac", "L2Process", ("receive_fapi",)),
    "l2.rlc_pull": ("repro.l2.rlc", "RlcTransmitter", ("pull",)),
    "l2.rlc_on_pdu": ("repro.l2.rlc", "RlcReceiver", ("on_pdu",)),
    "transport.tcp_on_ack": ("repro.transport.tcp", "TcpSender", ("on_ack",)),
    "transport.tcp_on_segment": ("repro.transport.tcp", "TcpReceiver", ("on_segment",)),
    "ue.on_dl_data": ("repro.ue.ue", "UserEquipment", ("on_dl_data",)),
    "corenet.send_downlink": ("repro.corenet.core", "CoreNetwork", ("send_downlink",)),
    "fleet.pool_claim": ("repro.fleet.pool", "StandbyPool", ("claim",)),
}

#: Statistics read from the instances a span has seen, as
#: metric -> (span, attribute path).  Values are measured-phase deltas.
_STATS = {
    "phy.blocks": ("phy.decode_block", "stats.blocks_decoded"),
    "phy.crc_failures": ("phy.decode_block", "stats.crc_failures"),
    "phy.ldpc_iterations": ("phy.decode_block", "stats.total_decoder_iterations"),
    "core.detections": ("core.detector_tick", "stats.failures_detected"),
    "transport.segments": ("transport.tcp_on_ack", "stats.segments_sent"),
    "transport.retransmissions": ("transport.tcp_on_ack", "stats.retransmissions"),
    "fleet.pool_exhaustions": ("fleet.pool_claim", "exhaustions"),
}

#: Per-span metrics reported as ``<span>.calls`` / ``<span>.self_s``.
CALLS_ONLY = ("core.detector_heartbeat", "corenet.send_downlink", "fleet.pool_claim")
SELF_ONLY = ("core.orion_l2", "core.orion_phy", "l2.rlc_pull", "l2.rlc_on_pdu")
LAYERS = ("sim", "net", "core", "fronthaul", "fapi", "phy", "l2", "transport",
          "ue", "corenet", "fleet")


class Tracer:
    """Call counts and self times of every span, in host seconds."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {name: 0 for name in SPANS}
        self.self_s: Dict[str, float] = {name: 0.0 for name in SPANS}
        #: Host seconds covered by top-level spans (no span open above).
        self.top_s = 0.0
        self.absent: List[str] = []
        self.instances: Dict[str, Dict[int, object]] = {
            span: {} for span, _ in _STATS.values()
        }
        self._baseline: Dict[str, float] = {}
        # Child time accumulated by each open span, innermost last.
        self._stack: List[float] = []

    def install(self) -> None:
        for name, (module_name, class_name, methods) in SPANS.items():
            try:
                cls = getattr(importlib.import_module(module_name), class_name)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            found = [m for m in methods if callable(getattr(cls, m, None))]
            if not found:
                self.absent.append(name)
            for method in found:
                setattr(cls, method, self._wrap(name, getattr(cls, method)))

    def reset(self) -> None:
        """Start counting afresh (the measured phase begins)."""
        for name in SPANS:
            self.calls[name] = 0
            self.self_s[name] = 0.0
        self.top_s = 0.0
        self._baseline = self._stat_totals()

    def _stat_totals(self) -> Dict[str, float]:
        totals = {}
        for metric, (span, path) in _STATS.items():
            total = 0
            for obj in self.instances[span].values():
                try:
                    for attr in path.split("."):
                        obj = getattr(obj, attr)
                except AttributeError:
                    if metric not in self.absent:
                        self.absent.append(metric)
                    continue
                total += obj
            totals[metric] = total
        return totals

    def stat_deltas(self) -> Dict[str, float]:
        """Measured-phase growth of every statistic in ``_STATS``."""
        now = self._stat_totals()
        return {m: now[m] - self._baseline.get(m, 0) for m in now}

    def _wrap(self, name: str, method):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        keep = self.instances.get(name)
        clock = time.perf_counter

        @functools.wraps(method)
        def span(obj, *args, **kwargs):
            if keep is not None:
                keep[id(obj)] = obj
            stack.append(0.0)
            start = clock()
            try:
                return method(obj, *args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[name] += 1
                self_s[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    self.top_s += elapsed

        return span


def layer_metrics(calls: Dict[str, int], self_s: Dict[str, float], sim_self_s: float,
                  stats: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metric set from one traced measured phase."""
    metrics: Dict[str, float] = {"sim.self_s": sim_self_s}
    for name in SPANS:
        if name not in SELF_ONLY:
            metrics[f"{name}.calls"] = calls[name]
        if name not in CALLS_ONLY:
            metrics[f"{name}.self_s"] = self_s[name]
    ticks = calls["core.detector_tick"]
    metrics["core.ticks_per_detection"] = ticks / max(stats["core.detections"], 1)
    metrics["phy.ldpc_iterations"] = stats["phy.ldpc_iterations"]
    blocks = stats["phy.blocks"]
    metrics["phy.crc_ok_ratio"] = (blocks - stats["phy.crc_failures"]) / blocks if blocks else 0.0
    segments = stats["transport.segments"]
    metrics["transport.tcp_retx_ratio"] = (
        stats["transport.retransmissions"] / segments if segments else 0.0
    )
    metrics["fleet.pool_exhaustions"] = stats["fleet.pool_exhaustions"]
    layer_s = {layer: 0.0 for layer in LAYERS}
    layer_s["sim"] = sim_self_s
    for name, seconds in self_s.items():
        layer_s[name.split(".", 1)[0]] += seconds
    total = sum(layer_s.values())
    for layer, seconds in layer_s.items():
        metrics[f"{layer}.share_pct"] = 100.0 * seconds / total if total else 0.0
    return metrics
