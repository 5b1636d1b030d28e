"""Golden vectors for the packet assemblies and the per-packet chain.

Five short fixed-seed runs, each reduced to one SHA-256.  The first
three cover what the wiring decides — events run, node and router ids
handed out, per-colour arrivals and drops at every port, every raw
rate / gamma / loss sample as ``float.hex()`` (no ``sum()``/mean of
floats: ``sum`` changed its rounding in Python 3.12) — and what the
per-packet chain leaves behind: every sink's delay-probe counters, every
link's sent counters, the hop count of each delivered packet in
delivery order and each source's label-freshness counters.  The fourth
digests every event line of a traced run, the fifth drives the fault
injectors (link flaps on the bottleneck and an access link, a router
restart, ACK loss, the starvation watchdog) through the same chain.

The digests were generated at the commit *before* the per-packet chain
was rewritten (``Link`` delivering straight to its consumer, shared
immutable labels, no per-packet copies), so a mismatch reads as "an
event moved or an observable changed".  To re-baseline after an
intended behaviour change, run with ``-s`` and copy the printed digests.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.control.meta import MetaControllerConfig
from repro.core.best_effort import BestEffortScenario, BestEffortSimulation
from repro.core.multihop import MultiHopPelsSimulation, MultiHopScenario
from repro.core.session import PelsScenario, PelsSimulation
from repro.faults import FaultSchedule, LinkFlap, RouterRestart
from repro.obs.trace import Tracer, tracing
from repro.sim.topology import BarbellConfig


def _series(series) -> list:
    return [(t.hex(), float(v).hex()) for t, v in series]


class _HopTap:
    """Host agent logging ``(flow_id, hops)`` of each delivered packet
    before handing it to the agent it stands in front of."""

    def __init__(self, log, inner=None) -> None:
        self.log, self.inner = log, inner

    def receive(self, packet) -> None:
        self.log.append((packet.flow_id, packet.hops))
        if self.inner is not None:
            self.inner.receive(packet)


def _tap_hosts(topology) -> list:
    """Put a :class:`_HopTap` in front of every agent of every host
    (and a catch-all behind them); returns the shared log."""
    log: list = []
    for host in topology.sources + topology.sinks:
        for flow_id, agent in list(host._agents.items()):
            host.attach_agent(_HopTap(log, agent), flow_id)
        host.attach_agent(_HopTap(log))
    return log


def _digest(sim, port_stats, feedbacks, topology, hops, *extra) -> str:
    parts = [
        ("events", sim.sim.events_dispatched, extra),
        ("node_ids", [h.node_id for h in topology.sources + topology.sinks]),
        ("ports", [(s.arrivals, s.drops) for s in port_stats]),
        ("routers", [(fb.router_id, fb.epoch) for fb in feedbacks]),
        ("links", [(link.name, link.packets_sent, link.bytes_sent,
                    link.fault_drops)
                   for link in topology.hop_links + topology.access_links]),
        ("hops", hops),
    ]
    for fb in feedbacks:
        parts.append(("virtual_loss", _series(fb.loss_series)))
        parts.append(("arrival_rate", _series(fb.rate_series)))
    for source, sink in zip(sim.sources, sim.sinks):
        tracker = source.tracker
        parts.append((
            source.flow_id, tracker.router_id, source.packets_sent,
            sink.packets_received, sorted(source.frame_log.items()),
            _series(source.rate_series), _series(source.gamma_series),
            _series(source.loss_series),
            (tracker.accepted, tracker.rejected, tracker.stale_discarded),
            (source.blind_intervals, source.rate_freezes, source.recoveries,
             sink.acks_dropped),
            [(probe.count, probe.max.hex(), probe._sum.hex())
             for probe in sink.delay_probes.values()]))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def single_hop() -> str:
    """TCP cross traffic, staggered starts, one slow access link and a
    lossy reverse path: every PelsScenario-only branch of the wiring."""
    sim = PelsSimulation(PelsScenario(
        n_flows=3, duration=4.0, seed=11, cross_traffic="tcp", tcp_flows=2,
        start_times=[0.0, 0.5, 1.0], ack_loss_rate=0.05,
        topology=BarbellConfig(extra_access_delay={1: 0.020})))
    hops = _tap_hosts(sim.barbell)
    sim.run()
    return _digest(sim, [f.stats for f in sim.bottleneck_queue.core.fifos],
                   [sim.feedback], sim.barbell, hops)


def two_hop() -> str:
    """An interferer moving the bottleneck to hop 1, tuner attached."""
    sim = MultiHopPelsSimulation(MultiHopScenario(
        n_flows=2, duration=4.0, seed=5, hop_bps=(4e6, 6e6),
        pels_interferers=((1, 1.5, 4.0, 2_400_000.0),),
        meta_controller=MetaControllerConfig()))
    hops = _tap_hosts(sim.chain)
    sim.run()
    stats = [f.stats for queue in sim.hop_queues for f in queue.core.fifos]
    return _digest(sim, stats, sim.feedbacks, sim.chain, hops,
                   sim.meta.steps, sim.meta.adjustments)


def best_effort() -> str:
    """Started above the video share so the RED lane actually drops."""
    sim = BestEffortSimulation(BestEffortScenario(
        n_flows=4, duration=4.0, seed=27, initial_rate_bps=700_000.0))
    hops = _tap_hosts(sim.barbell)
    sim.run()
    queue = sim.video_queue
    return _digest(sim,
                   [queue.base_queue.stats, queue.enhancement_queue.stats],
                   [sim.feedback], sim.barbell, hops)


def traced() -> str:
    """Every JSONL event line of a short traced run (CBR cross traffic,
    one bottleneck flap so ``link`` and ``fault`` lines are in it)."""
    with tracing(Tracer(capacity=1 << 20)) as tracer:
        sim = PelsSimulation(PelsScenario(n_flows=2, duration=3.0, seed=3))
        FaultSchedule().add(
            1.6, LinkFlap(sim.barbell.bottleneck, 0.05)).install(sim.sim)
        sim.run()
    assert tracer.evicted() == 0 and tracer.emitted > 4000
    digest = hashlib.sha256()
    for line in tracer.jsonl_lines():
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def faulted() -> str:
    """The fault injectors against the chain: the bottleneck's paused
    transmitter resuming a standing queue (the CBR aggregate overloads
    its share), access links cut while traffic keeps being offered, a
    restarted router's stale epochs, lost ACKs and sources riding blind
    until feedback returns."""
    sim = PelsSimulation(PelsScenario(
        n_flows=3, duration=6.0, seed=7, ack_loss_rate=0.1,
        feedback_timeout=0.5, cbr_rate_bps=5e6))
    access = sim.barbell.access_links
    schedule = (FaultSchedule()
                .add(1.5, LinkFlap(sim.barbell.bottleneck, 0.7))
                .add(3.0, LinkFlap(access[0], 0.3))     # src0 -> left
                .add(3.2, LinkFlap(access[3], 0.2))     # right -> sink1
                .add(4.2, RouterRestart(sim.feedback))
                .install(sim.sim))
    hops = _tap_hosts(sim.barbell)
    sim.run()
    assert sum(source.rate_freezes for source in sim.sources) > 0
    assert sum(source.tracker.stale_discarded for source in sim.sources) > 0
    assert sim.barbell.bottleneck.fault_drops > 0 and access[0].fault_drops > 0
    return _digest(sim, [f.stats for f in sim.bottleneck_queue.core.fifos],
                   [sim.feedback], sim.barbell, hops,
                   [(t.hex(), what) for t, what in schedule.applied],
                   sim.feedback.restarts)


@pytest.mark.parametrize("run, golden", [
    (single_hop,
     "bba32cc2536ccc13d8815817c1577a064a783403440cfb62bd51a50d18dddbe2"),
    (two_hop,
     "1cb924da2a61a8773f6672416f83c3a3441f5044760575353ae4be58e4aaaf78"),
    (best_effort,
     "8dc2d8eace34805a3dec5bb462285d6a4ee23e9c1c5c109069f98194ad575950"),
    (traced,
     "ca9348175ed2b8b39ab6a72dbd07f66623f8c8e72164678e3d473724d7e7685d"),
    (faulted,
     "1692867358fb9655b674407cb6626444c3c9ad6115b02582cf1c32a9e1c775e0"),
], ids=lambda arg: getattr(arg, "__name__", ""))
def test_assembly_matches_parent_digest(run, golden):
    digest = run()
    print(f"{run.__name__}: {digest}")
    assert digest == golden
