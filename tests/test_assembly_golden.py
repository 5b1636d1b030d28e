"""Golden vectors for the three packet assemblies.

Three short fixed-seed runs, each reduced to one SHA-256 over what the
wiring decides: events run, node and router ids handed out, per-colour
arrivals and drops at every port, and every raw rate / gamma / loss
sample as ``float.hex()`` (no ``sum()``/mean of floats: ``sum`` changed
its rounding in Python 3.12).  The digests were generated at the commit
*before* the assemblies were collapsed onto one control record, one
flow wiring and one topology builder, so a mismatch reads as "the
wiring moved".  To re-baseline after an intended behaviour change, run
with ``-s`` and copy the printed digests.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.control.meta import MetaControllerConfig
from repro.core.best_effort import BestEffortScenario, BestEffortSimulation
from repro.core.multihop import MultiHopPelsSimulation, MultiHopScenario
from repro.core.session import PelsScenario, PelsSimulation
from repro.sim.topology import BarbellConfig


def _series(series) -> list:
    return [(t.hex(), float(v).hex()) for t, v in series]


def _digest(sim, port_stats, feedbacks, topology, *extra) -> str:
    parts = [
        ("events", sim.sim.events_dispatched, extra),
        ("node_ids", [h.node_id for h in topology.sources + topology.sinks]),
        ("ports", [(s.arrivals, s.drops) for s in port_stats]),
        ("routers", [(fb.router_id, fb.epoch) for fb in feedbacks]),
    ]
    for fb in feedbacks:
        parts.append(("virtual_loss", _series(fb.loss_series)))
        parts.append(("arrival_rate", _series(fb.rate_series)))
    for source, sink in zip(sim.sources, sim.sinks):
        parts.append((
            source.flow_id, source.tracker.router_id, source.packets_sent,
            sink.packets_received, sorted(source.frame_log.items()),
            _series(source.rate_series), _series(source.gamma_series),
            _series(source.loss_series)))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def single_hop() -> str:
    """TCP cross traffic, staggered starts, one slow access link and a
    lossy reverse path: every PelsScenario-only branch of the wiring."""
    sim = PelsSimulation(PelsScenario(
        n_flows=3, duration=4.0, seed=11, cross_traffic="tcp", tcp_flows=2,
        start_times=[0.0, 0.5, 1.0], ack_loss_rate=0.05,
        topology=BarbellConfig(extra_access_delay={1: 0.020}))).run()
    return _digest(sim, [f.stats for f in sim.bottleneck_queue.core.fifos],
                   [sim.feedback], sim.barbell)


def two_hop() -> str:
    """An interferer moving the bottleneck to hop 1, tuner attached."""
    sim = MultiHopPelsSimulation(MultiHopScenario(
        n_flows=2, duration=4.0, seed=5, hop_bps=(4e6, 6e6),
        pels_interferers=((1, 1.5, 4.0, 2_400_000.0),),
        meta_controller=MetaControllerConfig())).run()
    stats = [f.stats for queue in sim.hop_queues for f in queue.core.fifos]
    return _digest(sim, stats, sim.feedbacks, sim.chain,
                   sim.meta.steps, sim.meta.adjustments)


def best_effort() -> str:
    """Started above the video share so the RED lane actually drops."""
    sim = BestEffortSimulation(BestEffortScenario(
        n_flows=4, duration=4.0, seed=27, initial_rate_bps=700_000.0)).run()
    queue = sim.video_queue
    return _digest(sim,
                   [queue.base_queue.stats, queue.enhancement_queue.stats],
                   [sim.feedback], sim.barbell)


@pytest.mark.parametrize("run, golden", [
    (single_hop,
     "ea808e52e1a3b98840889e378a13c5236bada81dc147c5fb8df77d362e9af619"),
    (two_hop,
     "f72f635423e78b63b53832e0509b8db837b58b8e740efaa151fce40e1520662f"),
    (best_effort,
     "422c4f627f572920272cfe40247a7f0edc310403f5a678de8b846199c87119e2"),
], ids=lambda arg: getattr(arg, "__name__", ""))
def test_assembly_matches_parent_digest(run, golden):
    digest = run()
    print(f"{run.__name__}: {digest}")
    assert digest == golden
