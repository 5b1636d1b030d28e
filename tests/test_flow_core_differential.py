"""One PELS flow endpoint, two drivers: the differential that fences it.

Sender.  A generated script — FGS geometry, Eq. 8 and Eq. 4 gains, a
watchdog setting, and a timeline of label arrivals (duplicates, stale
epochs, router-id switches), silences on both sides of the timeout and
stop/rejoin churn — is executed by

(a) the reference: ``PelsSource`` as it stood before ``core/flow.py``
    existed (``tests/frozen_source.py``), on a bare ``Simulator``;
(b) today's ``PelsSource`` (the simulator's driver of ``FlowSender``),
    which must match (a) in *everything*, emission times included;
(c) ``LiveServer`` (the wall-clock driver) under a ``ManualClock`` with
    a capturing transport, stepped through its public ``advance`` and
    ``datagram_received`` — which must plan the same frames, walk the
    same rate/gamma trajectory label by label and make the same
    blind -> decay -> recover transitions.

What legitimately differs is pacing (gap events vs byte credit), so
(c) is given ample credit: it always emits the whole plan, and its
``frame_log`` is compared with the simulator's on every frame the
simulator finished before its deadline — on the others the simulator's
counts must be a truncation of it.

Receiver.  One generated packet stream into ``PelsSink`` and
``LiveClient`` must leave equal ``FrameReception``s, counters and delay
probes, and the single join ``frame_receptions`` must equal the join
``PelsSimulation`` used to carry, on a recorded run.

Zero sleeps, no sockets.  Tier-1 runs Hypothesis' default example
count; CI reruns the file with ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from frozen_source import FrozenPelsSource
from hypothesis import given
from hypothesis import strategies as st

from repro.cc.mkc import MkcController
from repro.core.clock import ManualClock
from repro.core.colors import PelsMarkingPolicy
from repro.core.flow import frame_receptions
from repro.core.gamma import GammaController
from repro.core.session import PelsScenario, PelsSimulation
from repro.core.sink import PelsSink
from repro.core.source import PelsSource
from repro.live.client import LiveClient
from repro.live.server import LiveServer
from repro.live.wire import LivePacket, decode_packet, encode_packet
from repro.obs.trace import Tracer, tracing
from repro.sim.engine import Simulator
from repro.sim.node import Host
from repro.sim.packet import Color, FeedbackLabel, Packet
from repro.video.decoder import FrameReception
from repro.video.fgs import FgsConfig

ADDR = ("127.0.0.1", 9)


# -- the script ---------------------------------------------------------------

@dataclass
class Script:
    fgs: FgsConfig
    controller: dict
    gamma: dict
    feedback_timeout: Optional[float]
    blind_backoff: float
    start: float
    #: ``(dt, op)``: ``dt`` seconds after the previous op, do ``op`` —
    #: ``("label", router_id, epoch jitter, loss)``, ``("quiet",)``,
    #: ``("stop",)`` or ``("rejoin", rate_bps | None)``.
    ops: List[Tuple[float, tuple]] = field(default_factory=list)

    def timeline(self) -> List[Tuple[float, tuple]]:
        """Absolute times and epochs.  A label's epoch is the count of
        labels before it plus its jitter, so most are fresh, some are
        duplicates and some stale.  Churn ops that make no sense are
        dropped (stop while stopped, rejoin while running — or rejoin
        before the stopped frame clock's last pending event has fired,
        which would start a second frame clock in the simulator)."""
        out, now, stopped_at, epoch = [], 0.0, None, 0
        for dt, op in self.ops:
            now += dt
            if op[0] == "label":
                epoch += 1
                op = ("label", op[1], max(0, epoch + op[2]), op[3])
            elif op[0] == "stop":
                if stopped_at is not None or now < self.start:
                    continue
                stopped_at = now
            elif op[0] == "rejoin":
                if stopped_at is None or \
                        now <= stopped_at + 1.01 * self.fgs.frame_interval:
                    continue
                stopped_at = None
            out.append((now, op))
        return out


intervals = st.sampled_from([0.25, 0.5, 0.65625])
geometries = st.builds(
    lambda size, frame, green, interval: FgsConfig(
        packet_size=size, frame_packets=frame,
        green_packets=min(green, frame), frame_interval=interval),
    # At most 8 packets per frame: one capped top-up of the live pacer
    # (8 packets of credit) then covers any plan.
    st.integers(100, 500), st.integers(1, 8), st.integers(0, 3), intervals)

labels = st.tuples(st.just("label"), st.sampled_from([1, 1, 1, 1, 2, 3]),
                   st.sampled_from([0, 0, 0, 1, -1, -2, -2, -4]),
                   st.floats(0.0, 0.999))
ops = st.one_of(labels, labels, labels, st.just(("quiet",)),
                st.just(("stop",)),
                st.tuples(st.just("rejoin"),
                          st.one_of(st.none(), st.floats(8e3, 2e5))))
#: Gaps straddle every timeout on offer: most are a fraction of a frame,
#: some are several frames of silence.
gaps = st.one_of(st.floats(0.001, 0.3), st.floats(0.001, 0.3),
                 st.floats(0.3, 2.5))


@st.composite
def scripts(draw) -> Script:
    fgs = draw(geometries)
    return Script(
        fgs=fgs,
        controller={
            "alpha_bps": draw(st.floats(500.0, 40_000.0)),
            "beta": draw(st.floats(0.1, 0.9)),
            "feedback_delay": draw(st.sampled_from([0.0, 0.05, 0.4])),
            "initial_rate_bps": draw(st.floats(8_000.0, 200_000.0)),
            "min_rate_bps": 4_000.0, "max_rate_bps": 400_000.0},
        gamma={"sigma": draw(st.floats(0.1, 1.5)),
               "p_thr": draw(st.floats(0.3, 0.95)),
               "gamma0": draw(st.floats(0.05, 0.95))},
        feedback_timeout=draw(st.one_of(st.none(), st.floats(0.2, 1.5))),
        blind_backoff=draw(st.floats(0.5, 1.0)),
        start=draw(st.sampled_from([0.0, 0.1])),
        ops=draw(st.lists(st.tuples(gaps, ops), min_size=6, max_size=40)))


# -- what a run leaves behind -------------------------------------------------

class RecordingPolicy(PelsMarkingPolicy):
    """The standard marking, remembering every frame it planned."""

    def __init__(self, config: FgsConfig) -> None:
        super().__init__(config)
        self.planned = []

    def plan(self, rate_bps, gamma):
        plan = super().plan(rate_bps, gamma)
        self.planned.append((rate_bps, gamma, plan))
        return plan


def sender_state(sender, tracer: Tracer, policy: RecordingPolicy) -> dict:
    tracker = sender.tracker
    return {
        "planned": policy.planned,
        "trace": [event for event in tracer.events
                  if event[1] in ("rate", "gamma", "blind")],
        "loss": list(sender.loss_series),
        "watchdog": (sender.blind, sender.blind_intervals,
                     sender.rate_freezes, sender.recoveries),
        "tracker": (tracker.router_id, tracker.epoch, tracker.accepted,
                    tracker.rejected, tracker.stale_discarded),
        "frames": (sender.frame_id, sender.frames_sent),
        "rate": sender.rate_bps, "gamma": sender.gamma,
    }


class CapturingHost:
    """Duck-typed ``Host``: keeps what the source sends."""

    node_id = 1

    def __init__(self) -> None:
        self.sent = []

    def attach_agent(self, agent, flow_id) -> None:
        pass

    def send(self, packet: Packet) -> None:
        self.sent.append((packet.created_at, packet.seq, packet.color,
                          packet.frame_id, packet.index_in_frame,
                          packet.size))


def run_simulator(source_cls, script: Script, end: float) -> dict:
    host = CapturingHost()
    policy = RecordingPolicy(script.fgs)
    with tracing(Tracer()) as tracer:
        sim = Simulator(seed=1)
        source = source_cls(
            sim, host, host, flow_id=0,
            controller=MkcController(**script.controller),
            gamma_controller=GammaController(**script.gamma),
            fgs_config=script.fgs, marking_policy=policy,
            start_time=script.start,
            feedback_timeout=script.feedback_timeout,
            blind_backoff=script.blind_backoff)
    for at, op in script.timeline():
        sim.run(until=at)  # frame boundaries at ``at`` come first
        if op[0] == "label":
            source.receive(Packet(flow_id=0, size=40, is_ack=True,
                                  feedback=FeedbackLabel(*op[1:])))
        elif op[0] == "stop":
            source.stop()
        elif op[0] == "rejoin":
            source.restart(op[1])
    sim.run(until=end)
    source.stop()
    state = sender_state(source, tracer, policy)
    state.update(sent=host.sent, frame_log=source.frame_log,
                 rate_series=list(source.rate_series),
                 gamma_series=list(source.gamma_series),
                 counters=(source.next_seq, source.packets_sent,
                           source.bytes_sent))
    return state


class CapturingTransport:
    def __init__(self) -> None:
        self.sent = []

    def sendto(self, data, addr) -> None:
        self.sent.append(decode_packet(data))


def run_live(script: Script, frame_times: List[float], end: float) -> dict:
    """The same script through ``LiveServer``, stepped at the frame
    instants the simulator's frame clock produced (its own deadline
    arithmetic must agree that a frame is due at each of them)."""
    clock = ManualClock()
    policy = RecordingPolicy(script.fgs)
    with tracing(Tracer()) as tracer:
        server = LiveServer(
            clock, 1, controller_kwargs=script.controller,
            gamma_kwargs=script.gamma, fgs=script.fgs,
            feedback_timeout=script.feedback_timeout or 0.0,
            blind_backoff=script.blind_backoff)
    server.connection_made(CapturingTransport())
    server.dst_addr = ADDR
    flow = server.flows[0]
    flow.marking_policy = policy
    cap = 8.0 * script.fgs.packet_size
    # Frames before ops at equal times, as ``sim.run(until=at)`` does.
    steps = sorted([(at, 0, ("frame",)) for at in frame_times]
                   + [(at, 1, op) for at, op in script.timeline()],
                   key=lambda step: step[:2])
    for at, _, op in steps:
        clock.now = at
        if op[0] == "frame":
            frames = flow.frames_sent
            server.advance(at)
            assert flow.frames_sent == frames + 1, "no frame was due"
            flow.credit = cap  # ample credit: the rest of the plan, now
            server.advance(at)
            assert flow.pos == len(flow.plan)
        elif op[0] == "label":
            server.datagram_received(encode_packet(LivePacket(
                flow_id=0, seq=0, is_ack=True, router_id=op[1], epoch=op[2],
                loss=op[3], sent_at=at)), ADDR)
        elif op[0] == "stop":
            server.retire_flow(0)
        elif op[0] == "rejoin":
            # LiveServer has no un-retire verb (no live caller churns a
            # flow back in); do by hand what PelsSource.restart does.
            flow.rejoin(at, op[1])
            server.slots[0].append(flow)
            flow.deadline = at
            server.advance(at)
            flow.credit = cap
            server.advance(at)
    clock.now = end
    server.advance(end)
    server.retire_flow(0)
    state = sender_state(flow, tracer, policy)
    state.update(sent=server.transport.sent, frame_log=flow.frame_log,
                 rate_series=list(flow.rate_series),
                 gamma_series=list(flow.gamma_series),
                 counters=(flow.next_seq, flow.packets_sent,
                           flow.bytes_sent),
                 malformed=server.malformed_acks)
    return state


SHARED = ("planned", "trace", "loss", "watchdog", "tracker", "frames",
          "rate", "gamma")


@given(script=scripts())
def test_sender_core_under_both_drivers(script):
    timeline = script.timeline()
    end = max([script.start] + [at for at, _ in timeline]) \
        + 1.5 * script.fgs.frame_interval
    reference = run_simulator(FrozenPelsSource, script, end)
    simulated = run_simulator(PelsSource, script, end)
    assert simulated == reference

    # A rejoin begins its frame itself; every other frame instant is
    # one the live pacer must find due on its own.
    rejoins = {at for at, op in timeline if op[0] == "rejoin"}
    frame_times = [at for at, _ in reference["rate_series"]
                   if at not in rejoins]
    live = run_live(script, frame_times, end)
    assert live["malformed"] == 0
    for key in SHARED:
        assert live[key] == reference[key], key

    # Ample credit: the live log is the plan, frame by frame; the
    # simulator's is the same wherever it beat the deadline, and a
    # truncation of it (red-most tail first) wherever it did not.
    assert len(live["frame_log"]) == len(reference["frame_log"]) \
        == len(reference["planned"])
    for frame_id, (_, _, plan) in enumerate(reference["planned"]):
        counts = tuple(sum(item.color is color for item in plan)
                       for color in (Color.GREEN, Color.YELLOW, Color.RED))
        assert live["frame_log"][frame_id] == counts
        sent = reference["frame_log"][frame_id]
        if sum(sent) == len(plan):
            assert sent == counts
        else:
            emitted = plan[:sum(sent)]
            assert sent == tuple(sum(item.color is color for item in emitted)
                                 for color in (Color.GREEN, Color.YELLOW,
                                               Color.RED))
    assert [(p.seq, p.color, p.frame_id, p.index_in_frame, p.size)
            for p in live["sent"]] == [
        (seq, item.color, frame_id, item.index_in_frame, item.size)
        for seq, (frame_id, item) in enumerate(
            (frame_id, item)
            for frame_id, (_, _, plan) in enumerate(reference["planned"])
            for item in plan)]
    assert live["counters"] == (len(live["sent"]), len(live["sent"]),
                                sum(p.size for p in live["sent"]))

    # The live series carry one extra sample per accepted label (the
    # simulator's stay per frame): frame samples and label samples,
    # merged in time order.
    for series, event_type, value in (("rate_series", "rate", "rate_bps"),
                                      ("gamma_series", "gamma", "gamma")):
        frames = [(at, 0, v) for at, v in reference[series]]
        accepted = [(t, 1, fields[value])
                    for t, type_, fields in reference["trace"]
                    if type_ == event_type]
        assert live[series] == [(at, v) for at, _, v in sorted(
            frames + accepted, key=lambda sample: sample[:2])]


# -- receiver -----------------------------------------------------------------

#: One arriving packet: color, frame, index in frame, size, transit time.
arrivals = st.lists(
    st.tuples(st.sampled_from([Color.GREEN, Color.YELLOW, Color.RED]),
              st.integers(0, 5), st.integers(0, 11), st.integers(48, 600),
              st.floats(0.0, 0.2)),
    max_size=60)


@given(stream=arrivals, green_packets=st.integers(0, 4),
       stride=st.sampled_from([0, 1, 3]))
def test_receiver_core_under_both_drivers(stream, green_packets, stride):
    sim = Simulator(seed=1)
    sink = PelsSink(sim, Host(sim, "b"), flow_id=0,
                    green_packets=green_packets,
                    delay_series_stride=stride)
    clock = ManualClock()
    client = LiveClient(clock, green_packets=green_packets,
                        delay_series_stride=stride)
    now = 0.0
    for seq, (color, frame_id, index, size, transit) in enumerate(stream):
        now += 0.01
        sim.run(until=now)
        clock.now = now
        sink.receive(Packet(flow_id=0, size=size, color=color, seq=seq,
                            frame_id=frame_id, index_in_frame=index,
                            created_at=now - transit))
        client.datagram_received(encode_packet(LivePacket(
            flow_id=0, seq=seq, color=color, frame_id=frame_id,
            index_in_frame=index, sent_at=now - transit, size=size)), ADDR)
    receiver = client.flow(0)
    assert receiver.frames == sink.frames
    assert (receiver.packets_received, receiver.bytes_received) == \
        (sink.packets_received, sink.bytes_received) == \
        (len(stream), sum(size for _, _, _, size, _ in stream))
    for color in (Color.GREEN, Color.YELLOW, Color.RED):
        live_probe = receiver.delay_probes[color]
        sim_probe = sink.delay_probes[color]
        assert (live_probe.count, live_probe.max) == \
            (sim_probe.count, sim_probe.max)
        if sim_probe.count:  # an empty probe's mean is NaN
            assert live_probe.mean == sim_probe.mean
        assert list(live_probe.series) == list(sim_probe.series)


def parent_join(source, sink) -> List[FrameReception]:
    """``PelsSimulation.frame_receptions`` as it stood at ee0182d."""
    receptions = []
    for frame_id in range(max(source.frame_id, 0)):
        green, yellow, red = source.frame_log.get(frame_id, (0, 0, 0))
        reception = sink.frames.get(frame_id)
        if reception is None:
            reception = FrameReception(frame_id=frame_id)
        reception.green_sent = green
        reception.enhancement_sent = yellow + red
        receptions.append(reception)
    return receptions


def test_the_single_join_equals_the_parents_on_a_recorded_run():
    run = PelsSimulation(PelsScenario(n_flows=3, duration=6.0, seed=5)).run()
    for flow, (source, sink) in enumerate(zip(run.sources, run.sinks)):
        expected = [(r.frame_id, r.green_sent, r.enhancement_sent,
                     r.green_received, set(r.enhancement_received))
                    for r in parent_join(source, sink)]
        assert len(expected) >= 5 and any(e[2] for e in expected)
        for joined in (frame_receptions(source, sink),
                       run.frame_receptions(flow)):
            assert [(r.frame_id, r.green_sent, r.enhancement_sent,
                     r.green_received, set(r.enhancement_received))
                    for r in joined] == expected
    # A stopped sender's last frame is finalised, so it joins too (the
    # parent's join dropped it; the live reports lost a frame that way).
    source, sink = run.sources[0], run.sinks[0]
    source.stop()
    joined = frame_receptions(source, sink)
    assert len(joined) == len(parent_join(source, sink)) + 1
    assert joined[-1].frame_id == source.frame_id
    assert joined[-1].green_sent + joined[-1].enhancement_sent == \
        sum(source.frame_log[source.frame_id])
