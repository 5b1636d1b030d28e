"""``live_shard_flood``: one ``RouterShard`` process under an open-loop
datagram flood.

The benchmark process sends prebuilt datagrams (8:40:16
green:yellow:red in a seeded order, 16 flow ids, ``sent_at`` patched
per send) in batches of 64 on a fixed schedule over the host's
loopback interface — not a link — and receives the forwards on a
second socket.  The shard data path (recv -> peek/classify -> enqueue
-> WRR drain -> stamp -> send) does all the work; the paced control
plane (admission, MKC, pacer) does none, so a pacer/ACK optimisation
predicts no change here.

Phases, each a sequence of one-second bursts with a ``stats()``
snapshot and a calibration loop on both sides:

``fast``       500 B datagrams into 2 Gb/s with deep buffers: nothing
               is dropped, the shard's core is not saturated.  The
               end-to-end CPU per packet comes from here.
``small``      header-only 48 B datagrams at the same rate: the
               smallest size, where per-packet cost dominates.
``congested``  the same rate into a 50 Mb/s bottleneck with
               ``green=2048, yellow=1024, red=64`` buffers: the fast
               path is left (overflow drops, strict priority, WRR
               put-back).  A fast-path gain that costs the drop path
               shows here.
``sat``        offered load far above capacity: the diagnostic ceiling
               (traced runs only; its losses are expected, not failures).

The generator is one process, one thread; it waits in ``select`` for
the next due batch and drains its receive socket meanwhile.  Sends are
timed from their due time and the generator's lateness is reported.
"""

from __future__ import annotations

import random
import select
import socket
import statistics
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pels_queue import PelsQueueConfig
from repro.live.shard import RouterShard, ShardConfig
from repro.live.wire import HEADER_SIZE, LivePacket, encode_packet
from repro.sim.packet import Color

from ..harness import (HostSpeed, Lateness, percentile, proc_peak_rss_mb,
                       tail_percentile)
from ..spans import SpanRecorder
from . import Outcome

__all__ = ["setup", "run", "teardown", "Flood", "make_batch"]

#: Colours of one 64-datagram batch before shuffling (green : yellow :
#: red).
MIX = (8, 40, 16)
FLOW_IDS = 16
DATAGRAM_BYTES = 500
#: Offered rates (datagrams/s).  ``fast`` keeps the shard's core about
#: 15 % busy on the reference host, so that a 150 ms scheduler stall of
#: either process fits in a 4 MB socket buffer instead of becoming loss
#: (at 50k pps, bad minutes of the shared host lost thousands of
#: datagrams in the kernel and pushed the median delay to 7-29 ms).
FAST_PPS = 20_000
CONGESTED_PPS = 20_000
SAT_PPS = 300_000
#: Bottleneck of the congested phase: 5/8 of what is offered.
CONGESTED_BPS = 50e6
BURST_S = 1.0
#: A generator that wakes up later than this re-anchors its schedule
#: instead of sending the overdue batches back to back: the burst a
#: stalled sender would otherwise emit is its own artefact, not load.
MAX_CATCH_UP_S = 0.010
#: Byte offsets in the wire header (see repro/live/wire.py docstring).
COLOR_OFFSET = 20
SENT_AT = struct.Struct("!d")
SENT_AT_OFFSET = 40
RX_BUFFER_BYTES = 1 << 23

FAST_QUEUE = dict(pels_weight=1.0, internet_weight=1e-6, green_buffer=4096,
                  yellow_buffer=4096, red_buffer=4096, internet_buffer=16)
#: Green deep enough (0.8 s of green traffic) that only a logic error,
#: not a stalled host, can drop the base layer.
CONGESTED_QUEUE = dict(pels_weight=1.0, internet_weight=1e-6,
                       green_buffer=2048, yellow_buffer=1024, red_buffer=64,
                       internet_buffer=16)


def make_batch(seed: int, size: int) -> List[bytearray]:
    """One batch of encoded datagrams in a seeded colour order."""
    colors = [Color.GREEN] * MIX[0] + [Color.YELLOW] * MIX[1] \
        + [Color.RED] * MIX[2]
    random.Random(seed).shuffle(colors)
    return [bytearray(encode_packet(LivePacket(
        flow_id=index % FLOW_IDS, seq=index, color=color, size=size)))
        for index, color in enumerate(colors)]


def start_shard(shard_id: int, bottleneck_bps: float,
                queue: Dict[str, float]) -> RouterShard:
    return RouterShard(ShardConfig(
        shard_id=shard_id, bottleneck_bps=bottleneck_bps,
        queue=PelsQueueConfig(**queue))).start()


@dataclass
class Burst:
    """One burst: generator-side counts, shard-side counter deltas."""

    sent: List[int]
    received: List[int]
    wall_s: float
    shard_cpu_s: float
    shard_wall_s: float
    arrivals: List[int]
    forwarded: List[int]
    drops: List[int]
    #: One-way delays of received green datagrams (seconds).
    green_delays: List[float] = field(default_factory=list)

    @property
    def cpu_us_per_pkt(self) -> float:
        """Shard-process CPU microseconds per forwarded datagram (raw;
        the run's ``HostSpeed`` scales the median)."""
        return self.shard_cpu_s / max(sum(self.forwarded), 1) * 1e6

    @property
    def util(self) -> float:
        return self.shard_cpu_s / self.shard_wall_s


class Flood:
    """The generator: one sending and one receiving UDP socket."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.rx.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF,
                           RX_BUFFER_BYTES)
        self.rx.bind(("127.0.0.1", 0))
        self.rx.setblocking(False)
        self.tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.lateness = Lateness()
        self.speed = HostSpeed()
        self.buffer = bytearray(2048)

    @property
    def rx_addr(self) -> Tuple[str, int]:
        return self.rx.getsockname()

    def close(self) -> None:
        self.rx.close()
        self.tx.close()

    def drain(self, received: List[int], delays: Optional[List[float]],
              limit: int = 1 << 30) -> int:
        """Read up to ``limit`` pending forwards; returns how many."""
        recv_into, buffer = self.rx.recv_into, self.buffer
        clock = time.perf_counter
        count = 0
        try:
            while count < limit:
                recv_into(buffer)
                color = buffer[COLOR_OFFSET]
                received[color] += 1
                if delays is not None and color == 0:
                    delays.append(
                        clock() - SENT_AT.unpack_from(
                            buffer, SENT_AT_OFFSET)[0])
                count += 1
        except BlockingIOError:
            pass
        return count

    def burst(self, shard: RouterShard, batch: Sequence[bytearray],
              pps: float, seconds: float,
              sample_delays: bool = False) -> Burst:
        """Send ``batch`` repeatedly at ``pps`` for ``seconds``."""
        clock = time.perf_counter
        stamp = SENT_AT.pack_into
        sendto, addr = self.tx.sendto, shard.addr
        per_batch = [0, 0, 0, 0]
        for datagram in batch:
            per_batch[datagram[COLOR_OFFSET]] += 1
        received = [0, 0, 0, 0]
        delays: Optional[List[float]] = [] if sample_delays else None
        rx = [self.rx]
        interval = len(batch) / pps
        batches = int(pps * seconds / len(batch))

        self.speed.sample(2)
        before = shard.stats()
        started = clock()
        for index in range(batches):
            due = started + index * interval
            now = clock()
            while now < due:
                if select.select(rx, (), (), due - now)[0]:
                    self.drain(received, delays, limit=256)
                now = clock()
            if self.lateness.note(due, now) > MAX_CATCH_UP_S:
                started += now - due
            for datagram in batch:
                stamp(datagram, SENT_AT_OFFSET, clock())
                sendto(datagram, addr)
            self.drain(received, delays, limit=256)
        wall = clock() - started
        # Let the shard's queues and the loopback drain: stop once the
        # receive socket has been quiet for 50 ms.
        sent_total = batches * len(batch)
        quiet_until = clock() + 0.5
        while sum(received) < sent_total and clock() < quiet_until:
            if select.select(rx, (), (), 0.05)[0]:
                if self.drain(received, delays):
                    quiet_until = max(quiet_until, clock() + 0.05)
            else:
                break
        after = shard.stats()
        self.speed.sample(2)
        return Burst(
            sent=[count * batches for count in per_batch],
            received=received, wall_s=wall,
            shard_cpu_s=after.cpu_seconds - before.cpu_seconds,
            shard_wall_s=after.wall_seconds - before.wall_seconds,
            arrivals=delta(after.arrivals, before.arrivals),
            forwarded=delta(after.forwarded, before.forwarded),
            drops=delta(after.drops, before.drops),
            green_delays=delays or [])


def delta(after: Sequence[int], before: Sequence[int]) -> List[int]:
    return [a - b for a, b in zip(after, before)]


@dataclass
class Context:
    flood: Flood
    fast_shard: RouterShard
    batch: List[bytearray]
    started: List[RouterShard] = field(default_factory=list)


def setup(workload: str, seed: int) -> Context:
    shard = start_shard(1, 2e9, FAST_QUEUE)
    flood = Flood(seed)
    shard.set_default_route(flood.rx_addr)
    return Context(flood, shard, make_batch(seed, DATAGRAM_BYTES), [shard])


def teardown(ctx: Context) -> None:
    for shard in ctx.started:
        shard.stop()
    ctx.started.clear()
    ctx.flood.close()


def lost(bursts: Sequence[Burst], colors: Sequence[int]) -> Tuple[int, int]:
    """(attempted, failed) datagrams of ``colors`` over ``bursts``.

    An operation is a datagram the shard read from its socket; it
    fails when the receiver never sees it.  Datagrams the kernel
    dropped before the shard (a full socket buffer during a host
    stall) are reported beside the rows and lower ``work_per_s``."""
    attempted = sum(b.arrivals[c] for b in bursts for c in colors)
    delivered = sum(b.received[c] for b in bursts for c in colors)
    return attempted, attempted - delivered


def kernel_loss(bursts: Sequence[Burst]) -> int:
    return sum(sum(b.sent) - sum(b.arrivals) for b in bursts)


def congested_phase(ctx: Context, seconds: float, recorder: SpanRecorder,
                    outcome: Outcome) -> Tuple[Burst, float]:
    """Run the congested phase on a shard of its own; returns the
    burst and the shard's start time in ms."""
    started = time.perf_counter()
    with recorder.span("live.shard.start"):
        shard = start_shard(2, CONGESTED_BPS, CONGESTED_QUEUE)
    start_ms = (time.perf_counter() - started) * 1e3
    ctx.started.append(shard)
    shard.set_default_route(ctx.flood.rx_addr)
    with recorder.span("ledger.flood.congested"):
        burst = ctx.flood.burst(shard, ctx.batch, CONGESTED_PPS, seconds,
                                sample_delays=True)
    shard.stop()
    ctx.started.remove(shard)
    loss = [1.0 - burst.received[c] / burst.sent[c] for c in (0, 1, 2)]
    problems = []
    if burst.drops[0] != 0:
        problems.append(f"{burst.drops[0]} green drops")
    if not loss[2] >= loss[1] >= loss[0]:
        problems.append(f"loss order green/yellow/red = {loss}")
    if problems:
        outcome.failed += 1
        outcome.notes.append("GATE FAILED congested: " + "; ".join(problems))
    outcome.notes.append(
        f"congested: {CONGESTED_PPS} pps offered into "
        f"{CONGESTED_BPS / 1e6:g} Mb/s, loss "
        f"g/y/r = {loss[0]:.4f}/{loss[1]:.4f}/{loss[2]:.4f}, "
        f"shard util {burst.util:.2f}")
    return burst, start_ms


def run(ctx: Context, seconds: float, seed: int, traced: bool) -> Outcome:
    outcome = Outcome()
    flood = ctx.flood
    recorder = SpanRecorder()
    small_batch = make_batch(seed, HEADER_SIZE)
    # Untraced: fast + congested carry the end-to-end metrics.  Traced:
    # all four phases, shorter, under spans.
    n_fast = max(4, round(seconds * (0.4 if traced else 0.55)))
    fast: List[Burst] = []
    spanned: List[Burst] = []
    for index in range(n_fast):
        if traced and index % 2:
            with recorder.span("ledger.flood.fast"):
                spanned.append(flood.burst(ctx.fast_shard, ctx.batch,
                                           FAST_PPS, BURST_S))
        else:
            fast.append(flood.burst(ctx.fast_shard, ctx.batch, FAST_PPS,
                                    BURST_S, sample_delays=True))
    small: List[Burst] = []
    sat: List[Burst] = []
    if traced:
        for _ in range(2):
            with recorder.span("ledger.flood.small"):
                small.append(flood.burst(ctx.fast_shard, small_batch,
                                         FAST_PPS, BURST_S))
    congested, start_ms = congested_phase(
        ctx, seconds * (0.2 if traced else 0.3), recorder, outcome)
    if traced:
        for _ in range(2):
            with recorder.span("ledger.flood.sat"):
                sat.append(flood.burst(ctx.fast_shard, ctx.batch, SAT_PPS,
                                       BURST_S))
        # Let the saturated shard and loopback settle before stats RTTs.
        time.sleep(0.2)
        flood.drain([0, 0, 0, 0], None)

    attempted, failed = lost(fast + spanned + small, (0, 1, 2))
    green_attempted, green_failed = lost([congested], (0,))
    outcome.attempted = attempted + green_attempted
    outcome.failed += failed + green_failed
    if failed or green_failed:
        outcome.notes.append(
            f"GATE FAILED: {failed} fast/small datagrams and "
            f"{green_failed} congested green datagrams reached the shard "
            f"but not the receiver")

    util = sum(b.shard_cpu_s for b in fast) / sum(b.shard_wall_s
                                                  for b in fast)
    delays_ms = [d * 1e3 for d in congested.green_delays]
    tail_label, tail_value = tail_percentile(delays_ms)
    outcome.notes.append(
        f"fast: {FAST_PPS} pps offered, live.shard.util {util:.2f} "
        f"(core not saturated); generator late by at most "
        f"{flood.lateness.max_s * 1e3:.2f} ms; "
        f"{kernel_loss(fast + spanned + small)} datagrams lost in the "
        f"kernel before the shard")
    outcome.notes.append(
        f"congested green one-way delay {tail_label} = {tail_value:.3f} ms "
        f"over {len(delays_ms)} datagrams")

    # One scale for the run's CPU rows: the mean of the calibrations
    # taken on both sides of every burst (see harness.HostSpeed).
    scale = flood.speed.scale
    outcome.raw = {"cpu_us_per_pkt": statistics.median(b.cpu_us_per_pkt
                                              for b in fast),
                   "cal_s": flood.speed.cal_s}
    if not traced:
        outcome.samples = {
            "work_per_s": [sum(b.received) / b.wall_s for b in fast],
            # A stalled host only ever lengthens a one-way delay, so
            # the least disturbed burst speaks for the run.
            "latency_ms_p50": [min(percentile(b.green_delays, 0.5)
                                   for b in fast) * 1e3],
            # The fast shard: forked before this process calibrated,
            # so without the calibration's working set.
            "peak_rss_mb": [proc_peak_rss_mb(ctx.fast_shard.pid)],
        }
        return outcome

    rtts: List[float] = []
    for _ in range(20):
        with recorder.span("live.shard.stats"):
            t0 = time.perf_counter()
            ctx.fast_shard.stats()
            rtts.append((time.perf_counter() - t0) * 1e3)
    sat_sent = sum(sum(b.sent) for b in sat)
    sat_arrived = sum(sum(b.arrivals) for b in sat)
    fast_cpu = statistics.median(b.cpu_us_per_pkt for b in fast)
    outcome.layers = {
        "live.shard.util": util,
        "live.shard.fast_cpu_us_per_pkt": fast_cpu * scale,
        "live.shard.small_cpu_us_per_pkt":
            statistics.median(b.cpu_us_per_pkt for b in small) * scale,
        "live.shard.congested_cpu_us_per_pkt":
            congested.cpu_us_per_pkt * scale,
        "live.shard.sat_pps":
            sum(sum(b.forwarded) for b in sat) / sum(b.wall_s for b in sat),
        "live.shard.kernel_loss_share":
            (sat_sent - sat_arrived) / sat_sent,
        "live.router.drops_green": congested.drops[0],
        "live.router.drops_yellow": congested.drops[1],
        "live.router.drops_red": congested.drops[2],
        "live.router.green_delay_ms_p50": percentile(delays_ms, 0.5),
        "live.router.green_delay_ms_tail": tail_value,
        "live.shard.start_ms": start_ms,
        "live.shard.stats_rtt_ms": sorted(rtts)[len(rtts) // 2],
        "ledger.flood_gen_late_ms_max": flood.lateness.max_s * 1e3,
        # Alternate bursts ran under a span: spans around whole phases
        # cost nothing, so this reads as the burst-to-burst noise.
        "ledger.trace_overhead_share":
            statistics.median(b.cpu_us_per_pkt for b in spanned)
            / fast_cpu - 1.0,
    }
    outcome.derive = loop_syscall_share
    outcome.recorder = recorder
    return outcome


def loop_syscall_share(values: Dict[str, float]) -> Dict[str, float]:
    """What neither the ingest nor the service probe explains of the
    shard's CPU per packet: recvfrom / sendto / event loop."""
    explained_us = (values["live.router.ingest_ns"]
                    + values["live.router.service_ns"]) / 1e3
    return {"live.shard.loop_syscall_share":
            1.0 - explained_us / values["live.shard.fast_cpu_us_per_pkt"]}
