"""Live gateway hot-path throughput: the per-shard pkts/s claim.

Four bars ride here, each a floor or a ratio measured on one host, so
each holds on any host:

* the router's synchronous datagram path (ingest -> classify -> WRR
  drain -> forward) must sustain >= 10,000 pkts/s single-threaded —
  this is the per-shard capacity the L2 capacity planning assumes;
* a real shard process (UDP in, UDP out, selector loop, feedback
  epochs) must carry >= 10,000 pkts/s over loopback;
* gateway admission must run >= 10,000 registrations/s, so admitting
  the L2 populations is control-plane noise, not load;
* supervision must stay off the hot path: the same router loop with
  heartbeat/stats/shed servicing interleaved far denser than the
  supervisor's real poll cadence costs <= 5% over the bare loop.

The rates themselves are the perf ledger's ``live.*`` rows.
"""

from __future__ import annotations

import socket
import time

from repro.core.clock import ManualClock
from repro.core.pels_queue import PelsQueueConfig
from repro.live.gateway import LiveGateway, TenantPolicy
from repro.live.router import LiveRouter
from repro.live.shard import RouterShard, ShardConfig, _snapshot
from repro.live.wire import LivePacket, encode_packet
from repro.sim.packet import Color

#: The per-shard floor the L2 experiment's capacity planning assumes.
PKTS_PER_SEC_FLOOR = 10_000.0


class _CountingTransport:
    __slots__ = ("sent",)

    def __init__(self) -> None:
        self.sent = 0

    def sendto(self, data, addr) -> None:
        self.sent += 1


def _datagram_cycle(n: int = 64, size: int = 250) -> list:
    """A working set of encoded datagrams, colors in FGS proportions."""
    colors = [Color.GREEN] * 8 + [Color.YELLOW] * 40 + [Color.RED] * 16
    return [encode_packet(LivePacket(flow_id=i % 16, seq=i,
                                     color=colors[i % len(colors)],
                                     sent_at=0.0, size=size))
            for i in range(n)]


def test_bench_router_hot_path():
    """Synchronous ingest+drain loop, no sockets: the shard's core."""
    batch = 64
    n_packets = batch * 800
    cycle = _datagram_cycle(batch)
    clock = ManualClock()
    router = LiveRouter(clock, bottleneck_bps=1e9,
                        config=PelsQueueConfig(pels_weight=1.0,
                                               internet_weight=1e-6,
                                               green_buffer=256,
                                               yellow_buffer=512,
                                               red_buffer=256,
                                               internet_buffer=16),
                        recv_batch=batch)
    router.transport = _CountingTransport()
    router.dst_addr = ("127.0.0.1", 9)

    def run() -> float:
        ingest = router._ingest
        drain = router._drain
        t0 = time.perf_counter()
        for _ in range(n_packets // batch):
            for data in cycle:
                ingest(data)
            clock.advance(0.002)
            drain(1e9)  # credit covers the whole batch
        return time.perf_counter() - t0

    elapsed = run()
    assert router.transport.sent == n_packets
    assert router.drops == [0, 0, 0, 0]
    rate = n_packets / elapsed
    assert rate >= PKTS_PER_SEC_FLOOR, (
        f"router hot path at {rate:.0f} pkts/s "
        f"(floor {PKTS_PER_SEC_FLOOR:.0f})")


def test_bench_shard_loopback():
    """One shard process end to end: UDP in, forwarded UDP out.

    The sender paces lightly (a yield per batch) so the loopback buffer
    never overflows — which also makes the figure generator-bound: it
    is the rate this single-threaded sender offers (~60k pkts/s), a
    floor check, not the shard's ceiling.  The shard's service rate is
    the perf ledger's ``live.shard.sat_pps`` row (``perfledger/run.py
    --workload live_shard_flood --trace 1``, 125-160k pkts/s).
    """
    n_packets = 20_000
    batch = 200
    cycle = _datagram_cycle(batch)
    shard = RouterShard(ShardConfig(
        shard_id=1, bottleneck_bps=400_000_000.0,
        queue=PelsQueueConfig(pels_weight=1.0, internet_weight=1e-6,
                              green_buffer=2048, yellow_buffer=4096,
                              red_buffer=2048, internet_buffer=16)))
    receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    receiver.bind(("127.0.0.1", 0))
    receiver.setblocking(False)
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

    def run() -> float:
        shard.start()
        shard.set_default_route(receiver.getsockname())
        addr = shard.addr
        sendto = sender.sendto
        t0 = time.perf_counter()
        for _ in range(n_packets // batch):
            for data in cycle:
                sendto(data, addr)
            time.sleep(0.002)  # ~100k pkts/s offered, well above the bar
        deadline = time.time() + 5.0
        while time.time() < deadline:
            stats = shard.stats()
            if stats.total_forwarded + sum(stats.drops) >= n_packets:
                break
            time.sleep(0.05)
        return time.perf_counter() - t0

    try:
        elapsed = run()
        final = shard.stop()
    finally:
        shard.stop()
        sender.close()
        receiver.close()
    assert final is not None
    rate = final.total_forwarded / elapsed
    assert rate >= PKTS_PER_SEC_FLOOR, (
        f"shard forwarded {final.total_forwarded}/{n_packets} in "
        f"{elapsed:.2f}s = {rate:.0f} pkts/s "
        f"(floor {PKTS_PER_SEC_FLOOR:.0f})")


class _FakeShard:
    __slots__ = ("shard_id", "capacity_bps", "addr")

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.capacity_bps = 1e12
        self.addr = ("127.0.0.1", 40_000 + shard_id)

    def install_route(self, flow_id, addr) -> None:
        pass

    def remove_route(self, flow_id) -> None:
        pass


def test_bench_gateway_admission():
    """Pure admission decisions (no pipe sends): registrations/s."""
    n_flows = 20_000
    gateway = LiveGateway(
        ManualClock(), [_FakeShard(i + 1) for i in range(4)],
        default_policy=TenantPolicy(max_flows=n_flows,
                                    registration_rate=1e9,
                                    registration_burst=n_flows))
    client = ("127.0.0.1", 5555)

    def run() -> float:
        register = gateway.register
        t0 = time.perf_counter()
        for key in range(n_flows):
            register(f"tenant-{key % 8}", key, client)
        return time.perf_counter() - t0

    elapsed = run()
    assert gateway.admitted == n_flows
    rate = n_flows / elapsed
    assert rate >= PKTS_PER_SEC_FLOOR, (
        f"gateway admission at {rate:.0f} flows/s "
        f"(floor {PKTS_PER_SEC_FLOOR:.0f})")


#: Ceiling on supervision's hot-path cost relative to the bare loop.
SUPERVISION_OVERHEAD_CEILING = 0.05


def _hot_path_router(batch: int) -> LiveRouter:
    router = LiveRouter(ManualClock(), bottleneck_bps=1e9,
                        config=PelsQueueConfig(pels_weight=1.0,
                                               internet_weight=1e-6,
                                               green_buffer=256,
                                               yellow_buffer=512,
                                               red_buffer=256,
                                               internet_buffer=16),
                        recv_batch=batch)
    router.transport = _CountingTransport()
    router.dst_addr = ("127.0.0.1", 9)
    return router


def test_bench_supervised_router_hot_path():
    """The hot path with supervision verbs serviced inline.

    A supervised shard answers heartbeat pings, ships stats snapshots
    and applies shed-level commands between datagram batches.  The real
    cadence is one poll per ``SupervisorConfig.poll_interval`` (0.25 s,
    ~125 batch ticks); here every 10th batch services a full heartbeat
    (snapshot build + shed write), 12.5x denser, and the paired
    best-of-3 overhead versus the bare loop must stay <= 5%.  The pipe
    hop itself is exercised end to end by the --live chaos tests.
    """
    batch = 64
    total_ticks = 800
    n_packets = batch * total_ticks
    service_every = 10
    ticks_per_slice = 20
    cycle = _datagram_cycle(batch)
    shard_config = ShardConfig(shard_id=1, bottleneck_bps=1e9)
    router = _hot_path_router(batch)
    started = time.monotonic()

    def loop(service: bool, ticks: int = total_ticks) -> float:
        ingest = router._ingest
        drain = router._drain
        clock = router.clock
        t0 = time.perf_counter()
        for tick in range(ticks):
            for data in cycle:
                ingest(data)
            clock.advance(0.002)
            drain(1e9)
            if service and tick % service_every == 0:
                router.set_shed_level(0)
                _snapshot(router, shard_config, port=50_001,
                          started=started)
        return time.perf_counter() - t0

    def paired_overhead() -> tuple:
        # Pair bare/supervised in short back-to-back slices with a
        # best-of-3 per slice: a background CPU burst on a small host
        # hits one rep of one slice and is discarded by the min, while
        # slow clock drift lands on both sides of each pair.
        bare = supervised = 0.0
        for _ in range(total_ticks // ticks_per_slice):
            bare += min(loop(False, ticks_per_slice) for _ in range(3))
            supervised += min(loop(True, ticks_per_slice)
                              for _ in range(3))
        return supervised / bare - 1.0, bare, supervised

    loop(service=True)  # warm caches before pairing
    overhead, bare, supervised = paired_overhead()
    if overhead > SUPERVISION_OVERHEAD_CEILING:
        # One re-measure before failing: a shared runner can land a
        # burst on every supervised slice of a single pass.
        overhead, bare, supervised = paired_overhead()
    assert overhead <= SUPERVISION_OVERHEAD_CEILING, (
        f"supervision added {overhead:+.1%} to the hot path "
        f"(bare {bare:.3f}s, supervised {supervised:.3f}s, "
        f"ceiling {SUPERVISION_OVERHEAD_CEILING:.0%})")

    elapsed = loop(True)
    assert router.drops == [0, 0, 0, 0]
    rate = n_packets / elapsed
    assert rate >= PKTS_PER_SEC_FLOOR, (
        f"supervised hot path at {rate:.0f} pkts/s "
        f"(floor {PKTS_PER_SEC_FLOOR:.0f})")
