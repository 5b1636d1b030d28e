"""Layer probes: each public function of a layer, timed in isolation.

Every probe loops one *public* function (no leading underscore — a
refactor of ``_ingest`` or ``_drain`` cannot break the ledger) on
inputs shaped like the workloads', in ``SLICES`` slices with a
calibration loop on both sides of each, and reports the best slice in
reference-host time — the paired best-of-k method
``benchmarks/test_bench_obs.py`` uses.  Probes give the ``_ns`` /
``_us`` / ``_ms`` / ``_s`` rows; multiplied by the traced run's
``_calls`` counts they say how much of a workload a layer can explain.

All probes run in every traced run, whatever the workload: they do not
depend on it, and a complete micro-cost table beside each trace costs
a few seconds.
"""

from __future__ import annotations

import asyncio
import gc
import shutil
from typing import Callable, Dict, Tuple

from repro.cc.mkc import MkcController
from repro.core.clock import WallClock
from repro.core.feedback import FeedbackComputer
from repro.core.gamma import GammaController
from repro.core.pels_queue import PelsBottleneckQueue, PelsQueueConfig
from repro.core.session import PelsScenario, PelsSimulation
from repro.experiments.runner import run_all
from repro.fluid.engine import FluidEngine
from repro.live.gateway import LiveGateway, TenantPolicy
from repro.live.router import LiveRouter
from repro.live.wire import (LivePacket, decode_packet, encode_packet,
                             peek_color, peek_flow_id, peek_is_valid,
                             stamp_label)
from repro.obs.metrics import MetricsRegistry, metrics
from repro.obs.trace import Tracer, tracing
from repro.service.queue import JobQueue
from repro.service.storage import FileStorage
from repro.service.stream import FrameParser, encode_frame
from repro.sim.engine import Simulator
from repro.sim.packet import Color, FeedbackLabel, Packet
from repro.sim.queues import DropTailQueue
from repro.sim.scheduler import WeightedRoundRobinScheduler
from repro.sim.stats import DelayProbe
from repro.sim.topology import BarbellConfig

from .harness import OUT_DIR, measure
from .workloads.fluid import fabric
from .workloads.flood import DATAGRAM_BYTES, FAST_QUEUE, make_batch

__all__ = ["run_all_probes", "best_of"]

SLICES = 5
#: Standing far-future events under the deep-heap probe: the depth
#: ``sim_cbr_100`` holds (about one pending event per flow and link).
DEEP_HEAP = 10_000
STORED_JOBS = 300


def best_of(prepare: Callable[[], Tuple[Callable[[], object], int]],
            slices: int = SLICES, cpu: bool = False) -> float:
    """Best reference-host seconds per operation over ``slices``.

    ``prepare()`` builds fresh state outside the timed region and
    returns ``(body, operations)``; ``body()`` performs that many
    operations.  ``cpu`` selects process-CPU time (for bodies that
    sleep on an event loop) over wall time.
    """
    best = float("inf")
    for _ in range(slices):
        body, operations = prepare()
        timing = measure([body])
        seconds = timing.cpu_ref_s if cpu else timing.wall_ref_s
        best = min(best, seconds / operations)
    return best


def noop(*_args) -> None:
    pass


# -- sim ---------------------------------------------------------------------


def chain(depth: int, events: int = 20_000):
    """A self-rescheduling ``call_later`` chain over ``depth`` standing
    far-future events: one push + one dispatch per operation."""
    def prepare():
        sim = Simulator(seed=1)
        for index in range(depth):
            sim.call_later(1e6 + index, noop)
        left = [events]

        def tick() -> None:
            left[0] -= 1
            if left[0]:
                sim.call_later(0.001, tick)

        sim.call_later(0.001, tick)
        return (lambda: sim.run(until=1e5)), events
    return prepare


def schedule_cancel(events: int = 20_000):
    def prepare():
        sim = Simulator(seed=1)

        def body() -> None:
            schedule = sim.schedule
            for _ in range(events):
                schedule(1.0, noop).cancel()
        return body, events
    return prepare


def packets(count: int = 64):
    colors = (Color.GREEN, Color.YELLOW, Color.YELLOW, Color.RED,
              Color.BEST_EFFORT)
    return [Packet(flow_id=i % 16, size=500, color=colors[i % len(colors)],
                   seq=i) for i in range(count)]


def queue_cycle(make_queue, rounds: int = 200):
    """Enqueue a 64-packet batch, dequeue it, ``rounds`` times; one
    operation is one enqueue or one dequeue."""
    def prepare():
        queue, batch = make_queue(), packets()

        def body() -> None:
            enqueue, dequeue = queue.enqueue, queue.dequeue
            for _ in range(rounds):
                for packet in batch:
                    enqueue(packet)
                for _packet in batch:
                    dequeue()
        return body, rounds * len(batch) * 2
    return prepare


def make_pels_queue() -> PelsBottleneckQueue:
    # Buffers deep enough that the 64-packet batch never overflows: the
    # probe times the accept/serve path, the sims count the drops.
    return PelsBottleneckQueue(PelsQueueConfig(
        green_buffer=256, yellow_buffer=256, red_buffer=256,
        internet_buffer=256))


def make_wrr() -> WeightedRoundRobinScheduler:
    return WeightedRoundRobinScheduler(
        [DropTailQueue(256), DropTailQueue(256)], weights=[0.5, 0.5],
        classifier=lambda packet: 0 if packet.color is not Color.BEST_EFFORT
        else 1, quantum_bytes=1000)


def calls(fn_factory, operations: int = 50_000):
    """``operations`` calls of the function ``fn_factory()`` returns."""
    def prepare():
        fn = fn_factory()

        def body() -> None:
            for index in range(operations):
                fn(index)
        return body, operations
    return prepare


def per_call(fn, operations: int = 50_000) -> float:
    """Best seconds per ``fn(index)`` for a function that needs no
    fresh state between slices."""
    return best_of(calls(lambda: fn, operations))


def delay_record():
    probe = DelayProbe("green", series_stride=1)
    return lambda index: probe.record(index * 0.001, 0.004)


def feedback_close():
    computer = FeedbackComputer(20e6, interval=0.030)
    return lambda index: computer.close(90_000 + index % 7)


def mkc_feedback():
    controller = MkcController(feedback_delay=0.13)
    return lambda index: controller.on_feedback(0.07, index * 0.030)


def gamma_update():
    controller = GammaController()
    return lambda index: controller.update(0.07)


def obs_ratios() -> Tuple[float, float]:
    """Wall-time ratio of a short ``sim_cbr_100`` with the tracer on,
    and with the metrics registry on, to the same run with both off —
    best of three interleaved rounds each."""
    scenario = PelsScenario(
        n_flows=100, duration=2.0,
        topology=BarbellConfig(bottleneck_bps=40e6),
        cross_traffic="cbr", cbr_rate_bps=25e6)

    def rep() -> float:
        simulation = PelsSimulation(scenario)
        gc.collect()
        return measure([simulation.run]).wall_ref_s

    off = traced = metered = float("inf")
    for _ in range(3):
        off = min(off, rep())
        with tracing(Tracer()):
            traced = min(traced, rep())
        with metrics(MetricsRegistry()):
            metered = min(metered, rep())
    return traced / off, metered / off


# -- live --------------------------------------------------------------------


def wire_probes() -> Dict[str, float]:
    packet = LivePacket(flow_id=7, seq=1234, color=Color.YELLOW,
                        frame_id=3, index_in_frame=17,
                        size=DATAGRAM_BYTES)
    data = encode_packet(packet)
    mutable = bytearray(data)
    labels = [FeedbackLabel(1, epoch, 0.01 * (epoch % 9))
              for epoch in range(16)]

    def peek(_index: int) -> None:
        peek_is_valid(data)
        peek_color(data)
        peek_flow_id(data)

    return {
        "live.wire.encode_ns":
            per_call(lambda _i: encode_packet(packet)) * 1e9,
        "live.wire.decode_ns":
            per_call(lambda _i: decode_packet(data)) * 1e9,
        "live.wire.peek_ns": per_call(peek) * 1e9,
        "live.wire.stamp_ns":
            per_call(lambda i: stamp_label(mutable, labels[i & 15])) * 1e9,
    }


class CountingTransport:
    """Stand-in datagram transport: counts what the router forwards."""

    def __init__(self) -> None:
        self.sent = 0

    def sendto(self, data, addr=None) -> None:
        self.sent += 1


def fresh_router() -> Tuple[LiveRouter, CountingTransport]:
    router = LiveRouter(WallClock(), 1e10, PelsQueueConfig(**FAST_QUEUE))
    transport = CountingTransport()
    router.connection_made(transport)
    router.dst_addr = ("127.0.0.1", 9)
    return router, transport


def router_probes(batches: int = 48) -> Dict[str, float]:
    """``ingest``: ``datagram_received`` on an in-process router.
    ``service``: the router's own ``start()`` tasks on a real event
    loop draining what was ingested — process CPU minus the ingest
    cost, per forwarded datagram."""
    batch = [bytes(datagram) for datagram in make_batch(1, DATAGRAM_BYTES)]
    count = batches * len(batch)

    def prepare_ingest():
        router, _transport = fresh_router()

        def body() -> None:
            received = router.datagram_received
            for _ in range(batches):
                for datagram in batch:
                    received(datagram, None)
        return body, count

    ingest = best_of(prepare_ingest)

    def prepare_both():
        router, transport = fresh_router()

        async def serve() -> None:
            router.start()
            received = router.datagram_received
            for _ in range(batches):
                for datagram in batch:
                    received(datagram, None)
            while transport.sent < count:
                await asyncio.sleep(0.001)
            await router.stop()

        return (lambda: asyncio.run(serve())), count

    both = best_of(prepare_both, cpu=True)
    return {"live.router.ingest_ns": ingest * 1e9,
            "live.router.service_ns": max(both - ingest, 0.0) * 1e9}


class FakeShard:
    """The duck type ``LiveGateway`` routes into (tier-1 tests use the
    same shape)."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.addr = ("127.0.0.1", 40_000 + shard_id)
        self.capacity_bps = 1e12
        self.routes = 0

    def install_route(self, flow_id, addr) -> None:
        self.routes += 1

    def remove_route(self, flow_id) -> None:
        self.routes -= 1


def gateway_register(flows: int = 20_000):
    def prepare():
        gateway = LiveGateway(
            WallClock(), [FakeShard(i + 1) for i in range(4)],
            default_policy=TenantPolicy(max_flows=flows,
                                        registration_rate=1e9,
                                        registration_burst=flows))

        def body() -> None:
            register = gateway.register
            for key in range(flows):
                register("tenant-0", key, ("127.0.0.1", 9))
        return body, flows
    return prepare


# -- service -----------------------------------------------------------------


def service_probes() -> Dict[str, float]:
    root = OUT_DIR / "probe-storage"
    shutil.rmtree(root, ignore_errors=True)
    try:
        storage = FileStorage(root)
        jobs = JobQueue(storage)
        payload = jobs.submit(params={"key": "T1", "fast": True}).to_dict()
        lines = ['{"type": "snapshot", "data": {"t": 1.0, "x": 2}}'] * 4
        storage.append_stream("probe-read", lines * 16)

        def claim(index: int) -> None:
            storage.try_claim(f"probe-{index}", "w001")
            storage.release_claim(f"probe-{index}")

        rows = {
            "service.storage.save_job_us": per_call(
                lambda i: storage.save_job("probe", payload), 500) * 1e6,
            "service.storage.load_job_us": per_call(
                lambda i: storage.load_job("probe"), 500) * 1e6,
            "service.storage.try_claim_us": per_call(claim, 500) * 1e6,
            "service.storage.append_stream_us": per_call(
                lambda i: storage.append_stream("probe", lines), 500) * 1e6,
            "service.storage.read_stream_us": per_call(
                lambda i: storage.read_stream("probe-read", 0), 200) * 1e6,
            "service.queue.submit_us": per_call(
                lambda i: jobs.submit(params={"key": "F2"}), 60) * 1e6,
        }
        # SLICES x 60 submits above + 1: top the store up to 300 jobs.
        while len(storage.list_job_ids()) < STORED_JOBS:
            jobs.submit(params={"key": "F2"})
        rows["service.storage.list_job_ids_us_at_300"] = per_call(
            lambda i: storage.list_job_ids(), 20) * 1e6
        claimed = []
        rows["service.queue.claim_next_ms_at_300"] = per_call(
            lambda i: claimed.append(jobs.claim_next("w001")), 2) * 1e3
        artifact = {"experiment_id": "F2", "metrics": {"x": 1.0}}
        pending = iter(claimed)
        rows["service.queue.complete_us"] = per_call(
            lambda i: jobs.complete(next(pending), artifact), 2) * 1e6
        return rows
    finally:
        shutil.rmtree(root, ignore_errors=True)


def stream_probes() -> Dict[str, float]:
    payload = b'{"type": "snapshot", "data": {"t": 1.0, "rate": 2.5}}' * 4
    masked = encode_frame(payload, mask=b"\x01\x02\x03\x04")
    parser = FrameParser(require_mask=True)
    return {
        "service.stream.encode_frame_ns":
            per_call(lambda i: encode_frame(payload), 20_000) * 1e9,
        "service.stream.parse_frame_ns":
            per_call(lambda i: parser.feed(masked), 5_000) * 1e9,
    }


# -- fluid -------------------------------------------------------------------


def fluid_probes() -> Dict[str, float]:
    def timed(body) -> float:
        gc.collect()
        return measure([body]).wall_ref_s

    box = {}
    build_s = min(timed(lambda: box.update(scenario=fabric(1)))
                  for _ in range(3))
    init_s = min(timed(lambda: FluidEngine(box["scenario"],
                                           backend="numpy"))
                 for _ in range(3))
    # Same fabric, two start waves, twice the horizon: the equilibrium
    # fast-forward does the work — the bypass case for a change to the
    # integration kernel.
    plateau = fabric(1, start_waves=2, duration=120.0)
    plateau_s = min(timed(FluidEngine(plateau, backend="numpy").run)
                    for _ in range(2))
    # The stdlib-list kernel on a tenth of the fabric (864 segments).
    small = fabric(1, edge_routers=12, agg_routers=4, core_routers=2,
                   duration=15.0, start_waves=6)
    list_s = timed(FluidEngine(small, backend="list").run)
    return {"fluid.scenario.build_s": build_s,
            "fluid.engine.init_s": init_s,
            "fluid.engine.plateau_run_s": plateau_s,
            "fluid.engine.list_run_s": list_s}


# -- all ---------------------------------------------------------------------


def run_all_probes() -> Dict[str, float]:
    rows: Dict[str, float] = {
        "sim.engine.call_later_ns": best_of(chain(0)) * 1e9,
        "sim.engine.deep_heap_ns": best_of(chain(DEEP_HEAP)) * 1e9,
        "sim.engine.schedule_cancel_ns": best_of(schedule_cancel()) * 1e9,
        "core.pels_queue.op_ns": best_of(queue_cycle(make_pels_queue)) * 1e9,
        "sim.queues.droptail_op_ns":
            best_of(queue_cycle(lambda: DropTailQueue(256))) * 1e9,
        "sim.scheduler.wrr_op_ns": best_of(queue_cycle(make_wrr)) * 1e9,
        "sim.stats.record_ns": best_of(calls(delay_record)) * 1e9,
        "core.feedback.close_ns": best_of(calls(feedback_close)) * 1e9,
        "cc.mkc.on_feedback_ns": best_of(calls(mkc_feedback)) * 1e9,
        "core.gamma.update_ns": best_of(calls(gamma_update)) * 1e9,
        "live.gateway.register_us": best_of(gateway_register(),
                                            slices=3) * 1e6,
        "experiments.runner.t1_fast_s": best_of(
            lambda: ((lambda: run_all(fast=True, only="T1")), 1), slices=2),
    }
    rows["obs.trace.on_ratio"], rows["obs.metrics.on_ratio"] = obs_ratios()
    rows.update(wire_probes())
    rows.update(router_probes())
    rows.update(service_probes())
    rows.update(stream_probes())
    rows.update(fluid_probes())
    return rows
