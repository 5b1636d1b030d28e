"""The gateway load report on fixed inputs: no sockets, no processes.

``load_report`` scores what a run measured against Lemma 6, slot by
slot, reading each slot's final ``ShardStats``.  The expected values
below were taken from the aggregation as it stood inside ``run_load``
before it became a pure function, on these same inputs: a failure here
means the load report moved.

The pool: slot 0 (shard 1) carries four flows and reported; slot 1 was
failed over to shard 4, which never reported (zero snapshot) while the
dead shard 2's snapshot must be ignored; slot 2 (shard 3) is empty, so
its r* and fairness are NaN.

The built-in ``sum`` of floats compensates since Python 3.12, so the
per-slot goodputs it adds are kept exact: whole byte counts over a
2 s window and a 0.5 s post window.  The order case adds inexact
floats only through the run-wide sums, which go left to right on
every interpreter.
"""

import json
import math
from types import SimpleNamespace

from repro.live.gateway import AdmissionDecision
from repro.live.loadgen import LoadConfig, LoadMeasurement, load_report
from repro.live.shard import ShardStats

NAN = float("nan")

CONFIG = LoadConfig(flows=7, shards=3, duration=4.0, tenants=2,
                    post_window=1.0, seed=11)
SHARDS = [SimpleNamespace(shard_id=1, capacity_bps=45000.0),
          SimpleNamespace(shard_id=4, capacity_bps=41250.5),
          SimpleNamespace(shard_id=3, capacity_bps=52500.25)]
STATS = {
    1: ShardStats(shard_id=1, port=40001, arrivals=[812, 1604, 2411, 0],
                  drops=[3, 37, 402, 0], forwarded=[812, 1567, 1990, 0],
                  routes=4, cpu_seconds=0.3712849, wall_seconds=4.4109375,
                  depths=[0, 3, 11, 0],
                  shed_packets=[0, 5, 19, 0], shed_bytes=[0, 1250, 4750, 0],
                  shed_level=1, send_errors=2),
    2: ShardStats(shard_id=2, port=40002, arrivals=[300, 600, 900, 0],
                  drops=[0, 1, 2, 0], forwarded=[300, 599, 898, 0],
                  routes=2, cpu_seconds=0.1234567, wall_seconds=1.8,
                  shed_packets=[0, 0, 7, 0], shed_bytes=[0, 0, 1750, 0]),
    3: ShardStats(shard_id=3, port=40003, arrivals=[1, 1, 2, 0],
                  drops=[1, 0, 0, 0], forwarded=[0, 0, 0, 0],
                  routes=0, cpu_seconds=0.0421337, wall_seconds=4.4097128,
                  shed_packets=[0, 1, 2, 0], shed_bytes=[0, 250, 500, 0]),
    4: None,
}
SLOTS = {1: 0, 2: 1, 3: 0, 4: 0, 5: 1, 6: 0}


def _decisions():
    decisions = [AdmissionDecision(
        True, "ok", f"tenant-{key % 2}", key, flow_id=key + 1,
        shard_id=[1, 2][SLOTS[key + 1]],
        shard_addr=("127.0.0.1", 40001 + SLOTS[key + 1]),
        shard_slot=SLOTS[key + 1]) for key in range(6)]
    decisions.insert(4, AdmissionDecision(False, "tenant_rate_limited",
                                          "tenant-0", 6))
    return decisions


def _sender(blind, freezes, recoveries):
    return SimpleNamespace(blind_intervals=blind, rate_freezes=freezes,
                           recoveries=recoveries)


def _measured():
    delays = {color: {"count": 10.0, "mean_ms": 1.5, "p50_ms": 1.25,
                      "p99_ms": 4.75} for color in ("green", "yellow", "red")}
    return LoadMeasurement(
        decisions=_decisions(), registration_seconds=0.0031337,
        flow_slots=dict(SLOTS),
        delivered={1: 7155, 2: 4873, 3: 7445, 4: 4331, 6: 6121},
        post_delivered={1: 2282, 2: 0, 3: 1564, 4: 1761, 5: 0, 6: 1620},
        delays=delays, elapsed=4.0, window=2.0, post_seconds=0.5, churned=1,
        supervisor={"ticks": 17,
                    "states": {0: "healthy", 1: "healthy", 2: "healthy"},
                    "shed_levels": {0: 0, 1: 0, 2: 0}, "failovers": []},
        faults=[(1.8, "shard-kill:slot1")],
        senders={1: _sender(0, 0, 0), 2: _sender(7, 1, 1),
                 3: _sender(1, 1, 1), 4: _sender(0, 0, 0),
                 5: _sender(9, 2, 1), 6: _sender(0, 0, 0)})


DELAYS = {"count": 10.0, "mean_ms": 1.5, "p50_ms": 1.25, "p99_ms": 4.75}
EXPECTED_DICT = {
    "flows": 7, "shards": 3, "admitted": 6,
    "rejected": {"tenant_rate_limited": 1}, "churned": 1,
    "flows_per_sec": 1914.6695599451127,
    "aggregate_goodput_bps": 119700.0,
    "oracle_goodput_bps": 86250.5,
    "goodput_vs_oracle": 1.3878180416345411,
    "green_drops": 4,
    "delays": {"green": DELAYS, "yellow": DELAYS, "red": DELAYS},
    "cpu_seconds": 0.41341859999999997,
    "per_shard": [
        {"shard_id": 1, "n_flows": 4, "capacity_bps": 45000.0,
         "goodput_bps": 100208.0,
         "goodput_vs_oracle": 2.2268444444444446,
         "fairness": 0.5817327065144392, "drops": [3, 37, 402, 0],
         "cpu_seconds": 0.3712849},
        {"shard_id": 4, "n_flows": 2, "capacity_bps": 41250.5,
         "goodput_bps": 19492.0,
         "goodput_vs_oracle": 0.4725276057259912,
         "fairness": 0.0, "drops": [0, 0, 0, 0], "cpu_seconds": 0.0},
        {"shard_id": 3, "n_flows": 0, "capacity_bps": 52500.25,
         "goodput_bps": 0, "goodput_vs_oracle": NAN, "fairness": NAN,
         "drops": [1, 0, 0, 0], "cpu_seconds": 0.0421337}],
    "supervisor": {"ticks": 17,
                   "states": {0: "healthy", 1: "healthy", 2: "healthy"},
                   "shed_levels": {0: 0, 1: 0, 2: 0}, "failovers": []},
    "faults": [(1.8, "shard-kill:slot1")],
    "shed_packets": [0, 6, 21, 0], "shed_bytes": [0, 1500, 5250, 0],
    "post_window_seconds": 0.5, "post_goodput_bps": 115632.0,
}
#: Per slot: post-window goodput of its flows, r*, watchdog sums.
EXPECTED_SLOTS = [
    (0, 115632.0, 13250.0, (1, 1, 1)),
    (1, 0.0, 22625.25, (16, 3, 2)),
    (2, 0, NAN, (0, 0, 0)),
]
EXPECTED_SUMS = {
    "aggregate_goodput_bps": 119700.0,
    "oracle_goodput_bps": 86250.5, "green_drops": 4,
    "cpu_seconds": 0.41341859999999997,
    "shed_packets": [0, 6, 21, 0], "shed_bytes": [0, 1500, 5250, 0],
    "blind_intervals": 17, "rate_freezes": 4, "recoveries": 3,
}

#: Three reporting slots, one flow each, whose capacities, goodputs and
#: CPU seconds each add up differently in any other order.
ORDER_SHARDS = [SimpleNamespace(shard_id=index + 1, capacity_bps=capacity)
                for index, capacity in enumerate((45000.1, 41250.2, 52500.3))]
ORDER_STATS = {index + 1: ShardStats(
    shard_id=index + 1, port=40001 + index, arrivals=[0, 0, 0, 0],
    drops=[0, 0, 0, 0], forwarded=[0, 0, 0, 0], routes=1,
    cpu_seconds=cpu, wall_seconds=4.0)
    for index, cpu in enumerate((0.1, 0.2, 0.3))}
EXPECTED_ORDER = {
    "aggregate_goodput_bps": 60190.94739283368,
    "oracle_goodput_bps": 138750.59999999998,
    "cpu_seconds": 0.6000000000000001,
    "goodput_vs_oracle": 0.4338067539371627,
}


def _order_measured():
    decisions = [AdmissionDecision(
        True, "ok", "tenant-0", slot, flow_id=slot + 1, shard_id=slot + 1,
        shard_addr=("127.0.0.1", 40001 + slot), shard_slot=slot)
        for slot in range(3)]
    return LoadMeasurement(
        decisions=decisions, registration_seconds=0.001,
        flow_slots={1: 0, 2: 1, 3: 2},
        delivered={1: 7150, 2: 4870, 3: 7445}, post_delivered={},
        delays={}, elapsed=4.0, window=2.5871, post_seconds=0.0, churned=0,
        supervisor=None, faults=[],
        senders={flow_id: _sender(0, 0, 0) for flow_id in (1, 2, 3)})


def _exact(value):
    """Bit-exact, NaN-equal form: floats by repr, containers by JSON."""
    return json.dumps(value, sort_keys=True)


def test_to_dict_is_the_recorded_report():
    result = load_report(CONFIG, SHARDS, STATS, _measured())
    assert _exact(result.to_dict()) == _exact(EXPECTED_DICT)


def test_sums_over_slots_are_bit_equal():
    result = load_report(CONFIG, SHARDS, STATS, _measured())
    assert _exact({name: getattr(result, name) for name in EXPECTED_SUMS}) \
        == _exact(EXPECTED_SUMS)
    assert result.cpu_seconds_per_flow == 0.0689031
    assert result.post_goodput_vs_oracle == 1.3406530976632018


def test_run_wide_sums_go_in_slot_order():
    result = load_report(CONFIG, ORDER_SHARDS, ORDER_STATS, _order_measured())
    assert [s.shard_id for s in result.per_shard] == [1, 2, 3]
    assert _exact({name: getattr(result, name) for name in EXPECTED_ORDER}) \
        == _exact(EXPECTED_ORDER)


def test_per_slot_figures():
    result = load_report(CONFIG, SHARDS, STATS, _measured())
    got = [(s.slot, s.post_goodput_bps, s.lemma6_rate_bps,
            (s.blind_intervals, s.rate_freezes, s.recoveries))
           for s in result.per_shard]
    assert _exact(got) == _exact(EXPECTED_SLOTS)
    assert result.post_flow_goodput == {
        1: 36512.0, 2: 0.0, 3: 25024.0, 4: 28176.0, 5: 0.0, 6: 25920.0}


def test_each_slot_reads_its_final_shards_snapshot():
    result = load_report(CONFIG, SHARDS, STATS, _measured())
    reported, failed_over, empty = result.per_shard
    assert reported.stats is STATS[1]
    assert empty.stats is STATS[3]
    # Shard 4 never reported: a zero snapshot, not the dead shard 2's.
    zero = failed_over.stats
    assert zero.shard_id == 4
    assert (zero.arrivals, zero.drops, zero.forwarded, zero.shed_packets,
            zero.shed_bytes) == ([0, 0, 0, 0],) * 5
    assert (zero.cpu_seconds, zero.wall_seconds, zero.shed_level) == \
        (0.0, 0.0, 0)
    assert math.isnan(empty.fairness) and math.isnan(empty.lemma6_rate_bps)


def test_no_post_window_leaves_post_goodput_unmeasured():
    measured = _measured()
    measured.post_seconds = 0.0
    result = load_report(CONFIG, SHARDS, STATS, measured)
    assert result.post_flow_goodput == {}
    assert math.isnan(result.post_goodput_bps)
    assert all(math.isnan(s.post_goodput_bps) for s in result.per_shard)
