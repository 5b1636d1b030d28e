"""Self-healing under real faults: kill, stall and shed live shards.

Opt-in wall-clock tests (``--live``): these SIGKILL/SIGSTOP actual
shard processes under a streaming load and assert the supervisor's
end-to-end recovery — detection, fresh-router-id respawn, bulk route
re-install, sender re-targeting — plus the layered-shedding invariant
on a real router (red shed first, green never).  The same state
machine is covered exhaustively with fakes in
``test_live_supervisor.py``; this file proves it against the OS.
"""

from __future__ import annotations

import time

import pytest

from repro.faults import Callback, FaultSchedule, ShardKill, ShardStall
from repro.live.loadgen import LoadConfig, run_load
from repro.live.shard import RouterShard, ShardConfig
from repro.live.supervisor import SupervisorConfig

pytestmark = pytest.mark.live


def chaos_config(**overrides) -> LoadConfig:
    defaults = dict(flows=12, shards=2, duration=5.0, warmup_fraction=0.3,
                    supervisor=SupervisorConfig(), feedback_timeout=0.4,
                    post_window=1.5, seed=11)
    defaults.update(overrides)
    return LoadConfig(**defaults)


class TestKillFailover:
    def test_killed_shard_is_replaced_and_flows_recover(self):
        config = chaos_config()

        def chaos(ctx):
            return FaultSchedule().add(2.2, ShardKill(ctx.shards, 0))

        result = run_load(config, chaos=chaos)
        report = result.supervisor
        assert len(report["failovers"]) == 1
        record = report["failovers"][0]
        assert record["slot"] == 0
        assert record["cause"] == "crash"
        assert record["new_shard_id"] == 3  # fresh id past the pool
        expected = sum(1 for slot in result.flow_slots.values()
                       if slot == 0)
        assert record["flows_rehomed"] == expected
        # Acceptance bar: kill -> healed within 2 wall seconds.
        kill_at = next(at for at, label in result.faults
                       if label.startswith("shard-kill"))
        assert record["completed_at"] - kill_at <= 2.0
        assert report["states"] == {0: "healthy", 1: "healthy"}
        # The replacement carries traffic: post-recovery goodput.
        assert result.post_goodput_bps > 0
        assert result.green_drops == 0
        assert result.shed_packets[0] == 0
        # Whoever went blind over the failover gap was resynchronized
        # by the replacement's fresh router id.
        slot = next(s for s in result.per_shard if s.slot == 0)
        assert slot.recoveries == slot.rate_freezes

    def test_unsupervised_kill_strands_the_slot(self):
        config = chaos_config(supervisor=None)

        def chaos(ctx):
            return FaultSchedule().add(2.2, ShardKill(ctx.shards, 0))

        result = run_load(config, chaos=chaos)
        assert result.supervisor is None
        killed = [fid for fid, slot in result.flow_slots.items()
                  if slot == 0]
        assert killed
        # Datagrams to the dead port vanish silently: nothing lands in
        # the post-recovery window for the stranded flows.
        for flow_id in killed:
            assert result.post_flow_goodput[flow_id] == 0.0
        # Every stranded sender went blind, kept decaying frame after
        # frame, and nothing ever recovered it.
        slot = next(s for s in result.per_shard if s.slot == 0)
        assert slot.rate_freezes >= len(killed)
        assert slot.blind_intervals > slot.rate_freezes
        assert slot.recoveries == 0


class TestStallFailover:
    def test_sigstopped_shard_is_detected_by_heartbeat(self):
        config = chaos_config(
            duration=6.0,
            supervisor=SupervisorConfig(poll_interval=0.2,
                                        hang_timeout=0.8))

        def chaos(ctx):
            return FaultSchedule().add(
                2.0, ShardStall(ctx.shards, 0, duration=None))

        result = run_load(config, chaos=chaos)
        report = result.supervisor
        causes = [record["cause"] for record in report["failovers"]]
        assert causes == ["stall"]
        assert report["states"][0] == "healthy"


class TestForcedShedding:
    def test_forced_shed_drops_red_keeps_green_on_a_real_router(self):
        config = chaos_config(duration=5.0)
        holder = {}

        def chaos(ctx):
            holder["supervisor"] = ctx.supervisor
            schedule = FaultSchedule()
            schedule.add(2.0, Callback(
                lambda: ctx.supervisor.force_shed(0, 1), "shed-on"))
            schedule.add(3.5, Callback(
                lambda: ctx.supervisor.force_shed(0, 0), "shed-off"))
            return schedule

        result = run_load(config, chaos=chaos)
        assert result.shed_packets[2] > 0  # red was shed on the wire
        assert result.shed_packets[0] == 0  # green never
        assert result.green_drops == 0
        transitions = [(slot, level) for _, slot, level
                       in result.supervisor["shed_transitions"]]
        # The forced escalation is first; the supervisor may de-escalate
        # on its own calm polls before the scheduled shed-off fires, so
        # only the shape is pinned: slot 0, levels within {0, 1}, ending
        # at 0.
        assert transitions[0] == (0, 1)
        assert transitions[-1] == (0, 0)
        assert {slot for slot, _ in transitions} == {0}
        assert all(level in (0, 1) for _, level in transitions)
        # The slot ended the run open and healthy.
        assert result.supervisor["states"][0] == "healthy"
        assert result.supervisor["shed_levels"][0] == 0


class TestShardSupervisionVerbs:
    def test_real_shard_answers_pings_and_async_stats(self):
        shard = RouterShard(ShardConfig(shard_id=1))
        try:
            shard.start()
            assert shard.ping(123.5)
            assert shard.request_stats()
            deadline = time.time() + 5.0
            while shard.last_pong is None and time.time() < deadline:
                shard.poll_messages()
                time.sleep(0.01)
            assert shard.last_pong == 123.5
            deadline = time.time() + 5.0
            while shard.last_stats is None and time.time() < deadline:
                shard.poll_messages()
                time.sleep(0.01)
            assert shard.last_stats.shard_id == 1
            assert shard.last_stats.shed_level == 0
        finally:
            shard.stop()

    def test_shed_command_reaches_the_child_router(self):
        shard = RouterShard(ShardConfig(shard_id=1))
        try:
            shard.start()
            assert shard.set_shed_level(2)
            deadline = time.time() + 5.0
            level = 0
            while level != 2 and time.time() < deadline:
                level = shard.stats(timeout=5.0).shed_level
                time.sleep(0.01)
            assert level == 2
            with pytest.raises(ValueError):
                shard.set_shed_level(3)
        finally:
            shard.stop()

class TestOrphanRule:
    def test_shards_stop_when_their_owner_is_sigkilled(self, orphans):
        # Under fork every shard used to inherit the parent's end of
        # its own control pipe (and of its elder siblings'), so the
        # EOF that means "parent vanished" could never arrive and the
        # shards served on, burning a core each.
        pids = orphans.after_sigkill(
            "import time\n"
            "from repro.live.shard import RouterShard, ShardConfig\n"
            "shards = [RouterShard(ShardConfig(shard_id=i)).start() "
            "for i in (1, 2)]\n"
            "print(*[shard.pid for shard in shards], flush=True)\n"
            "time.sleep(60)\n")
        assert len(pids) == 2
        assert orphans.survivors(pids, within=5.0) == []
