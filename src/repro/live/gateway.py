"""Session gateway: admission control in front of the shard pool.

Clients register a flow (tenant + flow key + receiver address) and get
back either the UDP address of the router shard that will carry the
flow, or a structured rejection.  Three gates run in order, cheapest
first:

1. **registration rate** — a per-tenant token bucket caps how fast a
   tenant may register (bursts up to ``registration_burst``, sustained
   at ``registration_rate``/s), so one misbehaving tenant cannot stall
   everyone else's control plane;
2. **tenant concurrency** — a hard cap on a tenant's live flows;
3. **shard capacity** — every admitted flow reserves
   ``flow_reserve_bps`` on its shard; a flow whose shard budget is
   exhausted is rejected (``shard_full``) rather than spilled, keeping
   the per-shard population — and hence the Lemma 6 operating point
   ``r* = C_s/N_s + α/β`` — under explicit control.

Shard choice is a stable hash: ``crc32(tenant:flow_key)`` mod the pool
size, so a flow re-registering lands on the same shard (its feedback
epoch history stays valid) without the gateway storing any placement
table.  The data plane bypasses the gateway entirely: admission
installs ``flow_id → receiver`` into the shard over its control pipe,
and the sender transmits straight to the shard's socket.

The gateway itself is synchronous pure logic plus one pipe send per
admission — hundreds of thousands of decisions per second; the L2
experiment reports the measured flows/sec.

Failure awareness (the supervisor's half of the contract): a shard
*slot* can be administratively closed (:meth:`LiveGateway.close_shard`)
— registrations that hash onto a closed slot are rejected with the
closing reason (``shard_down`` while a replacement spawns,
``shard_overloaded`` while shedding is active) instead of being
silently installed onto a dead process.  A route-install that blows up
on the control pipe closes the slot itself and converts into a
``shard_down`` rejection, so a crash between supervisor polls costs
one failed registration, not an exception up the client's stack.
:meth:`LiveGateway.replace_shard` swaps a restarted shard handle into
its slot and bulk re-installs every surviving flow's route — the
re-homing step of failover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple
from zlib import crc32

from ..core.clock import Clock

__all__ = ["TokenBucket", "TenantPolicy", "AdmissionDecision",
           "LiveGateway", "shard_index", "TransientRegistrationError"]

#: Rejection reasons, in gate order.
REASON_RATE_LIMITED = "rate_limited"
REASON_TENANT_FULL = "tenant_full"
REASON_SHARD_FULL = "shard_full"
#: Supervisor-driven rejections (closed slots).
REASON_SHARD_DOWN = "shard_down"
REASON_SHARD_OVERLOADED = "shard_overloaded"


class TransientRegistrationError(RuntimeError):
    """A registration failure worth retrying (startup races, injected
    control-plane faults).  The load generator's retry loop catches
    exactly this plus OS-level pipe errors."""


class TokenBucket:
    """A lazily-refilled token bucket against an injected clock."""

    __slots__ = ("rate", "burst", "_tokens", "_last")

    def __init__(self, rate: float, burst: float, now: float = 0.0) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("token bucket rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._last = now

    def try_take(self, now: float, tokens: float = 1.0) -> bool:
        filled = self._tokens + (now - self._last) * self.rate
        self._tokens = self.burst if filled > self.burst else filled
        self._last = now
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False


@dataclass
class TenantPolicy:
    """Admission limits of one tenant."""

    max_flows: int = 1000
    registration_rate: float = 500.0
    registration_burst: float = 50.0


@dataclass
class AdmissionDecision:
    """The gateway's answer to one registration attempt."""

    admitted: bool
    reason: str  # "ok" or a rejection reason
    tenant: str
    flow_key: int
    flow_id: Optional[int] = None
    shard_id: Optional[int] = None
    #: Where the admitted flow must send its data (the shard's socket).
    shard_addr: Optional[Tuple[str, int]] = None
    #: Pool slot index the flow hashed onto (stable across failover —
    #: the replacement shard occupies the same slot under a fresh
    #: ``shard_id``).  None on pre-placement rejections.
    shard_slot: Optional[int] = None


@dataclass
class _FlowRecord:
    tenant: str
    flow_key: int
    shard_index: int
    client_addr: Tuple[str, int]


def shard_index(tenant: str, flow_key: int, n_shards: int) -> int:
    """Stable placement: crc32 of the tenant-qualified flow key."""
    return crc32(f"{tenant}:{flow_key}".encode()) % n_shards


class LiveGateway:
    """Admission control + routing for a pool of router shards.

    ``shards`` is any sequence of shard handles exposing ``shard_id``,
    ``addr``, ``capacity_bps``, ``install_route``, ``install_routes``
    and ``remove_route`` (:class:`~repro.live.shard.RouterShard` in
    production, fakes in tier-1 tests).  ``flow_reserve_bps`` is the
    capacity one flow reserves on its shard — the planning-side
    counterpart of the Lemma 6 share the controllers converge to.
    """

    def __init__(self, clock: Clock, shards: Sequence,
                 flow_reserve_bps: float = 12_000.0,
                 default_policy: Optional[TenantPolicy] = None,
                 policies: Optional[Dict[str, TenantPolicy]] = None) -> None:
        if not shards:
            raise ValueError("gateway needs at least one shard")
        if flow_reserve_bps <= 0:
            raise ValueError("per-flow reservation must be positive")
        self.clock = clock
        self.shards = list(shards)
        self.flow_reserve_bps = flow_reserve_bps
        self.default_policy = default_policy or TenantPolicy()
        self.policies = dict(policies or {})
        self._buckets: Dict[str, TokenBucket] = {}
        self._tenant_flows: Dict[str, int] = {}
        self._reserved_bps = [0.0] * len(self.shards)
        self.flows: Dict[int, _FlowRecord] = {}
        self._next_flow_id = 0
        self.admitted = 0
        self.rejected: Dict[str, int] = {REASON_RATE_LIMITED: 0,
                                         REASON_TENANT_FULL: 0,
                                         REASON_SHARD_FULL: 0,
                                         REASON_SHARD_DOWN: 0,
                                         REASON_SHARD_OVERLOADED: 0}
        #: Closed slots: index -> rejection reason while closed.
        self._closed: Dict[int, str] = {}

    def policy_for(self, tenant: str) -> TenantPolicy:
        return self.policies.get(tenant, self.default_policy)

    def register(self, tenant: str, flow_key: int,
                 client_addr: Tuple[str, int]) -> AdmissionDecision:
        """Run the three admission gates; install the route on success.

        ``flow_key`` is the client's own stable identifier for the flow
        (it drives shard placement); the returned ``flow_id`` is the
        gateway-global id the sender must stamp into the wire header.
        """
        now = self.clock.now
        policy = self.policy_for(tenant)
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(policy.registration_rate,
                                 policy.registration_burst, now)
            self._buckets[tenant] = bucket

        if not bucket.try_take(now):
            return self._reject(REASON_RATE_LIMITED, tenant, flow_key)
        if self._tenant_flows.get(tenant, 0) >= policy.max_flows:
            return self._reject(REASON_TENANT_FULL, tenant, flow_key)

        index = shard_index(tenant, flow_key, len(self.shards))
        closed_reason = self._closed.get(index)
        if closed_reason is not None:
            return self._reject(closed_reason, tenant, flow_key, index)
        shard = self.shards[index]
        if self._reserved_bps[index] + self.flow_reserve_bps \
                > shard.capacity_bps:
            return self._reject(REASON_SHARD_FULL, tenant, flow_key, index)

        flow_id = self._next_flow_id
        self._next_flow_id += 1
        try:
            shard.install_route(flow_id, client_addr)
        except (BrokenPipeError, OSError, RuntimeError):
            # The shard died between supervisor polls.  Close the slot
            # so further registrations fail fast with a structured
            # reason; the supervisor reopens it after failover.
            self.close_shard(index, REASON_SHARD_DOWN)
            return self._reject(REASON_SHARD_DOWN, tenant, flow_key, index)
        self._reserved_bps[index] += self.flow_reserve_bps
        self._tenant_flows[tenant] = self._tenant_flows.get(tenant, 0) + 1
        self.flows[flow_id] = _FlowRecord(tenant, flow_key, index,
                                          client_addr)
        self.admitted += 1
        return AdmissionDecision(admitted=True, reason="ok", tenant=tenant,
                                 flow_key=flow_key, flow_id=flow_id,
                                 shard_id=shard.shard_id,
                                 shard_addr=shard.addr, shard_slot=index)

    def deregister(self, flow_id: int) -> bool:
        """Tear a flow down: release budgets, remove the shard route."""
        record = self.flows.pop(flow_id, None)
        if record is None:
            return False
        self._reserved_bps[record.shard_index] -= self.flow_reserve_bps
        self._tenant_flows[record.tenant] -= 1
        try:
            self.shards[record.shard_index].remove_route(flow_id)
        except (BrokenPipeError, OSError, RuntimeError):
            pass  # budget released either way; a dead shard has no routes
        return True

    def _reject(self, reason: str, tenant: str, flow_key: int,
                shard_slot: Optional[int] = None) -> AdmissionDecision:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        return AdmissionDecision(admitted=False, reason=reason,
                                 tenant=tenant, flow_key=flow_key,
                                 shard_slot=shard_slot)

    # -- supervisor contract -----------------------------------------------

    def close_shard(self, index: int, reason: str) -> None:
        """Close a slot: registrations hashing there reject with
        ``reason`` until :meth:`open_shard`."""
        if not 0 <= index < len(self.shards):
            raise IndexError(f"no shard slot {index}")
        self._closed[index] = reason

    def open_shard(self, index: int) -> None:
        self._closed.pop(index, None)

    def shard_closed(self, index: int) -> Optional[str]:
        """The closing reason of a slot, or None if it is open."""
        return self._closed.get(index)

    def index_of(self, shard_id: int) -> Optional[int]:
        """Slot index currently holding ``shard_id`` (None if gone)."""
        for index, shard in enumerate(self.shards):
            if shard.shard_id == shard_id:
                return index
        return None

    def flows_on(self, index: int) -> Dict[int, Tuple[str, int]]:
        """flow_id -> client_addr of every live flow placed on a slot."""
        return {flow_id: record.client_addr
                for flow_id, record in self.flows.items()
                if record.shard_index == index}

    def replace_shard(self, index: int, shard) -> List[int]:
        """Swap a (restarted) shard handle into a slot and re-home.

        Re-installs every surviving flow's route on the replacement in
        one bulk ``install_routes`` call (one pipe message) and returns
        the re-homed flow ids.  Reservations carry over unchanged: the
        flows still exist, only their carrier changed.
        """
        if not 0 <= index < len(self.shards):
            raise IndexError(f"no shard slot {index}")
        self.shards[index] = shard
        routes = self.flows_on(index)
        if routes:
            shard.install_routes(routes)
        return sorted(routes)

    # -- introspection -----------------------------------------------------

    def shard_population(self) -> Dict[int, int]:
        """shard_id -> number of live flows placed there."""
        counts = {shard.shard_id: 0 for shard in self.shards}
        for record in self.flows.values():
            counts[self.shards[record.shard_index].shard_id] += 1
        return counts
