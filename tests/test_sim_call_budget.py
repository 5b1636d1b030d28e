"""Structural fence for the per-packet chain: calls per event, no wall clock.

The packet simulator's speed is (events) x (cost per event), and the
cost per event is almost all callback bodies — Python frames and
builtin calls between a link, a queue, a router hook, a sink and a
source.  A wall-clock assertion on that would flake; the number of
profiled calls per dispatched event is exact for a given interpreter and
moves only when somebody adds (or removes) a frame, a copy or a builtin
call on the chain.

Fixed scenario: 10 PELS flows against the backlogged CBR aggregate on
the Section 6 bar-bell, 2 simulated seconds, seed 4 (10,866 events).
Every ``c_call`` and Python ``call`` ``cProfile`` sees inside
``run()``, divided by ``events_dispatched``:

=====================================  ======  =======
                                       parent  this PR
=====================================  ======  =======
this scenario (CPython 3.11)            11.43     8.97
``sim_cbr_100`` seed 1 (perf ledger)    12.07     9.51
``sim_tcp_4`` seed 1                    11.94     9.72
=====================================  ======  =======

(The two ledger rows are ``pstats.Stats.total_calls``, the figure the
issue quotes.)  The budget sits between the two columns: the parent
fails it, and the 3.11-3.13 CI matrix may count a builtin differently
without tripping it.  If a change pushes the figure over, find the new
per-packet call with ``cProfile`` sorted by ``ncalls`` before raising
the budget.
"""

from __future__ import annotations

import cProfile

from repro.core.session import PelsScenario, PelsSimulation

#: Profiled calls per dispatched event the fixed scenario may spend.
CALLS_PER_EVENT_BUDGET = 9.6


def test_calls_per_event_within_budget():
    sim = PelsSimulation(PelsScenario(n_flows=10, duration=2.0, seed=4))
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run()
    profiler.disable()
    events = sim.sim.events_dispatched
    assert events == 10866  # the scenario itself has not moved
    calls = sum(entry.callcount for entry in profiler.getstats())
    per_event = calls / events
    print(f"{calls} calls / {events} events = {per_event:.3f}")
    assert per_event <= CALLS_PER_EVENT_BUDGET, (
        f"{per_event:.3f} profiled calls per event exceeds the budget of "
        f"{CALLS_PER_EVENT_BUDGET}: something new runs once per packet")
