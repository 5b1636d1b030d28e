#!/usr/bin/env python3
"""Live loopback: the PELS stack on real UDP sockets, no simulator.

Binds three datagram endpoints on 127.0.0.1 — server, software router,
client — and streams FGS video for a few wall-clock seconds.  The
server runs the paper's Eq. 8 MKC and Eq. 4 gamma controllers from
real-time ACKs; the router computes Eq. 11 virtual loss every 30 ms and
stamps ``(router_id, z, p)`` labels into forwarded packets; the client
echoes labels back and measures per-color one-way delay.  At the end
the converged rate is printed next to the Lemma 6 oracle
``r* = C/N + alpha/beta`` — the same operating point the simulator
lands on, now reached under genuine scheduler jitter.

Usage: python examples/live_loopback.py [duration_seconds]
"""

from __future__ import annotations

import sys

from repro.live import LiveConfig, run_live_session
from repro.sim.packet import Color


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 5.0
    config = LiveConfig(n_flows=2, duration=duration)
    print(f"Streaming {config.n_flows} live PELS flows over loopback UDP "
          f"for {duration:.0f}s\n"
          f"(bottleneck {config.bottleneck_bps/1e6:.0f} mb/s, PELS share "
          f"{config.pels_capacity_bps()/1e6:.0f} mb/s, "
          f"T = {config.feedback_interval*1000:.0f} ms)...")
    session = run_live_session(config)
    # L1's score: the steady state over the final 40% (the live ramp
    # from 128 kb/s eats the first couple of wall-clock seconds).
    score = session.score()
    report, oracle = score.report, score.report.rate_theory_bps

    print("\n-- congestion control (Lemma 6, wall clock) --")
    for flow in report.flows:
        print(f"flow {flow.flow_id}: rate {flow.mean_rate_bps/1e3:7.1f} "
              f"kb/s   gamma {flow.gamma:.3f}   "
              f"{flow.packets_sent} packets sent")
    print(f"mean rate {score.mean_rate_bps/1e3:.1f} kb/s vs oracle "
          f"r* = {oracle/1e3:.1f} kb/s (err {score.rate_error*100:.1f}%)")

    print("\n-- strict-priority delays (one-way, ms) --")
    receiver = session.client.flow(0)
    for color in (Color.GREEN, Color.YELLOW, Color.RED):
        probe = receiver.delay_probes[color]
        print(f"{color.name.lower():>6}: {probe.mean*1000:6.2f} ms "
              f"({probe.count} packets)")

    drops = report.drops
    print(f"\nrouter: {session.router.feedback.epoch} feedback epochs, "
          f"virtual loss {report.virtual_loss:.3f} "
          f"(theory {report.virtual_loss_theory:.3f})")
    print(f"drops: green={drops['green']} yellow={drops['yellow']} "
          f"red={drops['red']} (congestion absorbed by the red band)")


if __name__ == "__main__":
    main()
