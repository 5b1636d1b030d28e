#!/usr/bin/env python3
"""Why PELS instead of FEC? The bandwidth-overhead argument, measured.

The paper's goal is retransmission-free streaming *without* spending
bandwidth on error-correcting codes (Section 1).  This script sweeps
network loss and, at each level, gives FEC its best shot: the smallest
(10+m) block erasure code meeting a 1% block-failure target.  All three
schemes spend the same 100-packet budget per frame; the question is how
many packets come out *decodable*.

Usage: python examples/fec_vs_pels.py
"""

from __future__ import annotations

from repro.analysis.best_effort import expected_useful_packets
from repro.core.gamma import useful_packets_pels
from repro.video.fec import expected_useful_packets_fec, optimal_parity

SLICE = 100  # transmitted packets per frame
BAR = 50     # bar width for the chart


def bar(value: float, maximum: float) -> str:
    filled = int(round(value / maximum * BAR))
    return "█" * filled + "·" * (BAR - filled)


def main() -> None:
    print(f"Useful packets out of {SLICE} transmitted per frame "
          "(higher is better)\n")
    for loss in (0.01, 0.02, 0.05, 0.10, 0.19, 0.30):
        be = expected_useful_packets(loss, SLICE)
        fec_cfg = optimal_parity(10, loss, target_block_failure=0.01)
        blocks = SLICE // fec_cfg.block_packets
        fec = expected_useful_packets_fec(fec_cfg, loss, blocks)
        pels = useful_packets_pels(loss, 0.75, SLICE)
        print(f"loss {loss:4.0%}")
        print(f"  best-effort {bar(be, SLICE)} {be:5.1f}")
        print(f"  FEC (10+{fec_cfg.parity_packets:<2d}) {bar(fec, SLICE)} "
              f"{fec:5.1f}   ({fec_cfg.overhead:.0%} parity overhead)")
        print(f"  PELS        {bar(pels, SLICE)} {pels:5.1f}   "
              f"(red probing band {loss/0.75:.0%})")
        print()
    print("Best-effort collapses (consecutive-prefix decoding); FEC "
          "survives but its parity bill grows with loss; PELS spends "
          "nothing on coding — the upper slice it sacrifices is the "
          "congestion probe its control loop needs anyway, and every "
          "protected packet that arrives is decodable.")


if __name__ == "__main__":
    main()
