"""Experiment harness: regenerates every table and figure of the paper.

* ``T1``  — Table 1 (expected useful packets, model vs simulation)
* ``F2``  — Fig. 2 (useful packets & utility vs H)
* ``F5``  — Fig. 5 (gamma stability vs sigma)
* ``F7``  — Fig. 7 (gamma evolution & red loss in full simulation)
* ``F8``  — Fig. 8 (green/yellow delays)
* ``F9``  — Fig. 9 (red delays; MKC convergence & fairness)
* ``F10`` — Fig. 10 (PSNR, PELS vs best-effort)
* ``X1``  — extension: multi-bottleneck feedback & bottleneck shifts
* ``X2``  — extension: MKC fairness under heterogeneous delays
* ``X3``  — extension: R-D constant-quality scaling
* ``X4``  — extension: closed-loop best-effort (RED) vs Lemma 1
* ``X5``  — extension: drop-burst structure, RED vs drop-tail (§3)
* ``X6``  — extension: decoding deadlines, PELS vs retransmission (§1)
* ``X7``  — extension: PELS vs FEC at equal bandwidth (§1)
* ``S1``  — extension: fluid-engine scaling sweep (10 to 10 000 flows)
* ``A1-A6`` — ablations (sigma, p_thr, WRR weights, red buffer,
  controller comparison, two-priority variant)

Run ``python -m repro.experiments [--fast] [--only F7]``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".": "ablations bursts_exp closed_loop_be deadlines fec_comparison "
         "fig2 fig5 fig7 fig8 fig9 fig10 heterogeneous multihop "
         "rd_smoothing scaling table1",
    ".ascii_plot": "plot_series plot_values",
    ".common": "ExperimentResult format_table",
    ".export": "result_to_dict write_json write_series_csv",
    ".runner": "EXPERIMENTS main run_all",
})
