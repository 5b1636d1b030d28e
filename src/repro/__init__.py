"""repro — reproduction of "Multi-layer Active Queue Management and
Congestion Control for Scalable Video Streaming" (ICDCS 2004).

The package implements PELS (Partitioned Enhancement Layer Streaming)
end to end on a pure-Python discrete-event network simulator:

* :mod:`repro.sim` — the simulator substrate (ns2 substitute).
* :mod:`repro.cc` — congestion controllers (MKC, Kelly, AIMD, TFRC, TCP).
* :mod:`repro.video` — FGS video model, synthetic Foreman trace, R-D/PSNR.
* :mod:`repro.core` — the PELS contribution: tri-color priority AQM,
  gamma control, router feedback, sources/sinks, full-session assembly.
* :mod:`repro.analysis` — best-effort closed forms (Lemma 1, Eqs. 1-3)
  and the oracles that check every engine against the paper's lemmas.
* :mod:`repro.experiments` — regenerates every table and figure.

Quickstart::

    from repro import PelsScenario, PelsSimulation

    sim = PelsSimulation(PelsScenario(n_flows=2, duration=30.0)).run()
    print(sim.flow_rates_bps())
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".analysis.best_effort": "best_effort_utility expected_useful_packets",
    ".cc.aimd": "AimdController",
    ".cc.base": "RateController make_controller",
    ".cc.kelly": "KellyController",
    ".cc.mkc": "MkcController mkc_equilibrium_loss mkc_stationary_rate",
    ".core.feedback": "RouterFeedback",
    ".core.gamma": "GammaController pels_utility_lower_bound",
    ".core.pels_queue": "PelsBottleneckQueue PelsQueueConfig",
    ".core.session": "PelsScenario PelsSimulation",
    ".core.sink": "PelsSink",
    ".core.source": "PelsSource",
    ".sim.engine": "Simulator",
    ".sim.packet": "Color Packet",
    ".sim.topology": "BarbellConfig build_barbell",
    ".video.fgs": "FgsConfig",
    ".video.psnr": "reconstruct_psnr",
    ".video.traces": "VideoTrace generate_foreman_like",
})
