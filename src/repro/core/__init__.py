"""PELS — Partitioned Enhancement Layer Streaming (the paper's core).

* :class:`~repro.core.pels_queue.PelsQueueCore` — tri-color
  strict-priority AQM + Internet FIFO under WRR (Fig. 4 left), driven
  by :class:`~repro.core.pels_queue.PelsBottleneckQueue` in the
  simulator and by :class:`~repro.live.router.LiveRouter` on real UDP.
* :class:`~repro.core.gamma.GammaController` — the red-fraction
  controller of Eqs. (4)-(5).
* :class:`~repro.core.feedback.RouterFeedback` /
  :class:`~repro.core.feedback.FeedbackTracker` — Eq. (11) virtual-loss
  feedback with epoch freshness (Section 5.2).
* :class:`~repro.core.flow.FlowSender` /
  :class:`~repro.core.flow.FlowReceiver` — the application endpoints,
  clock-free; :class:`~repro.core.source.PelsSource` /
  :class:`~repro.core.sink.PelsSink` drive them in the simulator,
  :mod:`repro.live` on real UDP.
* :class:`~repro.core.session.PelsSimulation` — full Fig. 6 assembly.
* :class:`~repro.core.report.SessionView` /
  :func:`~repro.core.report.build_report` — the one read-out of a
  session, simulated or live.
"""
