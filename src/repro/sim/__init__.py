"""Packet-level discrete-event network simulator (ns2 substitute).

Public surface of the substrate used by the PELS reproduction:

* :class:`~repro.sim.engine.Simulator` — the event loop.
* :class:`~repro.sim.packet.Packet` / :class:`~repro.sim.packet.Color` —
  packets with PELS priority marks and feedback labels.
* :class:`~repro.sim.link.Link`, :class:`~repro.sim.node.Host`,
  :class:`~repro.sim.node.Router` — topology elements.
* Queue disciplines: :class:`~repro.sim.queues.DropTailQueue`,
  :class:`~repro.sim.queues.REDQueue`, and the composite
  :class:`~repro.sim.scheduler.StrictPriorityScheduler` /
  :class:`~repro.sim.scheduler.WeightedRoundRobinScheduler`.
* :func:`~repro.sim.topology.build_barbell` — the Fig. 6 topology.
"""
