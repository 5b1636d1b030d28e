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

from .chain import Chain, ChainConfig, build_chain
from .engine import Event, PeriodicTimer, Process, SimulationError, Simulator
from .link import Link
from .node import Agent, Host, Node, Router
from .packet import ACK_SIZE, Color, FeedbackLabel, Packet
from .queues import DropTailQueue, QueueDiscipline, QueueStats, REDQueue
from .scheduler import StrictPriorityScheduler, WeightedRoundRobinScheduler
from .stats import DelayProbe, RateMeter, TimeSeries, summarize
from .topology import Barbell, BarbellConfig, build_barbell
from .traffic import CbrSource, PoissonSource

__all__ = [
    "ACK_SIZE",
    "Agent",
    "Barbell",
    "BarbellConfig",
    "CbrSource",
    "Chain",
    "ChainConfig",
    "Color",
    "DelayProbe",
    "DropTailQueue",
    "Event",
    "FeedbackLabel",
    "Host",
    "Link",
    "Node",
    "Packet",
    "PeriodicTimer",
    "PoissonSource",
    "Process",
    "QueueDiscipline",
    "QueueStats",
    "REDQueue",
    "RateMeter",
    "Router",
    "SimulationError",
    "Simulator",
    "StrictPriorityScheduler",
    "TimeSeries",
    "WeightedRoundRobinScheduler",
    "build_barbell",
    "build_chain",
    "summarize",
]
