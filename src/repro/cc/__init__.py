"""Congestion-control substrate: MKC, Kelly, AIMD, TFRC and TCP load.

The paper's PELS framework is congestion-control agnostic; the default
controller is Max-min Kelly Control (MKC, Eq. 8).  Baselines are kept
here for the comparison experiments.
"""

# Eager: importing a controller module registers it with make_controller.
from .aimd import AimdController
from .base import (RateController, available_controllers, make_controller,
                   register_controller)
from .kelly import ClassicKellyController, KellyController
from .mkc import MkcController, mkc_equilibrium_loss, mkc_stationary_rate
from .tcp import TcpSink, TcpSource
from .tfrc import TfrcController

__all__ = [
    "AimdController",
    "ClassicKellyController",
    "KellyController",
    "MkcController",
    "RateController",
    "TcpSink",
    "TcpSource",
    "TfrcController",
    "available_controllers",
    "make_controller",
    "mkc_equilibrium_loss",
    "mkc_stationary_rate",
    "register_controller",
]
