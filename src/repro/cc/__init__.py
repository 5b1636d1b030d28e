"""Congestion-control substrate: MKC, Kelly, AIMD, TFRC and TCP load.

The paper's PELS framework is congestion-control agnostic; the default
controller is Max-min Kelly Control (MKC, Eq. 8).  Baselines are kept
here for the comparison experiments.  A built-in controller's module
loads when a name here is read or when the registry in
:mod:`repro.cc.base` is first asked for it, so ``make_controller("mkc")``
never loads the packet simulator that :mod:`repro.cc.tcp` drives.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".aimd": "AimdController",
    ".base": "RateController available_controllers make_controller "
             "register_controller",
    ".kelly": "ClassicKellyController KellyController",
    ".mkc": "MkcController mkc_equilibrium_loss mkc_stationary_rate",
    ".tcp": "TcpSink TcpSource",
    ".tfrc": "TfrcController",
})
