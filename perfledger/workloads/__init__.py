"""The six workloads of the perf ledger.

Each workload module exposes the same three functions:

``setup(seed)``
    Everything from a fresh interpreter up to the first timed
    operation — imports, scenario build, shard / service start — and
    returns the context the run needs.  ``setup_child.py`` calls only
    this (then ``teardown``), which is how ``setup_s`` is measured.
``run(ctx, seconds, seed, traced)``
    Measures for about ``seconds`` seconds and returns an
    :class:`Outcome`.  With ``traced`` false the outcome carries the
    per-rep samples of every end-to-end metric; with ``traced`` true it
    carries the per-layer values of one traced rep and the recorder
    holding its spans.  End-to-end metrics are never read from a
    traced rep.
``teardown(ctx)``
    Stops every process ``setup`` started and waits for it.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = ["Outcome", "MODULES", "load"]

#: Workload name -> module (under this package) implementing it.
MODULES = {
    "sim_cbr_100": "sim",
    "sim_tcp_4": "sim",
    "fluid_fabric": "fluid",
    "live_shard_flood": "flood",
    "live_gateway_load": "gateway",
    "service_jobs": "service",
}


@dataclass
class Outcome:
    """What one run of one workload measured."""

    #: End-to-end metric name -> per-rep samples (untraced runs).
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Per-layer metric name -> value (traced runs).
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Human-readable context printed beside the rows (utilisation,
    #: tail percentiles, generator lateness, failed gates).
    notes: List[str] = field(default_factory=list)
    #: Raw (unscaled) medians behind the reference-host values, and the
    #: calibration they were scaled by; written to the result header.
    raw: Dict[str, float] = field(default_factory=dict)
    #: Rows a traced run can only compute once the probes have run:
    #: called with every per-layer value so far, returns more.
    derive: Optional[Callable[[Dict[str, float]], Dict[str, float]]] = None
    #: Recorder holding the traced rep's spans (traced runs).
    recorder: Optional[object] = None


def load(workload: str):
    """Import the module implementing ``workload``."""
    if workload not in MODULES:
        raise KeyError(workload)
    return importlib.import_module(
        f"{__name__}.{MODULES[workload]}")
