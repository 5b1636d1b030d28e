"""Fluid-model fast path: the paper's recurrences without the packets.

The packet simulator (``repro.sim`` + ``repro.core``) resolves every
packet, which costs O(packets) and caps practical sweeps at tens of
flows.  This package integrates the same control plane — MKC (Eq. 8),
the gamma controller (Eq. 4/5) and the router virtual loss (Eq. 11) —
as the discrete-time per-epoch recurrences the paper states them in.
:class:`FluidEngine` batches the integration over *segments*
(equivalence classes of flows with identical delay geometry, start
epoch and path), so per-epoch cost scales with the number of distinct
flow behaviours rather than the flow count; a million-flow fat tree
with a few hundred delay/start variants costs a few hundred segment
updates per epoch.  :class:`ReferenceFluidEngine` preserves the
original per-class integrator as a parity yardstick.

Use :class:`FluidScenario` + :class:`FluidEngine` directly, the
``pels fluid`` CLI subcommand, or the ``S1``/``S2`` scaling
experiments; the :mod:`repro.fluid.validate` builders derive matched
fluid twins of the packet scenarios for cross-validation, and
:func:`fat_tree_scenario` / :func:`chain_grid_scenario` generate the
multi-bottleneck capacity-planning topologies.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".engine": "FluidEngine FluidResult resolve_backend",
    ".reference": "ReferenceFluidEngine",
    ".scenario": "FluidScenario chain_grid_scenario fat_tree_scenario",
    ".validate": "fluid_twin_of_multihop fluid_twin_of_session",
})
