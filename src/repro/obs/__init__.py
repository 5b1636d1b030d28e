"""Opt-in observability: tracing, metrics, monitoring and profiling.

Everything in this package is off by default and zero-cost when off:
components hold a ``None`` reference and each instrumentation site is a
single identity check.  Activation is explicit and module-global —
``tracing()`` / ``metrics()`` context managers for scoped use, or the
``activate*`` functions for whole-process use (the runner and the
``pels trace`` CLI go through these).
"""

# Eager: lazily, ``metrics`` would resolve to the submodule, not the function.
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      activate_metrics, current_registry,
                      deactivate_metrics, metrics)
from .profile import (disable_profiling, enable_profiling, merge_profile,
                      profile_snapshot, profiling_active, reset_profile,
                      write_profile_report)
from .trace import (EVENT_TYPES, Tracer, activate, current_tracer,
                    deactivate, tracing)

__all__ = [
    "Tracer", "activate", "deactivate", "current_tracer", "tracing",
    "EVENT_TYPES",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "activate_metrics", "deactivate_metrics", "current_registry", "metrics",
    "enable_profiling", "disable_profiling", "profiling_active",
    "merge_profile", "profile_snapshot", "reset_profile",
    "write_profile_report",
]
