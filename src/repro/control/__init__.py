"""Online meta-control: PID tuning of the PELS control-law parameters.

See :mod:`repro.control.meta` for the architecture.  The package is
fully opt-in: sessions only construct a :class:`MetaController` when a
scenario (or ``--tune``) asks for one, so default runs carry zero
adaptive-control state.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".backend": "MemoryBackend",
    ".meta": "MetaController MetaControllerConfig",
    ".pid": "PIDController",
})
