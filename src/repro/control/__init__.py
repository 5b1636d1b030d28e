"""Online meta-control: PID tuning of the PELS control-law parameters.

See :mod:`repro.control.meta` for the architecture.  The package is
fully opt-in: sessions only construct a :class:`MetaController` when a
scenario (or ``--tune``) asks for one, so default runs carry zero
adaptive-control state.
"""

from .backend import MemoryBackend
from .meta import MetaController, MetaControllerConfig
from .pid import PIDController

__all__ = ["PIDController", "MetaController", "MetaControllerConfig",
           "MemoryBackend"]
