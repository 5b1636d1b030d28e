"""Rate-controller interface shared by all congestion controllers.

PELS is explicitly independent of the congestion controller (paper,
Section 5): any controller mapping loss feedback to a sending rate can
drive a PELS source.  This module defines that contract and a small
registry so experiments can select controllers by name.

Controllers are also independent of the *clock*: every method takes
``now`` as an explicit argument and nothing here schedules events, so
the same controller instances run inside the discrete-event simulator
and against the wall clock in :mod:`repro.live` (see
:mod:`repro.core.clock` for the Clock protocol naming that contract).
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Type

__all__ = ["TunableParam", "Tunable", "RateController",
           "BUILTIN_CONTROLLERS", "register_controller", "make_controller",
           "available_controllers", "temporary_controller"]


@dataclass(frozen=True)
class TunableParam:
    """One online-adjustable parameter and its safe range.

    The range is the *hard* envelope the tuning seam enforces — chosen
    so no value inside it can violate the paper's stability lemmas
    (e.g. MKC's beta stays strictly inside Lemma 5's ``(0, 2)``).  A
    meta-controller may ask for anything; :meth:`Tunable.apply_params`
    clamps to ``[lo, hi]`` before applying.
    """

    name: str
    lo: float
    hi: float
    description: str = ""

    def clamp(self, value: float) -> float:
        return min(self.hi, max(self.lo, float(value)))


class Tunable:
    """The online-tuning seam: declare parameters, apply clamped values.

    Anything adjustable at runtime — rate controllers, the gamma
    controller, the WRR queue config — exposes its knobs through
    :meth:`tunable_params` and accepts updates through
    :meth:`apply_params`.  The seam is what keeps the meta-control
    layer (:mod:`repro.control`) generic: it never imports a concrete
    controller, only this protocol.
    """

    def tunable_params(self) -> Dict[str, TunableParam]:
        """Declared knobs by name; empty means "not tunable"."""
        return {}

    def apply_params(self, **params: float) -> Dict[str, float]:
        """Clamp each value to its safe range and apply it.

        Returns the values actually applied (post-clamp), keyed by
        name.  Unknown names raise — a meta-controller addressing a
        knob the target never declared is a wiring bug, not a value to
        silently drop.
        """
        declared = self.tunable_params()
        applied: Dict[str, float] = {}
        for name in sorted(params):
            spec = declared.get(name)
            if spec is None:
                raise ValueError(
                    f"{type(self).__name__} has no tunable {name!r}; "
                    f"declared: {sorted(declared)}")
            value = spec.clamp(params[name])
            self._apply_param(name, value)
            applied[name] = value
        return applied

    def _apply_param(self, name: str, value: float) -> None:
        """Set one clamped value (override for coupled parameters)."""
        setattr(self, name, value)


class RateController(Tunable):
    """Maps network feedback to a sending rate in bits/second.

    Subclasses implement :meth:`on_feedback`; the PELS source calls it
    once per *fresh* feedback epoch (Section 5.2's freshness rule), so
    controllers may assume calls are spaced by at least the router
    feedback interval.
    """

    def __init__(self, initial_rate_bps: float = 128_000.0,
                 min_rate_bps: float = 8_000.0,
                 max_rate_bps: float = 1e9) -> None:
        if initial_rate_bps <= 0:
            raise ValueError("initial rate must be positive")
        if not min_rate_bps <= initial_rate_bps <= max_rate_bps:
            raise ValueError("initial rate outside [min, max] bounds")
        self.min_rate_bps = min_rate_bps
        self.max_rate_bps = max_rate_bps
        self.rate_bps = initial_rate_bps

    def on_feedback(self, loss: float, now: float) -> float:
        """Consume a loss sample; return the new rate in bits/second."""
        raise NotImplementedError

    def _clamp(self, rate: float) -> float:
        # min(max_rate, max(min_rate, rate)) as two comparisons (one
        # clamp per fresh label; NaN falls to min_rate either way).
        low, high = self.min_rate_bps, self.max_rate_bps
        if not rate > low:
            rate = low
        return rate if rate < high else high

    def reset(self, rate_bps: float) -> None:
        """Restart from a given rate (used when a flow re-joins, and by
        the feedback-starvation recovery path after a router restart).

        Clears subclass state via :meth:`_reset_state` — without that,
        a history-keeping controller (MKC's delayed-rate ring buffer)
        would replay pre-reset rates into its first post-reset update.
        """
        self.rate_bps = self._clamp(rate_bps)
        self._reset_state()

    def _reset_state(self) -> None:
        """Hook for subclasses holding state beyond ``rate_bps``."""

    def blind_decay(self, factor: float, now: float) -> float:
        """Multiplicative rate backoff applied while feedback-starved.

        A source that has heard no fresh feedback for longer than its
        timeout cannot tell overload from a dead path, so it backs off
        exponentially (one ``factor`` step per blind interval) instead
        of holding — or worse, growing — a rate nobody acknowledged.
        """
        if not 0 < factor <= 1:
            raise ValueError("blind decay factor must be in (0, 1]")
        self.rate_bps = self._clamp(self.rate_bps * factor)
        self._record_rate(now)
        return self.rate_bps

    def _record_rate(self, now: float) -> None:
        """Hook for controllers that keep a rate history (see MKC)."""


#: Built-in controller name -> the module of this package whose import
#: registers it.  A module loads the first time one of its names is
#: asked for, so a process that runs MKC never loads the baselines
#: (nor the packet simulator under :mod:`repro.cc.tcp`), and a fresh
#: process still offers every built-in.
BUILTIN_CONTROLLERS: Dict[str, str] = {
    "aimd": "aimd",
    "kelly": "kelly",
    "kelly-classic": "kelly",
    "mkc": "mkc",
    "tfrc": "tfrc",
}

_REGISTRY: Dict[str, Type[RateController]] = {}


def _claim(name: str, cls: Type[RateController]) -> None:
    """Refuse ``name`` if it is taken, or is a built-in's and ``cls`` is
    not that built-in (registered or not, it must not be shadowed)."""
    home = BUILTIN_CONTROLLERS.get(name)
    if name in _REGISTRY or (home is not None
                             and cls.__module__ != f"{__package__}.{home}"):
        raise ValueError(f"controller {name!r} already registered")


def register_controller(name: str) -> Callable[[Type[RateController]], Type[RateController]]:
    """Class decorator registering a controller under ``name``."""

    def decorator(cls: Type[RateController]) -> Type[RateController]:
        _claim(name, cls)
        _REGISTRY[name] = cls
        return cls

    return decorator


def make_controller(name: str, **kwargs) -> RateController:
    """Instantiate a registered controller by name."""
    cls = _REGISTRY.get(name)
    if cls is None:
        home = BUILTIN_CONTROLLERS.get(name)
        if home is None:
            raise KeyError(f"unknown controller {name!r}; "
                           f"have {available_controllers()}")
        importlib.import_module(f"{__package__}.{home}")
        cls = _REGISTRY[name]
    return cls(**kwargs)


def available_controllers() -> list[str]:
    """Names of all registered controllers, every built-in included."""
    for home in sorted(set(BUILTIN_CONTROLLERS.values())):
        importlib.import_module(f"{__package__}.{home}")
    return sorted(_REGISTRY)


@contextmanager
def temporary_controller(name: str, cls: Type[RateController]):
    """Register ``cls`` under ``name`` for the scope of a ``with`` block.

    The registry is module-global state; a test registering a stub
    controller directly would leak it into every later test (an
    order-dependence bug the randomized-order suite exists to catch).
    This helper guarantees removal even when the body raises.
    """
    _claim(name, cls)
    _REGISTRY[name] = cls
    try:
        yield cls
    finally:
        _REGISTRY.pop(name, None)
