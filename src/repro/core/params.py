"""The paper's control plane as one record: MKC's gains and rate band
(Eq. 8), the gamma loop (Eq. 4) and the router's feedback cadence
(Eq. 11).  Every config that runs it — packet, fluid or live — inherits
:class:`ControlParams`, so the Section 6 defaults are declared here
once and a config that differs overrides only the default it changes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Optional, Tuple

__all__ = ["ControlParams", "check_interferers"]


@dataclass
class ControlParams:
    """The control plane at the Section 6 evaluation's values."""

    alpha_bps: float = 20_000.0
    beta: float = 0.5
    initial_rate_bps: float = 128_000.0
    max_rate_bps: float = 10_000_000.0

    sigma: float = 0.5
    p_thr: float = 0.75
    gamma0: float = 0.5
    gamma_low: float = 0.05
    gamma_high: float = 0.95

    feedback_interval: float = 0.030
    #: Sliding-window length (in feedback intervals) for the router's
    #: arrival-rate estimate; see RouterFeedback.window_intervals.
    feedback_window: int = 5

    def control(self, rate_ceiling_bps: float) -> "ControlParams":
        """The bare record of an inheriting config, clamped at a
        physical ceiling: a source cannot transmit faster than the
        coded ``R_max``, so the controller is clamped there too
        (otherwise MKC would integrate its rate far beyond it)."""
        values = {f.name: getattr(self, f.name) for f in fields(ControlParams)}
        values["max_rate_bps"] = min(self.max_rate_bps, rate_ceiling_bps)
        return ControlParams(**values)

    def controller_kwargs(self, name: str = "mkc",
                          feedback_delay: Optional[float] = None) -> dict:
        """Arguments of the registered controller ``name``: all take
        the rate band, only MKC the Eq. 8 gains and sample age."""
        kwargs = {"initial_rate_bps": self.initial_rate_bps,
                  "max_rate_bps": self.max_rate_bps}
        if name == "mkc":
            kwargs.update(alpha_bps=self.alpha_bps, beta=self.beta)
            if feedback_delay is not None:
                kwargs["feedback_delay"] = feedback_delay
        return kwargs

    def gamma_kwargs(self) -> dict:
        """Arguments of :class:`~repro.core.gamma.GammaController`."""
        return {"sigma": self.sigma, "p_thr": self.p_thr,
                "gamma0": self.gamma0, "gamma_low": self.gamma_low,
                "gamma_high": self.gamma_high}

    def feedback_delay(self, rtt: float) -> float:
        """Age of the loss samples reaching a flow: round trip plus the
        router's windowed-measurement lag; Eq. (8) references the rate
        from that long ago."""
        return rtt + self.feedback_interval * (self.feedback_window + 1) / 2


def check_interferers(interferers: Iterable[Tuple[int, float, float, float]],
                      n_routers: int) -> None:
    """Reject ``(router, start_s, stop_s, rate_bps)`` interferers a
    path of ``n_routers`` PELS routers cannot carry."""
    for router, start, stop, rate in interferers:
        if not 0 <= router < n_routers:
            raise ValueError(f"interferer router {router} out of range")
        if stop < start:
            raise ValueError("interferer stops before it starts")
        if rate <= 0:
            raise ValueError("interferer rate must be positive")
