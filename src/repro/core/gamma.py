"""The gamma (red-fraction) proportional controller — Eqs. (4)-(5).

    gamma(k) = gamma(k-1) + sigma * (p(k-1)/p_thr - gamma(k-1))

adjusts the share of red (probe) packets so that red-queue loss
converges to ``p_thr`` (Lemma 4), keeping the yellow queue loss-free
with a ``(1 - p_thr)`` safety cushion.  Lemmas 2-3: stable iff
``0 < sigma < 2``, with or without feedback delay.

The loop's closed forms each have their one definition here:
:func:`gamma_fixed_point` (Eq. 4, Lemma 4), :func:`is_stable_sigma`
(Lemmas 2-3) and :func:`pels_utility_lower_bound` (Eq. 6).
Pure iteration helpers (:func:`iterate_gamma`, :func:`iterate_gamma_delayed`)
regenerate Fig. 5; :class:`GammaController` is the stateful form the
PELS source embeds, with the operational bounds the simulations use
(``gamma_low = 0.05`` so flows keep probing when the network is idle).
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..cc.base import Tunable, TunableParam

__all__ = [
    "GammaController",
    "SIGMA_SAFE_RANGE",
    "P_THR_SAFE_RANGE",
    "gamma_fixed_point",
    "is_stable_sigma",
    "iterate_gamma",
    "iterate_gamma_delayed",
    "pels_utility_lower_bound",
    "useful_packets_pels",
]


#: Safe online-tuning envelope for sigma: strictly inside Lemma 2/3's
#: ``0 < sigma < 2`` with margin on both ends.
SIGMA_SAFE_RANGE = (0.05, 1.9)
#: Safe envelope for the red-loss target; (0, 1] per Lemma 4, bounded
#: away from 0 so the gamma fixed point ``p / p_thr`` stays finite.
P_THR_SAFE_RANGE = (0.05, 1.0)


def gamma_fixed_point(loss: float, p_thr: float) -> float:
    """Eq. (4)'s fixed point ``gamma* = p / p_thr`` (Lemma 4).

    The domain every closed form here shares: ``loss`` in [0, 1] and
    ``p_thr`` in (0, 1]; NaN is outside both.
    """
    if not 0 < p_thr <= 1:
        raise ValueError("p_thr must be in (0, 1]")
    if not 0 <= loss <= 1:
        raise ValueError("loss must be a probability in [0, 1]")
    return loss / p_thr


def is_stable_sigma(sigma: float) -> bool:
    """Lemmas 2-3: Eq. (4), and Eq. (5) under any feedback delay D,
    is stable iff ``0 < sigma < 2``.

    The roots of ``z^D = 1 - sigma`` all have magnitude
    ``|1 - sigma|^(1/D)``, inside the unit circle iff ``|1 - sigma| < 1``
    whatever D, so the range takes no delay.
    """
    return 0 < sigma < 2


def pels_utility_lower_bound(loss: float, p_thr: float) -> float:
    """Eq. (6): ``U >= (1 - p/p_thr) / (1 - p)`` under converged gamma.

    The protected (yellow + green) share ``1 - gamma*`` of what is sent
    arrives whole, out of the ``1 - p`` that arrives at all; recovered
    red packets can only raise utility.  Once ``gamma* >= 1`` nothing is
    protected and the bound is 0, not the formula's negative value.
    ``loss = 1`` is rejected: no packet arrives, so there is no share.
    """
    gamma = gamma_fixed_point(loss, p_thr)
    if loss == 1:
        raise ValueError("Eq. 6 needs loss < 1: at p = 1 no packet arrives")
    if gamma >= 1:
        return 0.0
    return (1 - gamma) / (1 - loss)


def useful_packets_pels(loss: float, p_thr: float, frame_size: int) -> float:
    """Expected useful packets per frame for converged PELS.

    The protected prefix ``(1 - gamma*) H`` sees no loss once gamma has
    converged, so all of it is useful; compare Eq. (2)'s best effort.
    """
    if frame_size < 0:
        raise ValueError("frame size cannot be negative")
    return max(0.0, 1 - gamma_fixed_point(loss, p_thr)) * frame_size


def iterate_gamma(sigma: float, p_thr: float, losses: Sequence[float],
                  gamma0: float = 0.5) -> List[float]:
    """Iterate Eq. (4) over a loss sequence; returns gamma(0..n).

    No clamping is applied so instability (|1 - sigma| >= 1) is visible,
    exactly as in Fig. 5.
    """
    if not 0 < p_thr <= 1:
        raise ValueError("p_thr must be in (0, 1]")
    gammas = [gamma0]
    gamma = gamma0
    for p in losses:
        gamma = gamma + sigma * (p / p_thr - gamma)
        gammas.append(gamma)
    return gammas


def iterate_gamma_delayed(sigma: float, p_thr: float, losses: Sequence[float],
                          delay: int, gamma0: float = 0.5) -> List[float]:
    """Iterate the delayed controller Eq. (5).

    ``gamma(k) = gamma(k-D) + sigma (p(k-D)/p_thr - gamma(k-D))`` with
    integer delay ``D`` in control steps; indexes before 0 evaluate to
    the initial condition.  Lemma 3 asserts the same stability range.
    """
    if delay < 1:
        raise ValueError("delay must be at least one control step")
    if not 0 < p_thr <= 1:
        raise ValueError("p_thr must be in (0, 1]")
    n = len(losses)
    gammas = [gamma0] * (n + 1)
    for k in range(1, n + 1):
        kd = k - delay
        gamma_old = gammas[kd] if kd >= 0 else gamma0
        p_old = losses[kd] if kd >= 0 else losses[0] if losses else 0.0
        gammas[k] = gamma_old + sigma * (p_old / p_thr - gamma_old)
    return gammas


class GammaController(Tunable):
    """Stateful gamma controller embedded in a PELS source.

    Applies Eq. (4) on each fresh loss sample, then clamps to the
    operational band ``[gamma_low, gamma_high]``.  The low bound keeps a
    minimal probing presence (the simulations use 0.05); the high bound
    prevents the enhancement layer from turning all red.
    """

    def __init__(self, sigma: float = 0.5, p_thr: float = 0.75,
                 gamma0: float = 0.5, gamma_low: float = 0.05,
                 gamma_high: float = 0.95,
                 enforce_stability: bool = True) -> None:
        if enforce_stability and not is_stable_sigma(sigma):
            raise ValueError("Lemma 2: gamma control is stable iff 0 < sigma < 2")
        if not 0 < sigma < math.inf:  # NaN too, stability check or not
            raise ValueError("sigma must be positive and finite")
        if not 0 < p_thr <= 1:
            raise ValueError("p_thr must be in (0, 1]")
        if not 0 <= gamma_low <= gamma_high <= 1:
            raise ValueError("need 0 <= gamma_low <= gamma_high <= 1")
        if not gamma_low <= gamma0 <= gamma_high:
            raise ValueError("gamma0 outside the operational band")
        self.sigma = sigma
        self.p_thr = p_thr
        self.gamma_low = gamma_low
        self.gamma_high = gamma_high
        self.gamma = gamma0
        self.updates = 0

    def tunable_params(self):
        return {
            "sigma": TunableParam("sigma", *SIGMA_SAFE_RANGE,
                                  description="Eq. 4 gain "
                                              "(Lemma 2/3: 0 < sigma < 2)"),
            "p_thr": TunableParam("p_thr", *P_THR_SAFE_RANGE,
                                  description="red-loss target (Lemma 4)"),
        }

    def update(self, loss: float) -> float:
        """One Eq. (4) step with measured FGS loss ``loss``.

        Signed router feedback (Eq. 11 goes negative under spare
        capacity) is floored at zero here: a negative loss means "no
        loss" for the purposes of red-band sizing.
        """
        if not loss > 0.0:
            loss = 0.0
        gamma = self.gamma
        gamma += self.sigma * (loss / self.p_thr - gamma)
        # min(gamma_high, max(gamma_low, gamma)) as two comparisons.
        if not gamma > self.gamma_low:
            gamma = self.gamma_low
        if not gamma < self.gamma_high:
            gamma = self.gamma_high
        self.gamma = gamma
        self.updates += 1
        return gamma

    def expected_fixed_point(self, loss: float) -> float:
        """Clamped stationary point for a stationary loss level."""
        return min(self.gamma_high,
                   max(self.gamma_low, gamma_fixed_point(loss, self.p_thr)))
