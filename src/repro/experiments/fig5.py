"""Fig. 5 — stability of the gamma controller vs the gain sigma.

Iterates Eq. (4) under constant heavy loss (p = 0.5, p_thr = 0.75):
sigma = 0.5 converges monotonically to ``gamma* = p/p_thr ≈ 0.67``;
sigma = 3 (outside Lemma 2's ``0 < sigma < 2`` band) oscillates
divergently.  A delayed variant (Eq. 5) is included to illustrate
Lemma 3: the stability range does not shrink with feedback delay.
"""

from __future__ import annotations

from ..core.gamma import (gamma_fixed_point, is_stable_sigma, iterate_gamma,
                          iterate_gamma_delayed)
from .common import ExperimentResult, check

__all__ = ["run"]


def run(fast: bool = False, loss: float = 0.5, p_thr: float = 0.75,
        steps: int = 30) -> ExperimentResult:
    """Regenerate Fig. 5 (gamma trajectories for several sigmas)."""
    if fast:
        steps = max(10, steps // 2)
    sigmas = [0.5, 1.5, 3.0]
    losses = [loss] * steps
    target = gamma_fixed_point(loss, p_thr)
    result = ExperimentResult(
        "F5", f"gamma(k) under p = {loss}, p_thr = {p_thr} (Fig. 5)")

    rows = []
    for sigma in sigmas:
        gammas = iterate_gamma(sigma, p_thr, losses, gamma0=0.5)
        final = gammas[-1]
        amplitude = max(abs(g - target) for g in gammas[-5:])
        stable = is_stable_sigma(sigma)
        rows.append((sigma, "stable" if stable else "UNSTABLE",
                     round(final, 3) if abs(final) < 1e6 else float(final),
                     round(amplitude, 4) if amplitude < 1e6 else float(amplitude)))
        result.series[f"gamma_sigma_{sigma}"] = gammas
        if stable:
            check(result, f"fixed_point_sigma_{sigma}", final, target,
                  rel_tol=0.01)
        else:
            result.metrics[f"divergence_sigma_{sigma}"] = amplitude
            result.note(f"sigma={sigma}: tail amplitude {amplitude:.3g} "
                        "(diverges, as in Fig. 5)")

    # Lemma 3: same gains under a 5-step feedback delay.
    delayed = iterate_gamma_delayed(0.5, p_thr, losses, delay=5, gamma0=0.5)
    check(result, "delayed_sigma_0.5_final", delayed[-1], target, rel_tol=0.05)

    result.add_table(["sigma", "Lemma 2 verdict", "gamma(final)",
                      "|gamma-gamma*| tail"], rows,
                     title=f"gamma* = p/p_thr = {target:.3f}")
    result.note("sigma=0.5 and 1.5 converge to gamma*; sigma=3 violates "
                "0 < sigma < 2 and oscillates divergently.")
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
