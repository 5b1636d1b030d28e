"""Paper-oracle conformance checks: Lemmas 2-6 and Eqs. 2-6 as verdicts.

Each ``check_*`` function compares something measured — a fluid or
packet run, an iterated controller, a closed-form implementation —
against the paper's prediction and returns an :class:`OracleVerdict`
carrying the measured/expected pair, so failing property tests print
the actual numbers instead of a bare assertion.

The ``draw_*`` functions produce randomized-but-valid configurations
from a caller-supplied ``random.Random`` (stdlib; the property suite in
``tests/test_oracles.py`` seeds it for reproducibility).  Draw ranges
are chosen so the relevant prediction is in its informative regime —
e.g. the Lemma 4 draw resamples until the equilibrium gamma lands
strictly inside the operational band, because a clamped gamma cannot
exhibit ``p_R -> p_thr``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..cc.mkc import mkc_equilibrium_loss, mkc_stationary_rate
from ..core.gamma import (gamma_fixed_point, is_stable_sigma, iterate_gamma,
                          iterate_gamma_delayed, pels_utility_lower_bound)
from ..fluid.engine import FluidEngine, FluidResult
from ..fluid.scenario import FluidScenario
from .best_effort import best_effort_utility, expected_useful_packets

__all__ = [
    "NetworkEquilibrium",
    "OracleVerdict",
    "draw_fluid_scenario",
    "draw_gamma_config",
    "draw_loss_horizon",
    "check_lemma6_fluid",
    "check_lemma6_rates",
    "check_lemma4_fixed_point",
    "check_lemma4_fluid",
    "check_gamma_stability",
    "check_tuned_stability",
    "check_eq2_identity",
    "check_eq3_identity",
    "check_eq6_bound",
    "check_network_equilibrium",
    "network_equilibrium",
]


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of one oracle check, with the numbers that produced it."""

    name: str
    ok: bool
    measured: float
    expected: float
    tolerance: float
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - diagnostic formatting
        status = "OK" if self.ok else "VIOLATED"
        extra = f" ({self.detail})" if self.detail else ""
        return (f"{self.name}: {status} measured={self.measured:.6g} "
                f"expected={self.expected:.6g} tol={self.tolerance:g}{extra}")


# -- randomized configuration draws ------------------------------------------


def draw_fluid_scenario(rng: random.Random, duration: float = 60.0,
                        congested: bool = False) -> FluidScenario:
    """A random single-bottleneck fluid scenario in the stable regime.

    With ``congested=True`` the draw resamples until the equilibrium
    loss puts ``gamma* = p*/p_thr`` strictly inside the operational
    band — the precondition for observing Lemma 4's ``p_R -> p_thr``.
    """
    for _ in range(1000):
        n_flows = rng.randint(1, 24)
        capacity = rng.uniform(0.5e6, 6e6)
        alpha = rng.uniform(5_000.0, 50_000.0)
        beta = rng.uniform(0.2, 1.5)
        sigma = rng.uniform(0.1, 1.8)
        p_thr = rng.uniform(0.3, 0.95)
        scenario = FluidScenario(
            n_flows=n_flows, duration=duration,
            capacities_bps=(capacity,), alpha_bps=alpha, beta=beta,
            sigma=sigma, p_thr=p_thr,
            sample_interval=0.30, record_flows=False)
        if not congested:
            return scenario
        p_star = scenario.equilibrium_loss()
        gamma_star = p_star / p_thr
        if scenario.gamma_low * 1.5 < gamma_star < scenario.gamma_high * 0.9:
            return scenario
    raise RuntimeError("could not draw a congested scenario")  # pragma: no cover


def draw_gamma_config(rng: random.Random, stable: bool) -> dict:
    """Random (sigma, p_thr, loss, gamma0) with sigma in the requested
    stability regime (Lemma 2-3: stable iff 0 < sigma < 2)."""
    sigma = rng.uniform(0.05, 1.9) if stable else rng.uniform(2.0, 3.5)
    p_thr = rng.uniform(0.3, 0.95)
    # Keep the fixed point gamma* = p/p_thr inside (0, 1).
    loss = rng.uniform(0.02, 0.9) * p_thr
    gamma0 = rng.uniform(0.0, 1.0)
    return {"sigma": sigma, "p_thr": p_thr, "loss": loss, "gamma0": gamma0}


def draw_loss_horizon(rng: random.Random) -> dict:
    """Random (loss, frame_size) pair for the Eq. 2/3/6 identities."""
    return {"loss": rng.uniform(0.005, 0.95),
            "frame_size": rng.randint(1, 400)}


# -- Lemma 6: r* = C/N + alpha/beta ------------------------------------------


def check_lemma6_fluid(result: FluidResult,
                       tol: float = 0.01) -> OracleVerdict:
    """Tail mean rate of a fluid run vs the Lemma 6 equilibrium."""
    expected = result.scenario.lemma6_rate_bps()
    measured = result.tail_mean_rate()
    error = abs(measured - expected) / expected
    return OracleVerdict(
        name="lemma6-fluid", ok=error <= tol, measured=measured,
        expected=expected, tolerance=tol,
        detail=f"rel err {error:.4%} over {result.scenario.n_flows} flows")


def check_lemma6_rates(rates_bps: Sequence[float], capacity_bps: float,
                       n_flows: int, alpha_bps: float, beta: float,
                       tol: float = 0.05) -> OracleVerdict:
    """Observed per-flow rates (e.g. a packet sim's) vs Lemma 6."""
    expected = mkc_stationary_rate(capacity_bps, n_flows, alpha_bps, beta)
    measured = sum(rates_bps) / len(rates_bps)
    error = abs(measured - expected) / expected
    return OracleVerdict(
        name="lemma6-rates", ok=error <= tol, measured=measured,
        expected=expected, tolerance=tol, detail=f"rel err {error:.4%}")


# -- Lemma 4: p_R -> p_thr ---------------------------------------------------


def check_lemma4_fixed_point(sigma: float, p_thr: float, loss: float,
                             gamma0: float = 0.5, steps: int = 400,
                             tol: float = 1e-3) -> OracleVerdict:
    """Iterate Eq. 4 under constant loss; the implied red loss
    ``p / gamma(k)`` must converge to ``p_thr`` (Lemma 4)."""
    gammas = iterate_gamma(sigma, p_thr, [loss] * steps, gamma0)
    gamma_inf = gammas[-1]
    measured = loss / gamma_inf if gamma_inf > 0 else float("inf")
    error = abs(measured - p_thr) / p_thr
    return OracleVerdict(
        name="lemma4-fixed-point", ok=error <= tol, measured=measured,
        expected=p_thr, tolerance=tol,
        detail=f"gamma*={gamma_fixed_point(loss, p_thr):.4f} "
               f"gamma({steps})={gamma_inf:.4f}")


def check_lemma4_fluid(result: FluidResult,
                       tol: float = 0.05) -> OracleVerdict:
    """Tail gamma of a congested fluid run implies red loss ~ p_thr.

    Valid only when the equilibrium gamma sits inside the operational
    band (the draw guarantees it); at a clamp the implied loss is
    whatever the clamp dictates, not ``p_thr``.
    """
    s = result.scenario
    p_star = s.equilibrium_loss()
    gamma_tail = result.tail_gamma()
    measured = p_star / gamma_tail if gamma_tail > 0 else float("inf")
    error = abs(measured - s.p_thr) / s.p_thr
    return OracleVerdict(
        name="lemma4-fluid", ok=error <= tol, measured=measured,
        expected=s.p_thr, tolerance=tol,
        detail=f"p*={p_star:.4f} tail gamma={gamma_tail:.4f}")


# -- Lemma 2-3: gamma stable iff 0 < sigma < 2 -------------------------------


def check_gamma_stability(sigma: float, p_thr: float, loss: float,
                          gamma0: float = 0.5, delay: Optional[int] = None,
                          steps: int = 300,
                          tol: float = 1e-6) -> OracleVerdict:
    """Empirical convergence of Eq. 4 (or delayed Eq. 5) vs Lemma 2-3.

    A stable sigma must drive gamma to its fixed point; an unstable one
    (``sigma >= 2``) must leave the terminal error at least as large as
    the initial one (the pole ``|1 - sigma| >= 1`` cannot contract).
    The verdict's ``ok`` means *agreement with the lemma*, either way.
    """
    losses = [loss] * steps
    if delay is None:
        gammas = iterate_gamma(sigma, p_thr, losses, gamma0)
    else:
        gammas = iterate_gamma_delayed(sigma, p_thr, losses, delay, gamma0)
    target = gamma_fixed_point(loss, p_thr)
    initial_err = abs(gamma0 - target)
    final_err = abs(gammas[-1] - target)
    predicted_stable = is_stable_sigma(sigma)
    if predicted_stable:
        converged = final_err <= max(tol, 1e-9 + 1e-4 * initial_err)
        ok = converged
        detail = "converged" if converged else "failed to converge"
    else:
        diverged = final_err >= initial_err * (1 - 1e-9) or initial_err == 0
        ok = diverged
        detail = "did not contract" if diverged else "contracted unexpectedly"
    return OracleVerdict(
        name="lemma2-3-stability", ok=ok, measured=final_err,
        expected=0.0 if predicted_stable else initial_err, tolerance=tol,
        detail=f"sigma={sigma:.3f} delay={delay} {detail}")


# -- Eq. 2/3: best-effort useful packets and utility -------------------------


def check_eq2_identity(loss: float, frame_size: int,
                       tol: float = 1e-9) -> OracleVerdict:
    """Closed-form E[Y] (Eq. 2) vs the tail-sum definition.

    ``E[Y] = sum_{i=1..H} P(first i packets all arrive)
           = sum_{i=1..H} (1-p)^i`` — brute-forced term by term.
    """
    expected = sum((1 - loss) ** i for i in range(1, frame_size + 1))
    measured = expected_useful_packets(loss, frame_size)
    error = abs(measured - expected) / max(expected, 1e-300)
    return OracleVerdict(
        name="eq2-useful-packets", ok=error <= tol, measured=measured,
        expected=expected, tolerance=tol,
        detail=f"p={loss:.4f} H={frame_size}")


def check_eq3_identity(loss: float, frame_size: int,
                       tol: float = 1e-9) -> OracleVerdict:
    """Eq. 3 utility vs its E[Y] normalization.

    ``U = (1 - (1-p)^H) / (H p)`` must equal ``E[Y] / (H (1-p))`` —
    the useful fraction of the packets that actually arrive.
    """
    ey = expected_useful_packets(loss, frame_size)
    expected = ey / (frame_size * (1 - loss))
    measured = best_effort_utility(loss, frame_size)
    error = abs(measured - expected) / max(expected, 1e-300)
    return OracleVerdict(
        name="eq3-utility", ok=error <= tol, measured=measured,
        expected=expected, tolerance=tol,
        detail=f"p={loss:.4f} H={frame_size}")


# -- Eq. 6: the PELS utility lower bound -------------------------------------


def check_eq6_bound(loss: float, p_thr: float,
                    tol: float = 1e-12) -> OracleVerdict:
    """Eq. 6 bound: identity, edge, range, and asymptotic dominance.

    Below ``p_thr`` the bound must equal ``(1 - gamma*) / (1 - p)``,
    the protected fraction of received packets; at and above it
    (``gamma* >= 1``) it must be 0.  It must lie in [0, 1], and for
    ``p < p_thr`` eventually beat the best-effort utility, whose Eq. 3
    value decays like ``1/(H p)``.
    """
    bound = pels_utility_lower_bound(loss, p_thr)
    gamma_star = gamma_fixed_point(loss, p_thr)
    expected = (1 - gamma_star) / (1 - loss) if loss < p_thr else 0.0
    identity = abs(bound - expected) <= tol
    in_range = 0.0 <= bound <= 1.0 + 1e-12
    dominates = True
    if loss < p_thr and bound > 0:
        horizon = 1
        dominates = False
        while horizon <= 1 << 20:
            if best_effort_utility(loss, horizon) < bound:
                dominates = True
                break
            horizon *= 2
    ok = identity and in_range and dominates
    return OracleVerdict(
        name="eq6-pels-bound", ok=ok, measured=bound, expected=expected,
        tolerance=tol,
        detail=f"p={loss:.4f} p_thr={p_thr:.3f} identity={identity} "
               f"in_range={in_range} dominates={dominates}")


# -- multi-bottleneck network equilibrium (Lemma 6 generalized) ---------------


@dataclass(frozen=True)
class NetworkEquilibrium:
    """Closed-form max-min equilibrium of a multi-path fluid fabric."""

    #: Stationary per-flow rate on each path.
    path_rates_bps: Tuple[float, ...]
    #: Router that binds each path's rate (-1 when only the rate clamp
    #: binds).
    path_binding_router: Tuple[int, ...]
    #: Stationary virtual loss at each router.
    router_loss: Tuple[float, ...]
    #: Population mean rate (flow-count weighted over paths).
    mean_rate_bps: float


def network_equilibrium(scenario: FluidScenario) -> NetworkEquilibrium:
    """Lemma 6 extended to many paths over many routers.

    PELS flows react to the *largest* virtual loss on their path
    (max-min labels), so each path's stationary rate is set by exactly
    one binding router.  Which router binds which path is resolved by
    the classic progressive-filling argument, restated in loss terms:

    * At a router ``j`` whose unresolved crossing flows number ``n``
      (``A = n alpha/beta``) and whose already-bound crossing flows
      contribute throughput ``F``, self-consistent MKC equilibrium
      (``r = alpha/(beta p)`` per flow, arrivals ``C/(1-p)``) makes the
      local loss the positive root of ``F p^2 + (A + C - F) p - A = 0``
      (``p = A/(A+C)`` when ``F = 0``).
    * The router with the globally largest candidate loss really is the
      max along every unresolved path that crosses it — no other router
      can later exceed it (binding flows elsewhere only lowers loss) —
      so those paths bind there at ``r = alpha/(beta p)``, clamped to
      the operational band.
    * Repeat with those rates folded into ``F`` until every path is
      bound.

    Interferers are not modelled (the oracle describes the stationary
    fabric; time-varying cross traffic shifts the equilibrium
    piecewise).  Final router losses are recomputed from the resolved
    loads, so rate-clamped paths stay consistent with what the engine
    measures.
    """
    paths = scenario.path_tuples()
    counts = scenario.path_flow_counts()
    caps = scenario.capacities_bps
    alpha, beta = scenario.alpha_bps, scenario.beta
    mn, mx = scenario.min_rate_bps, scenario.max_rate_bps
    n_paths = len(paths)
    rates = [0.0] * n_paths
    binding = [-1] * n_paths
    load = [0.0] * len(caps)
    unresolved = {pi for pi in range(n_paths) if counts[pi] > 0}
    crossing: List[List[int]] = [[] for _ in caps]
    for pi, path in enumerate(paths):
        for rj in path:
            crossing[rj].append(pi)

    while unresolved:
        best_p, best_j = 0.0, -1
        for rj, cap in enumerate(caps):
            n = sum(counts[pi] for pi in crossing[rj] if pi in unresolved)
            if n == 0:
                continue
            a = n * alpha / beta
            f = load[rj]
            if f == 0.0:
                p = a / (a + cap)
            else:
                b = a + cap - f
                p = (math.sqrt(b * b + 4.0 * f * a) - b) / (2.0 * f)
            if p > best_p:
                best_p, best_j = p, rj
        if best_j < 0:  # pragma: no cover - alpha > 0 makes p > 0
            break
        r = min(mx, max(mn, alpha / (beta * best_p)))
        for pi in list(unresolved):
            if best_j in paths[pi]:
                unresolved.discard(pi)
                rates[pi] = r
                binding[pi] = best_j
                for rj in paths[pi]:
                    load[rj] += counts[pi] * r

    losses = tuple(max(0.0, (ld - cap) / ld) if ld > 0 else 0.0
                   for ld, cap in zip(load, caps))
    total = sum(counts)
    mean = (sum(c * r for c, r in zip(counts, rates)) / total
            if total else 0.0)
    return NetworkEquilibrium(
        path_rates_bps=tuple(rates), path_binding_router=tuple(binding),
        router_loss=losses, mean_rate_bps=mean)


def check_network_equilibrium(scenario: FluidScenario, result: FluidResult,
                              tol: float = 0.01) -> OracleVerdict:
    """A fluid run's tail vs the closed-form network equilibrium.

    Compares the population mean rate (relative) and every router's
    stationary virtual loss (absolute — idle routers sit at exactly 0).
    """
    eq = network_equilibrium(scenario)
    measured = result.tail_mean_rate()
    rate_err = (abs(measured - eq.mean_rate_bps) / eq.mean_rate_bps
                if eq.mean_rate_bps else 0.0)
    loss_err = max(abs(m - e) for m, e in
                   zip(result.router_loss[-1], eq.router_loss))
    ok = rate_err <= tol and loss_err <= tol
    n_bound = sum(1 for b in eq.path_binding_router if b >= 0)
    return OracleVerdict(
        name="network-equilibrium", ok=ok, measured=measured,
        expected=eq.mean_rate_bps, tolerance=tol,
        detail=f"rate rel err {rate_err:.4%}, max loss err {loss_err:.4f}, "
               f"{n_bound}/{len(eq.path_rates_bps)} paths router-bound")


# -- convenience runner ------------------------------------------------------


def run_fluid(scenario: FluidScenario) -> FluidResult:
    """Run a scenario on the stdlib list backend (deterministic)."""
    return FluidEngine(scenario, backend="list").run()


def check_tuned_stability(controller=None, gamma=None,
                          queue_config=None) -> OracleVerdict:
    """Verify an (online-tuned) control plane still sits inside the
    paper's stability envelopes and its own declared safe ranges.

    The meta-control layer promises that *no sequence of adjustments*
    can leave Lemma 5 (``0 < beta < 2``), Lemma 2/3 (``0 < sigma < 2``),
    Lemma 4's ``0 < p_thr <= 1``, or the hard ``TunableParam`` envelope
    of any declared knob.  ``measured`` is the largest violation
    distance found (0.0 when everything conforms), so a failing
    property test prints how far outside the envelope the tuner drove
    the parameter.
    """
    worst = 0.0
    details = []

    def _flag(amount: float, label: str) -> None:
        nonlocal worst
        if amount > 0:
            worst = max(worst, amount)
            details.append(label)

    def _outside_open(value: float, lo: float, hi: float) -> float:
        """Distance outside the *open* interval (boundary counts)."""
        if value <= lo:
            return (lo - value) or 1e-12
        if value >= hi:
            return (value - hi) or 1e-12
        return 0.0

    for target in (controller, gamma, queue_config):
        if target is None:
            continue
        for name, spec in target.tunable_params().items():
            value = target.pels_share() if name == "pels_share" \
                else getattr(target, name)
            _flag(max(spec.lo - value, value - spec.hi),
                  f"{type(target).__name__}.{name}={value:.6g} outside "
                  f"[{spec.lo:g}, {spec.hi:g}]")

    if controller is not None:
        beta = getattr(controller, "beta", None)
        if beta is not None:
            _flag(_outside_open(beta, 0.0, 2.0),
                  f"Lemma 5 violated: beta={beta}")
        alpha = getattr(controller, "alpha_bps", None)
        if alpha is not None and alpha <= 0:
            _flag((-alpha) or 1e-12, f"alpha must be positive, got {alpha}")
    if gamma is not None:
        _flag(_outside_open(gamma.sigma, 0.0, 2.0),
              f"Lemma 2/3 violated: sigma={gamma.sigma}")
        if not 0 < gamma.p_thr <= 1:
            _flag(_outside_open(gamma.p_thr, 0.0, 1.0) or 1e-12,
                  f"Lemma 4 needs 0 < p_thr <= 1, got {gamma.p_thr}")

    return OracleVerdict(
        name="tuned-stability", ok=worst == 0.0, measured=worst,
        expected=0.0, tolerance=0.0, detail="; ".join(details))


def violations(verdicts: List[OracleVerdict]) -> List[OracleVerdict]:
    """The subset of verdicts whose check failed (for assertion messages)."""
    return [v for v in verdicts if not v.ok]
