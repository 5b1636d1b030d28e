"""The online meta-controller: PID loops over the PELS control law.

The paper fixes MKC's ``alpha``/``beta``, gamma's ``sigma``/``p_thr``
and the WRR weights per scenario.  :class:`MetaController` tunes them
online against what the obs layer measures each feedback epoch
(:class:`~repro.obs.monitor.EpochObservation`), through the clamped
tuning seam of :mod:`repro.cc.base` — so no adjustment can leave the
paper's stability envelopes (Lemma 2/3 for sigma, Lemma 5 for beta).

Three loops, each a :class:`~repro.control.pid.PIDController`:

* **rate loop** — one PID *per flow*, each driving that flow's signed
  convergence error ``(r_i - r*0) / r*0`` against the *paper-fixed*
  Lemma 6 oracle ``r*0`` to zero by scaling its MKC additive gain:
  ``alpha_i = alpha0 * (1 + u_i)``.  After an outage the collapsed
  rates yield large negative errors, every PID raises its alpha and
  the flows ramp back several times faster; because each flow is
  steered by its *own* error, a laggard gets the biggest boost and a
  flow overshooting the oracle has its gain trimmed — the loop
  actively equalizes the population (MKC's intrinsic max-min
  convergence closes rate gaps only at ``(1 - beta p)`` per loss
  epoch, much slower).  At equilibrium each loop's only fixed point is
  ``u_i = 0`` (any residual ``u_i`` shifts that flow's equilibrium off
  ``r*0``, producing an opposing error that unwinds the leaky
  integral), so steady-state behaviour converges back to the paper's.
* **gamma loop** — tracks an EMA of the *gamma innovation* (mean
  distance of each flow's gamma from its Lemma 4 fixed point) against
  a small tolerance, scaling ``sigma = sigma0 * (1 - v)``: persistent
  innovation means gamma is chasing a moving loss level (LRD cross
  traffic, churn) and a larger gain tracks it faster; a quiet plant
  relaxes sigma back toward — and below — the baseline.
* **WRR loop** (opt-in) — nudges the PELS share to hold the green
  queueing delay at a target, the Section 4.1 administrative knob
  closed-loop.  Off by default because changing the share moves the
  capacity ``C`` of the oracle itself.

Every applied adjustment is recorded in a
:class:`~repro.control.backend.MemoryBackend`.

The controller is clock-free and event-free: it only acts inside
:meth:`step`, which :meth:`MetaController.attach` hangs on the router's
epoch hook — once per Eq. 11 epoch, in the simulator and the live
stack alike.  With no meta-controller attached nothing in this module
runs — untuned simulations remain event- and byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..obs.monitor import EpochObservation, observe_epoch
from .backend import MemoryBackend
from .pid import PIDController

__all__ = ["MetaControllerConfig", "MetaController"]


# The loop constants.  Conservative on purpose: at the 30 ms epoch
# cadence the output clamps keep the commanded parameters within a few
# multiples of their baselines (the tuning seam then enforces the hard
# stability envelopes independently).

# -- rate loop: alpha = alpha0 * (1 + u) --------------------------------
#: P-dominant: the boost follows the error down, so alpha returns to
#: alpha0 as reconvergence completes rather than overshooting.
RATE_KP, RATE_KI, RATE_KD = 2.0, 0.1, 0.0
#: Forgetting time constant (s) of the rate integral: a transient boost
#: unwinds on its own within a few seconds of quiet.
RATE_LEAK_S = 2.0
#: Clamp on u: alpha ranges over [alpha0 * (1 + lo), alpha0 * (1 + hi)].
RATE_OUTPUT_RANGE = (-0.5, 2.0)

# -- gamma loop: sigma = sigma0 * (1 - v) -------------------------------
GAMMA_KP, GAMMA_KI, GAMMA_KD = 3.0, 0.2, 0.0
GAMMA_LEAK_S = 3.0
#: Innovation level considered "converged" (the setpoint).
INNOVATION_TOLERANCE = 0.02
#: EMA weight of each new innovation sample.
INNOVATION_SMOOTHING = 0.3
#: Clamp on v: sigma ranges over [sigma0 * (1 - hi), sigma0 * (1 - lo)].
GAMMA_OUTPUT_RANGE = (-2.0, 0.5)

# -- WRR loop: share = share0 + w ---------------------------------------
WRR_KP, WRR_KI = 2.0, 0.2
#: Green-queue mean delay target (seconds).
GREEN_DELAY_TARGET_S = 0.005
#: Clamp on the share offset w.
WRR_OUTPUT_RANGE = (-0.3, 0.3)


@dataclass
class MetaControllerConfig:
    """Cadence and loop toggles of the meta-controller (the gains,
    setpoints and clamps are the module constants above)."""

    #: Minimum seconds between applied adjustments (PID gating).
    update_interval: float = 0.24
    tune_rate: bool = True
    tune_gamma: bool = True
    #: Opt-in: changing the share moves the oracle's capacity ``C``.
    tune_wrr: bool = False


class MetaController:
    """Online PID tuning of an attached PELS control plane."""

    def __init__(self, config: Optional[MetaControllerConfig] = None,
                 backend: Optional[MemoryBackend] = None) -> None:
        self.config = config or MetaControllerConfig()
        self.backend = backend if backend is not None else MemoryBackend()
        c = self.config

        #: One rate PID per bound flow — created by :meth:`bind`.
        self.rate_pids: List[Optional[PIDController]] = []
        self.gamma_pid = PIDController(
            kp=GAMMA_KP, ki=GAMMA_KI, kd=GAMMA_KD,
            setpoint=INNOVATION_TOLERANCE,
            output_min=GAMMA_OUTPUT_RANGE[0],
            output_max=GAMMA_OUTPUT_RANGE[1],
            update_interval=c.update_interval,
            integral_leak=GAMMA_LEAK_S)
        self.wrr_pid = PIDController(
            kp=WRR_KP, ki=WRR_KI, setpoint=GREEN_DELAY_TARGET_S,
            output_min=WRR_OUTPUT_RANGE[0],
            output_max=WRR_OUTPUT_RANGE[1],
            update_interval=c.update_interval)

        self.controllers: List = []
        self.gammas: List = []
        self.r_star: float = 0.0
        self._alpha0: List[Optional[float]] = []
        self._sigma0: List[float] = []
        self._wrr_apply: Optional[Callable[[float], None]] = None
        self._share0: float = 0.5
        self._innovation_ema: Optional[float] = None
        self.steps = 0
        self.adjustments = 0

    # -- wiring ---------------------------------------------------------

    def bind(self, controllers: Sequence, gammas: Sequence, r_star: float,
             wrr_apply: Optional[Callable[[float], None]] = None,
             wrr_share0: float = 0.5) -> "MetaController":
        """Point the loops at a set of controllers/gammas.

        ``r_star`` is the *paper-fixed* Lemma 6 oracle computed from
        the baseline parameters — the setpoint never moves with the
        tuned alpha, which is what makes the rate loop self-correcting.
        ``wrr_apply`` receives the new PELS share when the WRR loop is
        enabled (``SessionView.set_pels_share``).
        """
        if r_star <= 0:
            raise ValueError("r_star must be positive")
        self.controllers = list(controllers)
        self.gammas = list(gammas)
        self.r_star = r_star
        # Baselines captured here are what reset() restores and what
        # the multiplicative mappings scale from.
        self._alpha0 = [
            getattr(ctl, "alpha_bps", None)
            if "alpha_bps" in ctl.tunable_params() else None
            for ctl in self.controllers]
        self.rate_pids = [
            None if alpha0 is None else self._make_rate_pid()
            for alpha0 in self._alpha0]
        self._sigma0 = [g.sigma for g in self.gammas]
        self._wrr_apply = wrr_apply
        self._share0 = wrr_share0
        return self

    def _make_rate_pid(self) -> PIDController:
        return PIDController(
            kp=RATE_KP, ki=RATE_KI, kd=RATE_KD, setpoint=0.0,
            output_min=RATE_OUTPUT_RANGE[0],
            output_max=RATE_OUTPUT_RANGE[1],
            update_interval=self.config.update_interval,
            integral_leak=RATE_LEAK_S)

    def attach(self, view) -> "MetaController":
        """Wire into a session's :class:`~repro.core.report.SessionView`
        (single-hop, multi-hop or live alike).

        Chains onto the first port's ``epoch_hook`` *after* any
        already-installed hook (the :class:`~repro.obs.monitor.SimulationMonitor`
        attaches first), so the monitor snapshots each epoch before the
        parameters move — tuned runs are auditable epoch-by-epoch.
        One step per Eq. 11 epoch; adds no events to the heap.
        """
        r_star = view.lemma6_rate_bps()
        self.bind([sender.controller for sender in view.senders],
                  [sender.gamma_controller for sender in view.senders],
                  r_star,
                  wrr_apply=view.set_pels_share if self.config.tune_wrr
                  else None, wrr_share0=view.pels_share)

        epochs = view.ports[0].epochs
        previous = epochs.epoch_hook

        def _on_epoch(log) -> None:
            if previous is not None:
                previous(log)
            self.step(observe_epoch(view, r_star), view.clock.now)

        epochs.epoch_hook = _on_epoch
        return self

    # -- the control step ----------------------------------------------

    def step(self, obs: EpochObservation, now: float) -> None:
        """Consume one epoch observation; maybe adjust parameters.

        Each enabled loop feeds its PID; a ``None`` PID return (gating
        interval not yet elapsed) leaves the parameters untouched, so
        adjustments land at the configured cadence regardless of how
        often the host calls ``step``.
        """
        self.steps += 1
        c = self.config

        if c.tune_rate and self.controllers:
            self._step_rate(obs, now)

        if c.tune_gamma and self.gammas:
            sample = obs.gamma_innovation
            ema = self._innovation_ema
            ema = sample if ema is None else \
                ema + INNOVATION_SMOOTHING * (sample - ema)
            self._innovation_ema = ema
            v = self.gamma_pid.update(ema, now)
            if v is not None:
                self._apply_sigma(1.0 - v, now)

        if c.tune_wrr and self._wrr_apply is not None:
            green_delay = obs.delays_s.get("green")
            if green_delay is not None:
                w = self.wrr_pid.update(green_delay, now)
                if w is not None:
                    self._apply_share(self._share0 + w, now)

    def _step_rate(self, obs: EpochObservation, now: float) -> None:
        """Per-flow rate loops: each flow steered by its own error.

        Falls back to the population error when the observation does
        not carry one rate per bound controller (a live stack binding
        flows lazily can briefly disagree)."""
        applied = {}
        per_flow = len(obs.rates_bps) == len(self.controllers)
        for i, ctl in enumerate(self.controllers):
            pid = self.rate_pids[i]
            if pid is None:
                continue
            error = ((obs.rates_bps[i] - obs.r_star) / obs.r_star
                     if per_flow else obs.conv_error)
            u = pid.update(error, now)
            if u is not None:
                result = ctl.apply_params(
                    alpha_bps=self._alpha0[i] * (1.0 + u))
                applied[f"alpha_bps_{i}"] = result["alpha_bps"]
        if applied:
            self.adjustments += 1
            self.backend.record(now, "rate", applied)

    def _apply_sigma(self, scale: float, now: float) -> None:
        applied = {}
        for i, gamma in enumerate(self.gammas):
            result = gamma.apply_params(sigma=self._sigma0[i] * scale)
            applied[f"sigma_{i}"] = result["sigma"]
        if applied:
            self.adjustments += 1
            self.backend.record(now, "gamma", applied)

    def _apply_share(self, share: float, now: float) -> None:
        from ..core.pels_queue import PELS_SHARE_SAFE_RANGE

        lo, hi = PELS_SHARE_SAFE_RANGE
        share = min(hi, max(lo, share))
        self._wrr_apply(share)
        self.adjustments += 1
        self.backend.record(now, "wrr", {"pels_share": share})

    # -- lifecycle ------------------------------------------------------

    def reset(self) -> None:
        """Restore every wrapped controller to its bound baseline.

        Parameters return to the values captured by :meth:`bind`, the
        PIDs and the innovation EMA forget their state (the next
        ``update`` primes again), and the WRR share — if this instance
        ever moved it — snaps back.  The backend's adjustment log is
        kept: it is an audit trail, not control state.
        """
        for i, ctl in enumerate(self.controllers):
            alpha0 = self._alpha0[i]
            if alpha0 is not None:
                ctl.apply_params(alpha_bps=alpha0)
        for i, gamma in enumerate(self.gammas):
            gamma.apply_params(sigma=self._sigma0[i])
        if self._wrr_apply is not None and \
                self.backend.latest("wrr") is not None:
            self._wrr_apply(self._share0)
        for pid in self.rate_pids:
            if pid is not None:
                pid.reset()
        self.gamma_pid.reset()
        self.wrr_pid.reset()
        self._innovation_ema = None
