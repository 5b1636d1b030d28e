"""The fluid numpy kernel works on the begun prefix of a start-ordered
row: the differential, the controller's partial feeds and the fence.

Differential.  ``FluidEngine._run_numpy`` as it stood when it ran one
Python iteration per ``(fwd, bwd, start)`` class per epoch is frozen in
``tests/frozen_fluid_numpy.py``.  Today's kernel stores its rings in
start order (the classes sorted by start epoch, each contiguous), runs
the controller and the matched filter over the prefix of segments that
have begun, with one flat gather per delayed lookup, and reads every
order-dependent reduction (the arrival bincount, the sample dots, the
final rows) back in segment order.  Elementwise arithmetic does not
depend on where a value is stored, so over a generated family —
clustered and spread starts (inside another class's warm-up, closer
together than a feedback delay), 1-3 routers with chain or explicit
paths, interferer steps, per-flow and ``flow_groups`` populations,
fast-forward and flow recording on and off — every ``FluidResult``
series and the final rates and gammas must be equal **bit for bit**.

Controller.  ``_ListRows.control`` and ``_NumpyRows.control`` get
every lag run's span in one call; driven from identical state (the
numpy rows' through the start-order permutation) with unfed, partly
fed and fully fed runs, and with an unfed class inside the begun
prefix, they must write the same rate row and gamma bit for bit,
leaving unfed segments' gamma alone and unstarted columns unwritten.

Fence.  ``_run_numpy`` takes the ``np`` module as an argument; a
counting proxy for it shows that the explicit ``np.*`` calls of a
post-warm-up epoch depend neither on the number of start waves nor on
the number of lag runs, and that an epoch before most waves have
begun touches a fraction of the elements a fully begun one does.
Deterministic, no wall clock.

Tier-1 runs Hypothesis' default example count; CI reruns the file with
``--hypothesis-profile=ci``.  Without numpy the whole file is skipped.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from frozen_fluid_numpy import frozen_run_numpy

from repro.fluid import engine as engine_mod
from repro.fluid.engine import FluidEngine
from repro.fluid.scenario import FluidScenario, fat_tree_scenario
from repro.obs.trace import tracing

# Before hypothesis: the numpy-free CI job installs neither.
np = pytest.importorskip("numpy")

from hypothesis import given
from hypothesis import strategies as st

T = 0.030

SERIES = ("backend", "n_epochs", "times", "mean_rate_bps", "router_loss",
          "router_rate_bps", "gamma_mean", "bottleneck", "flow_rates",
          "final_rates", "final_gammas")


@pytest.fixture(autouse=True, scope="module")
def kernel_for_small_cases():
    """Let populations of a few segments reach the numpy kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_mod, "_NUMPY_MIN_SEGMENTS", 1)
        yield


def _bits(value):
    """Floats as hex, recursively: ``==`` passes -0.0 for 0.0."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    return value


def assert_bit_identical(scenario: FluidScenario, fast_forward: bool = True):
    engine = FluidEngine(scenario, backend="numpy",
                         fast_forward=fast_forward)
    new = engine.run()
    old = frozen_run_numpy(engine, np)
    for name in SERIES:
        assert _bits(getattr(new, name)) == _bits(getattr(old, name)), name
    return new


# -- generated scenarios ------------------------------------------------------

@st.composite
def scenarios(draw) -> FluidScenario:
    n_routers = draw(st.integers(1, 3))
    routers = list(range(n_routers))
    paths = None
    if draw(st.booleans()):
        paths = tuple(draw(st.lists(
            st.lists(st.sampled_from(routers), min_size=1,
                     max_size=n_routers, unique=True).map(tuple),
            min_size=1, max_size=3)))
    # A few access-delay tiers, so several start classes share a lag
    # run; start epochs either clustered (a few epochs apart: inside
    # the previous class's W-epoch warm-up and closer than a feedback
    # delay of up to 10 epochs) or anywhere in the first 60 epochs.
    tiers = draw(st.lists(
        st.sampled_from([0.0, 0.012, 0.030, 0.045, 0.080, 0.130]),
        min_size=1, max_size=3, unique=True))
    start_epoch = st.one_of(st.integers(0, 8), st.integers(0, 60))
    members = draw(st.lists(
        st.tuples(st.sampled_from(tiers), start_epoch,
                  st.integers(0, len(paths) - 1 if paths else 0)),
        min_size=2, max_size=10))
    n_epochs = draw(st.integers(30, 200))
    duration = n_epochs * T
    interferers = tuple(
        (router, begin * T, (begin + length) * T, rate)
        for router, begin, length, rate in draw(st.lists(
            st.tuples(st.sampled_from(routers), st.integers(0, n_epochs),
                      st.integers(0, 120), st.floats(0.05e6, 2e6)),
            max_size=2)))
    common = dict(
        duration=duration, paths=paths, interferers=interferers,
        feedback_window=draw(st.integers(1, 6)),
        beta=draw(st.sampled_from([0.25, 0.5, 0.9])),
        sigma=draw(st.sampled_from([0.3, 0.5, 1.2])),
        max_rate_bps=draw(st.sampled_from([10e6, 300e3])),
        sample_interval=draw(st.sampled_from([0.03, 0.09, 0.30])))
    if draw(st.booleans()):
        # flow_groups population: no flow identity, weights up to 10^3.
        counts = draw(st.lists(st.integers(1, 1000), min_size=len(members),
                               max_size=len(members)))
        n = sum(counts)
        return FluidScenario(
            n_flows=n,
            capacities_bps=tuple(draw(st.floats(0.1e6, 1.5e6)) * n
                                 for _ in routers),
            flow_groups=tuple(
                (count, extra, epoch * T + 0.01, path)
                for count, (extra, epoch, path) in zip(counts, members)),
            **common)
    n = len(members)
    return FluidScenario(
        n_flows=n,
        capacities_bps=tuple(draw(st.floats(0.1e6, 1.5e6)) * n
                             for _ in routers),
        extra_delay={i: extra for i, (extra, _, _) in enumerate(members)},
        start_times=[epoch * T + 0.01 for _, epoch, _ in members],
        flow_path=([path for _, _, path in members]
                   if paths is not None else None),
        record_flows=draw(st.booleans()), **common)


class TestDifferential:
    @given(scenario=scenarios(), fast_forward=st.booleans())
    def test_generated_scenarios(self, scenario, fast_forward):
        assert_bit_identical(scenario, fast_forward)

    @pytest.mark.parametrize("fast_forward", [True, False])
    def test_staggered_fabric(self, fast_forward):
        """The ledger's fabric in miniature: 12 waves x 3 delay tiers
        (36 classes, 3 lag runs); the detector runs but never fires."""
        scenario = fat_tree_scenario(duration=9.0, start_waves=12,
                                     wave_interval_s=0.4)
        assert_bit_identical(scenario, fast_forward)

    def test_fast_forward_jumps(self):
        """Rates pinned at the clamp are stationary at once, so the
        engine jumps to the interferer's start, integrates through it
        and jumps again from its end."""
        scenario = fat_tree_scenario(
            duration=30.0, start_waves=6, wave_interval_s=0.2,
            max_rate_bps=150e3, interferers=((0, 12.0, 20.0, 12e6),))
        result = assert_bit_identical(scenario)
        assert max(row[0] for row in result.router_loss) > 0.3
        jumping, stepping = CountingNumpy(), CountingNumpy()
        FluidEngine(scenario, backend="numpy")._run_numpy(jumping)
        FluidEngine(scenario, backend="numpy",
                    fast_forward=False)._run_numpy(stepping)
        assert jumping.calls < stepping.calls / 2

    def test_random_population(self):
        scenario = dataclasses.replace(random_population(), duration=9.0)
        assert_bit_identical(scenario)

    def test_trace_samples(self):
        """``p_max`` is now read only where an epoch is sampled or
        fast-forwarded from: the tracer must see the same values."""
        scenario = fat_tree_scenario(
            duration=9.0, interferers=((0, 6.0, 9.0, 4e6),))
        engine = FluidEngine(scenario, backend="numpy")
        with tracing() as new_trace:
            new = engine.run()
        with tracing() as old_trace:
            frozen_run_numpy(engine, np)
        assert len(new_trace.events) == len(new.times)
        assert _bits(list(new_trace.events)) == _bits(list(old_trace.events))


# -- one controller call, partial feeds ---------------------------------------

def _control_rows(k: int, begun: int):
    """A list and a numpy row set on one 3-run fabric (lags 1, 3, 5;
    three 8-segment classes a run, one per start wave) as epoch ``k``
    finds them: identical random state in the ring slots of epochs
    ``1 .. k - 1`` for the classes of the first ``begun`` waves, and
    the rings' initial rate 0 and ``y = r0`` everywhere else."""
    engine = FluidEngine(fat_tree_scenario(start_waves=3, wave_interval_s=0.3,
                                           delay_tiers=4), backend="numpy")
    assert [run[0].delay for run in engine.lag_runs] == [1, 3, 5]
    rows_list = engine_mod._ListRows(engine)
    rows_np = engine_mod._NumpyRows(engine, np)
    waves = sorted({c.start for c in engine.classes})
    unstarted = [j for c in engine.classes if c.start > waves[begun - 1]
                 for j in range(c.lo, c.hi)]
    rng = random.Random(5)
    r0 = engine.scenario.initial_rate_bps
    H = rows_list.H
    for ring, low, high, idle in (("rate_hist", 0.0, 9e5, 0.0),
                                  ("y_hist", 1e5, 9e5, r0)):
        for m in range(k - H + 1, k):
            slot_list = getattr(rows_list, ring)[m % H]
            if m >= 1:
                slot_list[:] = [rng.uniform(low, high) for _ in slot_list]
                for j in unstarted:
                    slot_list[j] = idle
            getattr(rows_np, ring)[m % H][rows_np.pos] = slot_list
    for m in range(max(1, k - H + 1), k):
        label = [rng.uniform(0.0, 0.4) for _ in range(rows_list.P)]
        rows_list.pp_hist[m % H][:] = label
        rows_np.pp_hist[m % H][:] = label
    # Stale scratch, as a router close leaves it.
    rows_np.buf_s[:] = [rng.uniform(0.0, 1e9) for _ in rows_np.buf_s]
    return engine, rows_list, rows_np


class TestControl:
    @pytest.mark.parametrize("arrangement", [
        # (waves begun, fed classes per run): partly fed, none fed,
        # all fed; then none, all, partly.
        (3, (1, 0, 3)),
        (3, (0, 3, 1)),
        # Two waves begun, so in start order the runs' classes
        # interleave (wave 0 of runs 0-2, then wave 1 of runs 0-2) and
        # run 1's unfed wave-1 class sits inside the prefix, between
        # fed classes of runs 0 and 2.
        (2, (2, 1, 2)),
    ])
    def test_partial_feeds_match_the_list_rows(self, arrangement):
        begun, fed = arrangement
        k = 4  # k - D = 3, 1, -1: the lag-5 run reads r0
        engine, rows_list, rows_np = _control_rows(k, begun)
        spans = []
        for run, n_fed in zip(engine.lag_runs, fed):
            edges = [run[0].lo] + [c.hi for c in run]
            spans.append((run[0].lo, edges[n_fed], edges[begun], run[-1].hi,
                          run[0].bwd, run[0].delay))
        gamma0 = engine.scenario.gamma0
        rows_list.control(k, spans)
        rows_np.control(k, spans)
        pos = rows_np.pos
        row_list = rows_list.rate_hist[k % rows_list.H]
        row_np = rows_np.rate_hist[k % rows_np.H][pos].tolist()
        gamma_np = rows_np.gamma[pos].tolist()
        assert _bits(row_np) == _bits(row_list)
        assert _bits(gamma_np) == _bits(rows_list.gamma)
        r0 = engine.scenario.initial_rate_bps
        for lo, fed_hi, begun_hi, hi, _, _ in spans:
            assert gamma_np[fed_hi:hi] == [gamma0] * (hi - fed_hi)
            assert row_np[fed_hi:begun_hi] == [r0] * (begun_hi - fed_hi)
            assert row_np[begun_hi:hi] == [0.0] * (hi - begun_hi)
            assert all(g != gamma0 for g in gamma_np[lo:fed_hi])
        # The prefix is the begun classes; nothing past it was written.
        n_begun = sum(begun_hi - lo for lo, _, begun_hi, _, _, _ in spans)
        assert rows_np.n_begun == n_begun
        assert sorted(col for lo, _, begun_hi, _, _, _ in spans
                      for col in pos[lo:begun_hi]) == list(range(n_begun))
        assert not rows_np.rate_hist[k % rows_np.H][n_begun:].any()


# -- dispatch fence -----------------------------------------------------------

class _Counted:
    def __init__(self, owner: "CountingNumpy", target) -> None:
        self._owner = owner
        self._target = target

    def __call__(self, *args, **kwargs):
        owner = self._owner
        owner.calls += 1
        touched = kwargs.get("out")
        if touched is None:
            touched = next((a for a in args if isinstance(a, np.ndarray)),
                           None)
        if touched is not None:
            owner.elements += touched.size
        return self._target(*args, **kwargs)

    def __getattr__(self, name):  # np.maximum.reduceat, np.ndarray.take
        return _Counted(self._owner, getattr(self._target, name))


class CountingNumpy:
    """Stands in for the ``np`` module and counts every explicit
    ``np.name(...)`` call (ufunc methods and the kernel's gathers,
    ``np.ndarray.take``, included) and the elements each one writes:
    its ``out=`` array's, or its first array argument's when it has no
    ``out=``.  Dtypes and other non-functions pass through."""

    def __init__(self) -> None:
        self.calls = 0
        self.elements = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if attr is np.ndarray:
            return _Counted(self, attr)
        if isinstance(attr, type) or not callable(attr):
            return attr
        return _Counted(self, attr)


def random_population(seed: int = 20, n: int = 2000) -> FluidScenario:
    """``test_fluid_batched``'s seeded random family at 2,000 flows:
    random starts in 0-4 s, random access delays on half the flows —
    571 segments in 571 classes, yet only 5 lag runs."""
    rng = random.Random(seed)
    return FluidScenario(
        n_flows=n, duration=rng.uniform(25.0, 45.0),
        capacities_bps=tuple(rng.uniform(0.4e6, 1.2e6) * n
                             for _ in range(rng.randint(1, 3))),
        extra_delay={i: rng.uniform(0.0, 0.12)
                     for i in range(n) if rng.random() < 0.5},
        start_times=[rng.uniform(0.0, 4.0) for _ in range(n)],
        record_flows=False)


def _count(scenario: FluidScenario, epochs: int) -> CountingNumpy:
    """The counting proxy after a run of ``epochs`` epochs, every one
    of them integrated (no fast-forward, hence no detector either)."""
    counter = CountingNumpy()
    engine = FluidEngine(dataclasses.replace(scenario, duration=epochs * T),
                         backend="numpy", fast_forward=False)
    assert engine._run_numpy(counter).n_epochs == epochs
    return counter


def _calls(scenario: FluidScenario, epochs: int) -> int:
    return _count(scenario, epochs).calls


def _elements_at(scenario: FluidScenario, epoch: int) -> int:
    """Elements the explicit ``np.*`` calls of epoch ``epoch`` write:
    two runs ending one epoch apart each close on one sample and the
    final rows, so their difference is that epoch's own work."""
    return (_count(scenario, epoch).elements
            - _count(scenario, epoch - 1).elements)


def _steady_calls_per_epoch(scenario: FluidScenario, warm: int) -> float:
    """Calls per epoch once every class is fed and past its filter
    warm-up, measured between two horizons on the sampling grid."""
    stride = scenario.sample_stride()
    first = -(-warm // stride) * stride
    span = 10 * stride
    return (_calls(scenario, first + span) - _calls(scenario, first)) / span


def _geometry(scenario: FluidScenario):
    engine = FluidEngine(scenario, backend="numpy")
    lag_runs = {(c.fwd, c.bwd) for c in engine.classes}
    warm = (engine.max_start + engine.max_delay
            + scenario.feedback_window + 2)
    return len(engine.classes), len(lag_runs), warm


class TestDispatchFence:
    def test_calls_do_not_scale_with_start_waves(self):
        few = fat_tree_scenario(start_waves=2, wave_interval_s=0.3)
        many = fat_tree_scenario(start_waves=12, wave_interval_s=0.3)
        few_classes, few_runs, _ = _geometry(few)
        many_classes, many_runs, warm = _geometry(many)
        assert (few_classes, many_classes) == (6, 36)
        assert few_runs == many_runs == 3
        assert _steady_calls_per_epoch(few, warm) \
            == _steady_calls_per_epoch(many, warm)

    def test_calls_per_extra_lag_run(self):
        """Every delayed lookup is one flat gather over the row: an
        extra lag run costs no call at all (a per-run gather and
        multiply read +3 a run, a per-run controller step +13)."""
        one = fat_tree_scenario(start_waves=2, wave_interval_s=0.3,
                                delay_tiers=1)
        three = fat_tree_scenario(start_waves=2, wave_interval_s=0.3,
                                  delay_tiers=4)
        _, one_runs, _ = _geometry(one)
        _, three_runs, warm = _geometry(three)
        assert (one_runs, three_runs) == (1, 3)
        assert _steady_calls_per_epoch(three, warm) \
            == _steady_calls_per_epoch(one, warm)

    def test_calls_bounded_by_lag_runs(self):
        """28.4 calls an epoch over 5 runs, gathers included, as over
        one (per-run gathers read 32.2 without the gathers counted, a
        per-run controller step 76.2)."""
        scenario = random_population()
        classes, runs, warm = _geometry(scenario)
        assert (classes, runs) == (571, 5)
        assert _steady_calls_per_epoch(scenario, warm) <= 28.4


class TestBegunPrefix:
    def test_unstarted_segments_cost_no_elements(self):
        """The ledger's staggered fabric in miniature, 12 waves 2 s
        apart: at epoch 40 (one wave begun, past its warm-up) the
        kernel writes under 40 % of the elements it writes at epoch 760
        (every wave fed and past its warm-up).  A kernel that computes
        every epoch over the whole row writes about as many at both."""
        scenario = fat_tree_scenario(duration=24.0, start_waves=12,
                                     wave_interval_s=2.0)
        engine = FluidEngine(scenario, backend="numpy")
        starts = sorted({c.start for c in engine.classes})
        W = scenario.feedback_window
        assert starts[0] + engine.max_delay + W < 40 < starts[1]
        assert starts[-1] + engine.max_delay + W < 760
        early = _elements_at(scenario, 40)
        late = _elements_at(scenario, 760)
        assert early < 0.4 * late
