"""Golden digests of the fluid engine's output, bit for bit.

Each case runs one scenario on one backend with the fast-forward on
or off, and hashes every ``FluidResult`` series (``SERIES``) with floats
written as ``float.hex()``: a change to any sample, in any bit, changes
the digest.  The list backend is pinned on every scenario; the numpy
backend (skipped without numpy) on those wide enough to reach its
kernel (``_NUMPY_MIN_SEGMENTS`` segments and up).  The numpy digests
hold for one array-library build: ``np.dot`` and ``np.matmul`` sum in
the order the BLAS kernel picks, so a host whose BLAS sums otherwise
may differ there in the last bits while the list half still holds.

On every scenario here the fast-forward only freezes plateaus that
are exactly stationary, so a case's two runs share one digest: a jump
must emit exactly the samples stepping would.

A mismatch means the engine's arithmetic changed.  Run with ``-s`` to
print the new digest; update a literal only when the change of output
is intended and explained.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from repro.fluid import engine as engine_mod
from repro.fluid.engine import FluidEngine
from repro.fluid.scenario import FluidScenario, fat_tree_scenario

# As in test_fluid_numpy_kernel, which skips itself without numpy and
# so cannot be imported by a test that must run without it.
SERIES = ("backend", "n_epochs", "times", "mean_rate_bps", "router_loss",
          "router_rate_bps", "gamma_mean", "bottleneck", "flow_rates",
          "final_rates", "final_gammas")

T = 0.030


def _bits(value):
    """Floats as hex, recursively: ``==`` passes -0.0 for 0.0."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


def digest(scenario: FluidScenario, backend: str,
           fast_forward: bool) -> str:
    result = FluidEngine(scenario, backend=backend,
                         fast_forward=fast_forward).run()
    blob = json.dumps([[name, _bits(getattr(result, name))]
                       for name in SERIES], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def random_population(seed: int = 20, n: int = 2000) -> FluidScenario:
    """Seeded random chain population: random starts in 0-4 s, random
    access delays on half the flows — 571 segments, 571 classes, 5 lag
    runs.  20 s of it."""
    rng = random.Random(seed)
    scenario = FluidScenario(
        n_flows=n, duration=rng.uniform(25.0, 45.0),
        capacities_bps=tuple(rng.uniform(0.4e6, 1.2e6) * n
                             for _ in range(rng.randint(1, 3))),
        extra_delay={i: rng.uniform(0.0, 0.12)
                     for i in range(n) if rng.random() < 0.5},
        start_times=[rng.uniform(0.0, 4.0) for _ in range(n)],
        record_flows=False)
    return dataclasses.replace(scenario, duration=20.0)


def grouped() -> FluidScenario:
    """``flow_groups`` over three routers and two paths: clustered and
    spread starts in three delay tiers, and an interferer on the
    shared router."""
    groups = tuple(
        (count, extra, epoch * T + 0.01, path)
        for count, extra, epoch, path in (
            (40, 0.0, 0, 0), (25, 0.0, 3, 0), (60, 0.045, 5, 1),
            (10, 0.045, 40, 0), (300, 0.130, 2, 1), (7, 0.012, 90, 1)))
    n = sum(g[0] for g in groups)
    return FluidScenario(
        n_flows=n, duration=15.0,
        capacities_bps=(0.6e6 * n, 0.3e6 * n, 0.9e6 * n),
        paths=((0, 1), (1, 2)), flow_groups=groups,
        interferers=((1, 4.0, 9.0, 0.2e6 * n),),
        feedback_window=4, sample_interval=0.09)


def explicit_paths() -> FluidScenario:
    """Per-flow population on explicit paths with flow recording: the
    flow -> segment map and ``flow_rates`` are part of the digest.
    Rates pin at the clamp until the interferer loads router 0 and
    again after it leaves, so the engine jumps both plateaus."""
    n = 12
    return FluidScenario(
        n_flows=n, duration=20.0,
        capacities_bps=(0.5e6 * n, 0.4e6 * n),
        paths=((0,), (0, 1), (1,)),
        flow_path=[i % 3 for i in range(n)],
        extra_delay={i: 0.015 * (i % 4) for i in range(n)},
        start_times=[0.21 * (i % 5) for i in range(n)],
        interferers=((0, 5.0, 8.0, 5e6),),
        record_flows=True, max_rate_bps=300e3)


SCENARIOS = {
    # The ledger's fabric in miniature: 12 waves x 3 delay tiers.
    "staggered_fat_tree": lambda: fat_tree_scenario(
        duration=9.0, start_waves=12, wave_interval_s=0.4),
    # Clamped rates are stationary at once: jump to the interferer,
    # integrate through it, jump again from its end.
    "fast_forward_jump": lambda: fat_tree_scenario(
        duration=30.0, start_waves=6, wave_interval_s=0.2,
        max_rate_bps=150e3, interferers=((0, 12.0, 20.0, 12e6),)),
    "random_population": random_population,
    "flow_groups": grouped,
    "explicit_paths": explicit_paths,
}

#: ``(scenario, backend, fast_forward) -> sha256``.
DIGESTS = {
    ("staggered_fat_tree", "list", "ff"):
        "ebfad3466fa62aa275a9e0c67df433af24d32a91ec72a4bc865f96c6647d1d12",
    ("staggered_fat_tree", "list", "step"):
        "ebfad3466fa62aa275a9e0c67df433af24d32a91ec72a4bc865f96c6647d1d12",
    ("staggered_fat_tree", "numpy", "ff"):
        "55f76c291f592e50e9c4c7d97fcae0d341cd2f19a62ba0b1c01d4c4dbc11dabb",
    ("staggered_fat_tree", "numpy", "step"):
        "55f76c291f592e50e9c4c7d97fcae0d341cd2f19a62ba0b1c01d4c4dbc11dabb",
    ("fast_forward_jump", "list", "ff"):
        "8321bcb8d9efc8031a1cca9ae3b5cea40fbd8b6f5a3bcff3f494dd4b7814cce6",
    ("fast_forward_jump", "list", "step"):
        "8321bcb8d9efc8031a1cca9ae3b5cea40fbd8b6f5a3bcff3f494dd4b7814cce6",
    ("fast_forward_jump", "numpy", "ff"):
        "658ad6627431fb65330c6792c62cc04dcfdd58d617763032b95fb756e096b510",
    ("fast_forward_jump", "numpy", "step"):
        "658ad6627431fb65330c6792c62cc04dcfdd58d617763032b95fb756e096b510",
    ("random_population", "list", "ff"):
        "81be598be1e06a8f32f251e3751a217b270316b2a6be8fa033ae150c41b947a8",
    ("random_population", "list", "step"):
        "81be598be1e06a8f32f251e3751a217b270316b2a6be8fa033ae150c41b947a8",
    ("random_population", "numpy", "ff"):
        "5c2e6bcb66b7e8cd41e2733fa2b468780e187b32868bedf5a377a904b942345b",
    ("random_population", "numpy", "step"):
        "5c2e6bcb66b7e8cd41e2733fa2b468780e187b32868bedf5a377a904b942345b",
    ("flow_groups", "list", "ff"):
        "777c131d59a539e324b36fd4cd91ae94ff940c6c24fa9c39603e35685c917579",
    ("flow_groups", "list", "step"):
        "777c131d59a539e324b36fd4cd91ae94ff940c6c24fa9c39603e35685c917579",
    ("explicit_paths", "list", "ff"):
        "adddb22356a4c69b7a509d8241c3bb72b22f38ea21d1cc656ed2089e1731375a",
    ("explicit_paths", "list", "step"):
        "adddb22356a4c69b7a509d8241c3bb72b22f38ea21d1cc656ed2089e1731375a",
}


@pytest.mark.parametrize("case", sorted(DIGESTS), ids="-".join)
def test_digest(case):
    name, backend, fast_forward = case
    if backend == "numpy":
        pytest.importorskip("numpy")
    scenario = SCENARIOS[name]()
    if backend == "numpy":
        assert (FluidEngine(scenario).n_segments
                >= engine_mod._NUMPY_MIN_SEGMENTS)
    got = digest(scenario, backend, fast_forward == "ff")
    print(f"\n{case}: {got}")
    assert got == DIGESTS[case]
