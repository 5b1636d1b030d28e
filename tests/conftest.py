"""Shared fixtures for the PELS reproduction test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.session import PelsScenario, PelsSimulation
from repro.sim.engine import Simulator

try:
    from hypothesis import settings
except ImportError:  # the live-load CI job installs no hypothesis
    pass
else:
    #: ``pytest --hypothesis-profile=ci``: the depth CI runs the
    #: differential and peek properties at (tier-1 keeps the default).
    settings.register_profile("ci", max_examples=2000, deadline=None)


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--live", action="store_true", default=False,
        help="run wall-clock loopback tests (real UDP sockets, repro.live)")
    parser.addoption(
        "--shuffle-seed", type=int, default=None, metavar="N",
        help="deterministically shuffle test order with this seed "
             "(order-dependence smoke test; CI uses pytest-randomly)")


def pytest_collection_modifyitems(config, items) -> None:
    """Skip ``live``-marked tests unless ``--live`` was passed, and
    optionally shuffle the collection order.

    Tier-1 stays fast and deterministic; the live tests bind real
    sockets and sleep real seconds, so they are opt-in (the CI ``live``
    job runs ``pytest --live -m live``).

    ``--shuffle-seed N`` reorders the collected items with a private
    ``random.Random(N)`` — a no-install stand-in for pytest-randomly
    that flushes out hidden inter-test state (module-level caches,
    leaked registries).  Same seed, same order, so a failure found
    shuffled is reproducible.
    """
    seed = config.getoption("--shuffle-seed")
    if seed is not None:
        random.Random(seed).shuffle(items)
    if config.getoption("--live"):
        return
    skip_live = pytest.mark.skip(reason="needs --live (wall-clock UDP test)")
    for item in items:
        if "live" in item.keywords:
            item.add_marker(skip_live)


def pytest_report_header(config) -> list[str]:
    seed = config.getoption("--shuffle-seed")
    if seed is None:
        return []
    return [f"shuffle-seed: {seed} (test order deterministically shuffled)"]


@pytest.fixture
def sim() -> Simulator:
    """A fresh seeded simulator."""
    return Simulator(seed=123)


@pytest.fixture(scope="session")
def converged_two_flow() -> PelsSimulation:
    """A converged 2-flow PELS run shared by read-only integration tests.

    Session-scoped because it takes ~1.5 s to simulate; tests must not
    mutate it.
    """
    scenario = PelsScenario(n_flows=2, duration=40.0, seed=7)
    return PelsSimulation(scenario).run()


@pytest.fixture(scope="session")
def converged_four_flow() -> PelsSimulation:
    """A converged 4-flow PELS run (p* ~ 7.4%) for integration tests."""
    scenario = PelsScenario(n_flows=4, duration=60.0, seed=11)
    return PelsSimulation(scenario).run()
