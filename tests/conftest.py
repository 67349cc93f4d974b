"""Shared fixtures: the expensive solves run once per session."""
from __future__ import annotations

import random
import time

import pytest

from monopole.integrator import IntegratorControls
from monopole.shooter import bisect_beta


@pytest.fixture(scope="session")
def lam0():
    t0 = time.perf_counter()
    rep = bisect_beta(0.0)
    rep.wall_seconds = time.perf_counter() - t0
    return rep


@pytest.fixture(scope="session")
def lam0_handoffs():
    # lambda_hat = 0 at three more series handoff radii: one ulp at the
    # handoff moves f(10) by up to ~1e-7 along the separatrix, so a check
    # at one radius measures that rounding as much as the solver
    return [bisect_beta(0.0, controls=IntegratorControls(t0=t0))
            for t0 in (5e-4, 7e-4, 8.5e-4)]


@pytest.fixture(scope="session")
def lam0p42():
    # one of the benchmark's coupled_solve draws
    return bisect_beta(0.42489062049196824)


@pytest.fixture(scope="session")
def lam1():
    return bisect_beta(1.0)


@pytest.fixture(scope="session")
def lam1p5():
    return bisect_beta(1.5)


@pytest.fixture(scope="session")
def lam1_fine_handoff():
    return bisect_beta(1.0, controls=IntegratorControls(t0=5e-4))


@pytest.fixture(scope="session")
def batch_lanes():
    # (alphas, betas) of a series batch: random lanes, extreme ones (huge
    # alpha moves the reach across every handoff radius) and two that
    # overflow, whose reach is 0
    rng = random.Random(20)
    lanes = [(rng.uniform(0.0, 3.0), rng.uniform(0.0, 6.0)) for _ in range(12)]
    lanes += [(alpha, beta) for alpha in (0.0, 1e-12, 7.0, 3e5, 1e6)
              for beta in (0.0, 1e-300, 0.5, 1e4)]
    lanes += [(1e200, 0.5), (0.5, 1e200)]
    return [a for a, _ in lanes], [b for _, b in lanes]
