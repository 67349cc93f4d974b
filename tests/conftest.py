"""Shared fixtures: the expensive solves run once per session."""
from __future__ import annotations

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
