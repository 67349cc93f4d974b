"""Field equations, scaling maps, and the closed-form reference profile."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from monopole.errors import DomainError, SingularPointError
from monopole.integrator import IntegratorControls, integrate
from monopole.model import (ModelParams, PhaseState, ScaledParams, check_lambda_hat,
                            energy_density, nondimensionalize, ps_exact, rhs)
from monopole.origin_series import (ShootPoint, expand_batch, expand_series,
                                    picard_verify, series_coefficients)
from monopole.shooter import bisect_beta, sweep

import oracles


def test_model_params_validation():
    with pytest.raises(DomainError):
        ModelParams(lam=-1.0, g0=1.0, rho0=1.0)
    with pytest.raises(DomainError):
        ModelParams(lam=0.0, g0=0.0, rho0=1.0)
    with pytest.raises(DomainError):
        ModelParams(lam=0.0, g0=1.0, rho0=-2.0)
    with pytest.raises(DomainError):
        ModelParams(lam=math.inf, g0=1.0, rho0=1.0)


def test_nondimensionalize_maps():
    scaled = nondimensionalize(ModelParams(lam=8.0, g0=2.0, rho0=3.0))
    assert scaled.lambda_hat == pytest.approx(2.0)
    assert scaled.r_scale == pytest.approx(1.0 / 6.0)
    assert scaled.rho_scale == pytest.approx(3.0)
    # alpha scales with (g0 rho0)^2, beta with rho0 * g0 rho0
    assert scaled.alpha_to_physical(1.0 / 6.0) == pytest.approx(6.0)
    assert scaled.beta_to_physical(1.0 / 3.0) == pytest.approx(6.0)


def test_scaled_params_validation():
    with pytest.raises(DomainError):
        ScaledParams(lambda_hat=-0.5, r_scale=1.0, rho_scale=1.0)
    with pytest.raises(DomainError):
        ScaledParams(lambda_hat=0.0, r_scale=0.0, rho_scale=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_every_coupling_entry_point_refuses_a_bad_value(bad):
    # one check, one message, wherever lambda_hat enters
    state = PhaseState(t=1.0, f=0.5, fp=0.0, rho=0.5, rhop=0.0)
    point = ShootPoint(0.1, 0.1)
    calls = {
        "rhs": lambda: rhs(1.0, state, bad),
        "energy_density": lambda: energy_density(state, bad),
        "series_coefficients": lambda: series_coefficients(point, bad),
        "integrate": lambda: integrate(state, bad, IntegratorControls()),
        "expand_series": lambda: expand_series(point, bad),
        "expand_batch": lambda: expand_batch([0.1], [0.1], bad),
        "picard_verify": lambda: picard_verify(point, bad),
        "bisect_beta": lambda: bisect_beta(bad),
        "sweep": lambda: sweep([0.1], [0.1], bad),
        "ScaledParams": lambda: ScaledParams(lambda_hat=bad, r_scale=1.0, rho_scale=1.0),
    }
    for name, call in calls.items():
        with pytest.raises(DomainError, match=f"^lambda_hat must be finite and >= 0, "
                                              f"got {bad}$"):
            call()
            pytest.fail(f"{name} took lambda_hat = {bad}")


def test_check_lambda_hat_passes_the_coupling_through():
    # an exact coupling stays exact, so series_coefficients can stay exact
    third = Fraction(1, 3)
    assert check_lambda_hat(third) is third
    assert check_lambda_hat(0) == 0
    c = series_coefficients(ShootPoint(Fraction(1, 6), Fraction(1, 3)), third)
    assert c.b3 == -Fraction(1, 3) * (4 * Fraction(1, 6) + third) / 10
    assert type(c.b3) is Fraction


def test_phase_state_validation():
    with pytest.raises(DomainError):
        PhaseState(t=0.0, f=1.0, fp=0.0, rho=0.0, rhop=0.0)
    with pytest.raises(DomainError):
        PhaseState(t=1.0, f=math.nan, fp=0.0, rho=0.0, rhop=0.0)


def test_rhs_against_hand_evaluation():
    # Worked by hand for t=2, f=0.3, f'=-0.1, rho=0.7, rho'=0.2, lam=1.5.
    state = PhaseState(t=2.0, f=0.3, fp=-0.1, rho=0.7, rhop=0.2)
    fp, fpp, rhop, rpp = rhs(2.0, state, 1.5)
    assert fp == -0.1
    assert rhop == 0.2
    assert_allclose(fpp, 0.3 * ((0.09 - 1.0) / 4.0 + 0.49), rtol=1e-15)
    assert_allclose(rpp, -0.2 + 2.0 * 0.09 * 0.7 / 4.0 + 1.5 * (0.49 - 1.0) * 0.7,
                    rtol=1e-15)


def test_rhs_domain_errors():
    state = PhaseState(t=1.0, f=0.5, fp=0.0, rho=0.5, rhop=0.0)
    with pytest.raises(SingularPointError):
        rhs(0.0, state, 0.0)
    with pytest.raises(SingularPointError):
        rhs(-1.0, state, 0.0)
    with pytest.raises(DomainError):
        rhs(1.0, state, -1e-3)


@given(t=st.floats(0.05, 20.0), f=st.floats(-2.0, 2.0),
       rho=st.floats(-2.0, 2.0), lam=st.floats(0.0, 4.0))
def test_rhs_odd_in_each_channel(t, f, rho, lam):
    # The f equation is odd under (f, f') -> (-f, -f') at fixed Higgs data,
    # and the rho equation under (rho, rho') -> (-rho, -rho') at fixed f.
    s = PhaseState(t=t, f=f, fp=0.3, rho=rho, rhop=-0.4)
    s_f = PhaseState(t=t, f=-f, fp=-0.3, rho=rho, rhop=-0.4)
    s_r = PhaseState(t=t, f=f, fp=0.3, rho=-rho, rhop=0.4)
    base = rhs(t, s, lam)
    flip_f = rhs(t, s_f, lam)
    flip_r = rhs(t, s_r, lam)
    assert_allclose(flip_f[1], -base[1], rtol=1e-12, atol=1e-12)
    assert_allclose(flip_r[3], -base[3], rtol=1e-12, atol=1e-12)


def test_ps_exact_matches_direct_formulas():
    for t in (0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        got = ps_exact(t)
        assert_allclose(got.f, oracles.ps_f(t), rtol=1e-13)
        assert_allclose(got.fp, oracles.ps_fp(t), rtol=1e-12, atol=1e-15)
        assert_allclose(got.rho, oracles.ps_rho(t), rtol=1e-12)
        assert_allclose(got.rhop, oracles.ps_rhop(t), rtol=1e-11)


def test_ps_exact_series_region():
    # Below the switchover the hand formulas lose digits to cancellation but
    # stay good enough to check the series branch to ~1e-9.
    for t in (1e-3, 0.01, 0.049):
        got = ps_exact(t)
        assert_allclose(got.f, oracles.ps_f(t), rtol=1e-12)
        assert_allclose(got.rho, oracles.ps_rho(t), rtol=1e-9, atol=1e-15)
        assert_allclose(got.rhop, oracles.ps_rhop(t), rtol=1e-8)
    # just below the switchover the series branch must agree with the
    # direct formulas to far better than the branch tolerance
    t = 0.05 * (1.0 - 1e-9)
    got = ps_exact(t)
    assert_allclose(got.f, oracles.ps_f(t), rtol=1e-13)
    assert_allclose(got.fp, oracles.ps_fp(t), rtol=1e-11)
    assert_allclose(got.rho, oracles.ps_rho(t), rtol=1e-11)
    assert_allclose(got.rhop, oracles.ps_rhop(t), rtol=1e-11)


def test_ps_exact_frozen_values():
    # Reference points computed once from the closed form.
    assert_allclose(ps_exact(1.0).f, 0.85091812823932155, rtol=1e-15)
    assert_allclose(ps_exact(1.0).rho, 0.3130352854993313, rtol=1e-15)
    assert_allclose(ps_exact(1.0).fp, -0.26636739920995263, rtol=1e-14)
    assert_allclose(ps_exact(10.0).f, 9.0799859712122163e-4, rtol=1e-14)


def test_ps_exact_solves_the_field_equations():
    # Central differences of the exact derivatives must reproduce rhs.
    h = 1e-5
    for t in (0.5, 1.0, 3.0):
        _, fpp, _, rpp = rhs(t, ps_exact(t), 0.0)
        fpp_fd = (ps_exact(t + h).fp - ps_exact(t - h).fp) / (2.0 * h)
        rpp_fd = (ps_exact(t + h).rhop - ps_exact(t - h).rhop) / (2.0 * h)
        assert_allclose(fpp_fd, fpp, rtol=1e-8, atol=1e-10)
        assert_allclose(rpp_fd, rpp, rtol=1e-7, atol=1e-10)


def test_ps_exact_domain():
    with pytest.raises(DomainError):
        ps_exact(0.0)
    with pytest.raises(DomainError):
        ps_exact(-1.0)


def test_energy_density_zero_on_vacuum():
    # f = 1, rho = 0 with lambda_hat = 0 is the zero-energy configuration.
    for t in (0.1, 1.0, 7.0):
        s = PhaseState(t=t, f=1.0, fp=0.0, rho=0.0, rhop=0.0)
        assert energy_density(s, 0.0) == 0.0
    # with the quartic on, the false vacuum carries potential energy
    s = PhaseState(t=2.0, f=1.0, fp=0.0, rho=0.0, rhop=0.0)
    assert_allclose(energy_density(s, 1.0), 0.25 * 4.0, rtol=1e-15)


def test_energy_density_hand_value():
    s = PhaseState(t=1.0, f=0.5, fp=-0.25, rho=0.4, rhop=0.3)
    expect = (0.0625 + (0.25 - 1.0) ** 2 / 2.0 + 0.25 * 0.16
              + 0.5 * 0.09 + 0.25 * 2.0 * (0.16 - 1.0) ** 2)
    assert_allclose(energy_density(s, 2.0), expect, rtol=1e-15)


@given(t=st.floats(0.05, 30.0), f=st.floats(-1.5, 1.5),
       fp=st.floats(-2.0, 2.0), rho=st.floats(-1.5, 1.5),
       rhop=st.floats(-2.0, 2.0), lam=st.floats(0.0, 5.0))
def test_energy_density_nonnegative(t, f, fp, rho, rhop, lam):
    s = PhaseState(t=t, f=f, fp=fp, rho=rho, rhop=rhop)
    assert energy_density(s, lam) >= 0.0
