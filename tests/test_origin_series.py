"""Origin series coefficients, handoff state, and the Picard certificate."""
from __future__ import annotations

import math
import pickle
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from monopole import origin_series
from monopole.errors import ContractionDomainError, DomainError, HandoffError
from monopole.integrator import IntegratorControls, integrate
from monopole.model import PhaseState, ps_exact
from monopole.origin_series import (DEFAULT_T0, T0_MAX, ShootPoint,
                                    expand_series, initial_state,
                                    picard_verify, series_coefficients)

import oracles


def test_series_coefficients_exact_rationals():
    c = series_coefficients(ShootPoint(Fraction(1, 6), Fraction(1, 3)), 0)
    assert c.a4 == Fraction(7, 360)
    assert c.b3 == Fraction(-1, 45)
    # and stays exact away from the special point
    c = series_coefficients(ShootPoint(Fraction(2, 7), Fraction(5, 11)), Fraction(3, 2))
    assert c.a4 == (3 * Fraction(2, 7) ** 2 + Fraction(5, 11) ** 2) / 10
    assert c.b3 == -Fraction(5, 11) * (4 * Fraction(2, 7) + Fraction(3, 2)) / 10
    c = series_coefficients(ShootPoint(0.0, 0.0), 0.0)
    assert (c.a4, c.b3) == (0.0, 0.0)
    c = series_coefficients(ShootPoint(1.0, 1.0), 1.0)
    assert_allclose((c.a4, c.b3), (0.4, -0.5), rtol=1e-15)


@given(alpha=st.floats(0.0, 3.0), beta=st.floats(0.0, 3.0), lam=st.floats(0.0, 3.0))
def test_series_coefficients_closed_form(alpha, beta, lam):
    c = series_coefficients(ShootPoint(alpha, beta), lam)
    assert_allclose(c.a4, (3 * alpha * alpha + beta * beta) / 10, rtol=1e-15)
    assert_allclose(c.b3, -beta * (4 * alpha + lam) / 10, rtol=1e-15, atol=1e-300)


def test_series_coefficients_domain():
    with pytest.raises(DomainError):
        series_coefficients(ShootPoint(0.1, 0.1), -1.0)
    with pytest.raises(DomainError):
        ShootPoint(-0.1, 0.2)
    with pytest.raises(DomainError):
        ShootPoint(0.1, -0.2)


def test_initial_state_matches_hand_taylor():
    alpha, beta, lam, t0 = 0.25, 0.4, 1.5, 2e-3
    got = initial_state(ShootPoint(alpha, beta), lam, t0)
    f, fp, rho, rhop = oracles.series_start(alpha, beta, lam, t0)
    assert got.t == t0
    assert_allclose(got.f, f, rtol=1e-15)
    assert_allclose(got.fp, fp, rtol=1e-15)
    assert_allclose(got.rho, rho, rtol=1e-15)
    assert_allclose(got.rhop, rhop, rtol=1e-15)


def test_initial_state_handoff_bounds():
    pt = ShootPoint(0.1, 0.1)
    with pytest.raises(HandoffError):
        initial_state(pt, 0.0, 0.0)
    with pytest.raises(HandoffError):
        initial_state(pt, 0.0, -1e-3)
    with pytest.raises(HandoffError):
        initial_state(pt, 0.0, 1.5 * T0_MAX)
    initial_state(pt, 0.0, T0_MAX)  # boundary is allowed


def test_initial_state_satisfies_equations_to_truncation_order():
    # The truncated series should satisfy the ODE to the order it carries:
    # residuals scale like t^2 relative to the leading coefficients.
    from monopole.model import rhs
    for (alpha, beta, lam) in ((1 / 6, 1 / 3, 0.0), (0.9, 1.2, 2.0)):
        t0 = 5e-3
        s = initial_state(ShootPoint(alpha, beta), lam, t0)
        _, fpp, _, rpp = rhs(t0, s, lam)
        c = series_coefficients(ShootPoint(alpha, beta), lam)
        fpp_series = -2.0 * alpha + 12.0 * c.a4 * t0 * t0
        rpp_series = 6.0 * c.b3 * t0
        # neglected orders: O(t0^4) in the f equation, O(t0^3) in the rho
        # equation; a wrong coefficient would leave an O(1) or O(t0) residue
        assert abs(fpp - fpp_series) < 50.0 * t0 ** 4
        assert abs(rpp - rpp_series) < 50.0 * t0 ** 3


def test_picard_agrees_with_closed_form_at_bps_point():
    hist = picard_verify(ShootPoint(1 / 6, 1 / 3), 0.0, n_iters=8)
    t = hist.t_end
    assert t == pytest.approx(math.exp(hist.s_max))
    # trapezoid grid at ds = 0.01 leaves an O(ds^2) bias, so ~1e-5 is the
    # honest agreement scale; a wrong kernel or sign lands at 1e-3 or worse
    assert_allclose(hist.f_end, oracles.ps_f(t), atol=1e-5)
    assert_allclose(hist.rho_end, oracles.ps_rho(t), atol=1e-5)


def test_picard_contracts_below_threshold():
    for (alpha, beta, lam) in ((1 / 6, 1 / 3, 0.0), (1.0, 1.0, 1.0)):
        hist = picard_verify(ShootPoint(alpha, beta), lam, n_iters=8)
        assert len(hist.ratios) == 7
        assert all(r <= 1.0 / 3.0 + 0.05 for r in hist.ratios)
        assert hist.s_max <= hist.s_threshold + 1e-12


def test_picard_domain_errors():
    pt = ShootPoint(0.2, 0.2)
    hist = picard_verify(pt, 0.0, n_iters=2)
    with pytest.raises(ContractionDomainError):
        picard_verify(pt, 0.0, s_max=hist.s_threshold + 0.5)
    with pytest.raises(DomainError):
        picard_verify(pt, 0.0, n_iters=1)
    with pytest.raises(DomainError):
        picard_verify(pt, 0.0, ds=0.05)


def test_default_handoff_radius():
    assert 0.0 < DEFAULT_T0 <= T0_MAX


def test_initial_state_against_closed_form_at_max_handoff():
    s = initial_state(ShootPoint(Fraction(1, 6), Fraction(1, 3)), 0.0, 1e-2)
    e = ps_exact(1e-2)
    assert abs(s.f - e.f) < 1e-11
    assert abs(s.fp - e.fp) < 1e-11
    assert abs(s.rho - e.rho) < 1e-11
    # rho' truncates one order lower than the others: its error floor at
    # this radius is 2 t0^4 / 189 ~ 1.06e-10, so 1e-11 is not reachable
    assert abs(s.rhop - e.rhop) < 2e-10


def test_handoff_self_consistency_through_the_integrator():
    point = ShootPoint(1.0, 1.0)
    fine = initial_state(point, 1.0, 5e-4)
    traj = integrate(fine, 1.0, IntegratorControls(
        t_max=2e-3, rel_tol=1e-13, abs_tol=1e-16))
    carried = traj.state_at(1e-3)
    direct = initial_state(point, 1.0, 1e-3)
    assert abs(carried.f - direct.f) < 1e-12
    assert abs(carried.fp - direct.fp) < 1e-12
    assert abs(carried.rho - direct.rho) < 1e-12
    # the coarse series' own rho' truncation (5 b5 t0^4 ~ 1.2e-12 here)
    # dominates this gap, so the bound sits just above it
    assert abs(carried.rhop - direct.rhop) < 2e-12


def test_initial_state_order_of_accuracy_under_t0_halving():
    # truncating after t^4 leaves t^6 in f and t^5 in rho: halving t0 must
    # shrink the gap to the converged local solution by at least 2^4 * 0.8
    point = ShootPoint(1.0, 1.0)

    def gap(t0):
        ref = picard_verify(point, 1.0, s_max=math.log(t0),
                            n_iters=30, ds=5e-4)
        s = initial_state(point, 1.0, t0)
        return abs(s.f - ref.f_end), abs(s.rho - ref.rho_end)

    coarse_f, coarse_rho = gap(0.01)
    fine_f, fine_rho = gap(0.005)
    assert coarse_f / fine_f >= 12.8
    assert coarse_rho / fine_rho >= 12.8


def test_picard_matches_closed_form_at_small_radius():
    hist = picard_verify(ShootPoint(1.0 / 6.0, 1.0 / 3.0), 0.0,
                         s_max=math.log(1e-3), n_iters=8)
    e = ps_exact(1e-3)
    assert abs(hist.f_end - e.f) < 1e-9
    assert abs(hist.rho_end - e.rho) < 1e-9


def test_degenerate_beta_line_preserves_zero_higgs():
    # the rho equation is odd in (rho, rho'): beta = 0 pins the Higgs
    # channel to zero exactly, at the series and along the trajectory
    s = initial_state(ShootPoint(0.3, 0.0), 1.0, 1e-3)
    assert s.rho == 0.0 and s.rhop == 0.0
    traj = integrate(s, 1.0, IntegratorControls())
    assert all(y[2] == 0.0 and y[3] == 0.0 for y in traj.ys)


def test_recurrence_exact_rationals_at_the_bps_point():
    # the Taylor coefficients of t/sinh t and coth t - 1/t in t^2
    a, b = origin_series._recurrence(Fraction(1, 6), Fraction(1, 3), 0, 5)
    assert a == [1, Fraction(-1, 6), Fraction(7, 360), Fraction(-31, 15120),
                 Fraction(127, 604800), Fraction(-73, 3421440)]
    assert b == [Fraction(1, 3), Fraction(-1, 45), Fraction(2, 945),
                 Fraction(-1, 4725), Fraction(2, 93555), Fraction(-1382, 638512875)]


def test_series_matches_closed_form_to_its_reach():
    # at lambda_hat = 0 the series of (1/6, 1/3) is t/sinh t, whose poles
    # at t = +/- i pi bound the reach; out to it every component is exact
    # to rounding
    series = expand_series(ShootPoint(1 / 6, 1 / 3), 0.0)
    assert 1.3 < series.reach < math.pi
    ts = np.linspace(DEFAULT_T0, series.reach, 200)
    got = series.table(ts)
    want = np.array([oracles.ps_decimal(t) for t in ts])
    assert np.abs(got - want).max() < 1e-15
    # ps_exact's direct formulas cancel near the origin, so only f is
    # held to the same bound there
    assert max(abs(series.state(t)[0] - ps_exact(t).f) for t in ts) < 1e-15


def test_series_reads_agree_bit_for_bit():
    # state, table and component apply the same operations in the same
    # order, so the span of a run reads the same however it is read
    series = expand_series(ShootPoint(0.39, 0.87), 1.0)
    ts = np.linspace(DEFAULT_T0, series.reach, 23)
    table = series.table(ts)
    assert table.tolist() == [list(series.state(t)) for t in ts]
    for i in range(4):
        value = series.component(i)
        assert [value(t) for t in ts] == table[:, i].tolist()


def _packed(series):
    # every float of a series, with its sign of zero and NaN payload
    return struct.pack(f"{series._matrix.size + 2}d", *series._matrix.ravel().tolist(),
                       series.reach, series.lambda_hat), (series.alpha, series.beta)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_batch_expansion_is_expand_series_lane_by_lane():
    # the lane-wise recurrence gives every lane the scalar coefficients and
    # reach, also where a lane overflows, with no numpy warning
    rng = random.Random(19)
    alphas = [rng.uniform(0.0, 3.0) for _ in range(150)]
    betas = [rng.uniform(0.0, 6.0) for _ in range(150)]
    for alpha in (0.0, 1e-12, 7.0, 1e6, 1e100, 1e200):
        for beta in (0.0, 1e-300, 1e-12, 0.5, 1e4, 1e200):
            alphas.append(alpha)
            betas.append(beta)
    for lam in (0.0, 0.7, 100.0):
        batch = origin_series.expand_batch(alphas, betas, lam)
        assert len(batch) == len(alphas)
        packed = [_packed(series) for series in batch]
        for p, alpha, beta in zip(packed, alphas, betas):
            assert p == _packed(expand_series(ShootPoint(alpha, beta), lam))
        # a slice, also as a worker process unpickles it, holds those lanes
        part = pickle.loads(pickle.dumps(batch[140:170]))
        assert [_packed(series) for series in part] == packed[140:170]
    with pytest.raises(DomainError):
        origin_series.expand_batch([0.1], [0.1], math.nan)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_batch_spans_are_the_lone_series_spans(monkeypatch, batch_lanes):
    # one lane-wise Horner pass gives every lane the piece ends and rows
    # that table computes for its lone series, on horizons inside most
    # spans and past every one
    alphas, betas = batch_lanes
    for lam in (0.0, 0.7, 100.0):
        batch = origin_series.expand_batch(alphas, betas, lam)
        lones = [expand_series(ShootPoint(a, b), lam) for a, b in zip(alphas, betas)]
        for t0 in (5e-4, DEFAULT_T0, T0_MAX):
            for t_max in (0.5, 12.0):
                want = [lone.span(t0, t_max) if min(lone.reach, t_max) > t0 else None
                        for lone in lones]
                with monkeypatch.context() as m:
                    # the batch's items read their rows, not table
                    m.setattr(origin_series.OriginSeries, "table", None)
                    got = [series.span(t0, t_max) if min(series.reach, t_max) > t0
                           else None for series in batch.read_spans(t0, t_max)]
                assert got == want, (lam, t0, t_max)
                assert sum(w is None for w in want) < 15
    # the rows are table's at t0 and the ends: the multiples of 0.05, then the reach
    lone = expand_series(ShootPoint(1 / 6, 1 / 3), 0.0)
    ends, rows = lone.span(DEFAULT_T0, 12.0)
    assert ends == [j * 0.05 for j in range(1, len(ends))] + [lone.reach]
    assert len(ends) > 20
    assert rows == [tuple(r) for r in lone.table([DEFAULT_T0, *ends]).tolist()]
    # a slice, also as a worker process unpickles it, keeps its lanes' rows
    read = origin_series.expand_batch(alphas, betas, 0.7).read_spans(DEFAULT_T0, 0.5)
    part = pickle.loads(pickle.dumps(read[10:30]))
    assert [s.span(DEFAULT_T0, 0.5) for s in part] == [
        s.span(DEFAULT_T0, 0.5) for s in read][10:30]


def test_series_start_is_initial_state():
    # shoot reads the two-term start off the order-24 series: a4 and b3
    # are the recurrence's, so the state is initial_state's
    for alpha, beta, lam in ((1 / 6, 1 / 3, 0.0), (0.39, 0.87, 1.0), (1e-4, 100.0, 0.0),
                             (2.5, 0.0, 50.0)):
        point = ShootPoint(alpha, beta)
        series = expand_series(point, lam)
        assert series.coefficients() == series_coefficients(point, lam)
        for t0 in (5e-4, DEFAULT_T0, T0_MAX):
            assert series.initial_state(t0) == initial_state(point, lam, t0)
        with pytest.raises(HandoffError):
            series.initial_state(1.5 * T0_MAX)


def test_series_matches_dop853_from_half_its_reach():
    # DOP853 at rel_tol 1e-14, started from the series at half its reach,
    # lands on the series at every step end out to the reach (or to the
    # gauge event that ends the run first), on seeded draws that include
    # alpha = 0 and beta = 0
    rng = random.Random(15)
    draws = [(0.0, 0.0, 0.0), (0.0, 2.0, 5.0), (1.5, 0.0, 50.0), (3.0, 6.0, 100.0),
             *[(rng.uniform(0, 3), rng.uniform(0, 6), rng.uniform(0, 100))
               for _ in range(40)]]
    worst = 0.0
    for alpha, beta, lam in draws:
        series = expand_series(ShootPoint(alpha, beta), lam)
        t = 0.5 * series.reach
        traj = integrate(PhaseState(t, *series.state(t)), lam, IntegratorControls(
            rel_tol=1e-14, abs_tol=1e-16, t_max=series.reach, t0=0.5 * t))
        got, want = np.array(traj.ys), series.table(traj.ts)
        worst = max(worst, (np.abs(got - want) / np.maximum(1.0, np.abs(want))).max())
    assert worst < 1e-14


def test_reach_is_finite():
    # the vacuum has no growth at all: its reach is the cap
    assert expand_series(ShootPoint(0.0, 0.0), 1.0).reach == origin_series._REACH_MAX
    # f = F(sqrt(alpha) t) at beta = 0: the reach shrinks like 1/sqrt(alpha)
    r1 = expand_series(ShootPoint(1.0, 0.0), 0.0).reach
    r4 = expand_series(ShootPoint(4.0, 0.0), 0.0).reach
    assert r4 == pytest.approx(0.5 * r1, rel=1e-12)
    # huge alpha puts it below the handoff radius, and coefficients that
    # overflow give no reach at all
    assert expand_series(ShootPoint(1e12, 1.0), 0.0).reach < DEFAULT_T0
    assert expand_series(ShootPoint(1.0, 1e200), 0.0).reach == 0.0
    with pytest.raises(DomainError):
        expand_series(ShootPoint(0.1, 0.1), -1.0)
