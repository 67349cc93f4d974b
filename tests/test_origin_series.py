"""Origin series coefficients, handoff state, and the Picard certificate."""
from __future__ import annotations

import math
import pickle
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose

from monopole import origin_series
from monopole.errors import ContractionDomainError, DomainError, HandoffError
from monopole.integrator import IntegratorControls, integrate
from monopole.model import PhaseState, ps_exact
from monopole.origin_series import (DEFAULT_T0, T0_MAX, T0_MIN, ShootPoint,
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
@example(alpha=8.593818694091294e-156, beta=0.0, lam=0.0)
def test_series_coefficients_closed_form(alpha, beta, lam):
    # below the normal range two correct roundings can differ by one
    # subnormal spacing (5e-324), far more than rtol, hence atol
    c = series_coefficients(ShootPoint(alpha, beta), lam)
    assert_allclose(c.a4, (3 * alpha * alpha + beta * beta) / 10, rtol=1e-15, atol=1e-300)
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
    with pytest.raises(HandoffError):
        initial_state(pt, 0.0, 0.5 * T0_MIN)
    initial_state(pt, 0.0, T0_MAX)  # boundaries are allowed
    initial_state(pt, 0.0, T0_MIN)


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
    # refused up front, not run for hours
    for n_iters in (1001, 100_000_000):
        with pytest.raises(DomainError, match="n_iters must be at most 1000"):
            picard_verify(pt, 0.0, n_iters=n_iters)
    with pytest.raises(DomainError):
        picard_verify(pt, 0.0, ds=0.05)


def test_default_handoff_radius():
    assert T0_MIN <= DEFAULT_T0 <= T0_MAX


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


def test_lone_span_rows_are_the_horner_rows(lam0, lam1):
    # a lone series reads its span with state, radius by radius: the rows
    # are those of one _horner pass over its ends, to the bit, at the two
    # solved answers and on seeded points of the sweep benchmark's box
    rng = random.Random(36)
    points = [(0.0, lam0.alpha_star_hat, lam0.beta_star_hat),
              (1.0, lam1.alpha_star_hat, lam1.beta_star_hat),
              *[(rng.uniform(0.0, 2.0), rng.uniform(0.02, 1.5), rng.uniform(0.05, 2.0))
                for _ in range(40)]]
    for lam, alpha, beta in points:
        series = expand_series(ShootPoint(alpha, beta), lam)
        ends, rows = series.span()
        horner = origin_series._horner(series._matrix[None], np.array(ends)[None])[0]
        assert rows == tuple(map(tuple, horner.tolist())), (lam, alpha, beta)


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
        # a slice, pickled and unpickled, holds those lanes
        part = pickle.loads(pickle.dumps(batch[140:170]))
        assert [_packed(series) for series in part] == packed[140:170]
    with pytest.raises(DomainError):
        origin_series.expand_batch([0.1], [0.1], math.nan)


def test_a_batch_of_one_lane_is_its_lone_series():
    # numpy adds a lone lane's convolution pairwise, not row by row, so
    # the recurrence pads a batch of one to two lanes: a one-point sweep
    # expands the series a single shot would
    rng = random.Random(23)
    for _ in range(20):
        alpha, beta = rng.uniform(0.0, 3.0), rng.uniform(0.0, 6.0)
        series, = origin_series.expand_batch([alpha], [beta], 0.7)
        lone = expand_series(ShootPoint(alpha, beta), 0.7)
        assert _packed(series) == _packed(lone) and series.span() == lone.span()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_batch_spans_are_the_lone_series_spans(monkeypatch, batch_lanes):
    # one lane-wise Horner pass gives every lane the piece ends and rows
    # that its lone series evaluates, neither through table; a lane whose
    # coefficients overflow (reach 0) holds NaN rows, so it is compared by
    # its reach
    alphas, betas = batch_lanes
    for lam in (0.0, 0.7, 100.0):
        with monkeypatch.context() as m:
            m.setattr(origin_series.OriginSeries, "table", None)
            lones = [expand_series(ShootPoint(a, b), lam) for a, b in zip(alphas, betas)]
            batch = origin_series.expand_batch(alphas, betas, lam)
        overflowed = 0
        for lone, series in zip(lones, batch):
            if lone.reach == 0.0:
                assert series.reach == 0.0
                overflowed += 1
            else:
                assert series.span() == lone.span(), (lone.alpha, lone.beta, lam)
        assert 2 <= overflowed < 15
        # the vacuum's reach, 2, is itself a multiple of 0.05: one end there
        vacuum = batch[list(zip(alphas, betas)).index((0.0, 0.0))]
        assert vacuum.span()[0] == (*(j * 0.05 for j in range(1, 40)), 2.0)
    # the rows are table's at the ends: the multiples of 0.05, then the reach
    lone = expand_series(ShootPoint(1 / 6, 1 / 3), 0.0)
    ends, rows = lone.span()
    assert ends == (*(j * 0.05 for j in range(1, len(ends))), lone.reach)
    assert len(ends) > 20
    assert rows == tuple(map(tuple, lone.table(ends).tolist()))
    # a slice, pickled and unpickled, keeps its lanes' rows
    read = origin_series.expand_batch(alphas, betas, 0.7)
    part = pickle.loads(pickle.dumps(read[10:30]))
    assert [s.span() for s in part] == [s.span() for s in read[10:30]]


def test_series_carries_the_two_term_coefficients():
    # the order-24 series a shot runs on carries the a4 and b3 of
    # initial_state's two-term truncation, to the bit: one recurrence
    # gives both
    for alpha, beta, lam in ((1 / 6, 1 / 3, 0.0), (0.39, 0.87, 1.0), (1e-4, 100.0, 0.0),
                             (2.5, 0.0, 50.0)):
        point = ShootPoint(alpha, beta)
        series = expand_series(point, lam)
        assert series.coefficients() == series_coefficients(point, lam)


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
            rel_tol=1e-14, abs_tol=1e-16, t_max=series.reach))
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
