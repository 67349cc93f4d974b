"""Far-field fits, the grafted profile, audits, residuals, mass, and the fluctuation probe."""
from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

import oracles
from monopole import analysis
from monopole.errors import (AuditDomainError, DomainError, FitDomainError,
                             SturmDomainError)
from monopole.integrator import IntegratorControls, integrate
from monopole.model import PhaseState, energy_density, ps_exact
from monopole.origin_series import ShootPoint
from monopole.shooter import shoot


def _vacuum_trajectory(lambda_hat=1.0):
    # f = 0, rho = 1 solves both equations exactly, so the integrator
    # holds it constant: a trajectory with an identically zero component
    start = PhaseState(t=1.0, f=0.0, fp=0.0, rho=1.0, rhop=0.0)
    return integrate(start, lambda_hat, IntegratorControls())


# ---------------------------------------------------------------- fit_decay

def _assert_polyfit_line(traj, window):
    """Both components' fits over window give the line np.polyfit gives.

    np.polyfit, a LAPACK least-squares solve, is the reference only:
    fit_decay fits the same line in closed form.
    """
    ts = np.linspace(*window, 201)
    cols = traj.resample(ts)
    gauge = cols[:, 0] / ts if traj.lambda_hat == 0.0 else cols[:, 0]
    for component, vals in (("f", gauge), ("one_minus_rho", (1.0 - cols[:, 2]) * ts)):
        fit = analysis.fit_decay(traj, window, component)
        y = np.log(vals)
        slope, intercept = np.polyfit(ts, y, 1)
        assert_allclose(fit.rate, -slope, rtol=1e-12, atol=0.0)
        assert_allclose(fit.amplitude, math.exp(intercept), rtol=1e-12, atol=0.0)
        resid = np.max(np.abs(y - (slope * ts + intercept)))
        assert abs(fit.max_log_residual - resid) <= 1e-12


def test_fit_decay_gauge_rate_massless(lam0):
    fit = analysis.fit_decay(lam0.profile.base, (6.0, 10.0), "f")
    assert fit.prefactor == "t"
    assert abs(fit.rate - 1.0) < 0.02
    assert fit.window == (6.0, 10.0)
    _assert_polyfit_line(lam0.profile.base, lam0.profile.f_fit.window)


def test_fit_decay_higgs_rate_massive(lam1):
    tg = lam1.profile.t_graft
    fit = analysis.fit_decay(lam1.profile.base, (tg - 2.0, tg), "one_minus_rho")
    assert fit.prefactor == "1/t"
    assert abs(fit.rate - math.sqrt(2.0)) < 0.07
    ffit = analysis.fit_decay(lam1.profile.base, (tg - 2.0, tg), "f")
    assert ffit.prefactor == "1"
    assert abs(ffit.rate - 1.0) < 0.05
    _assert_polyfit_line(lam1.profile.base, lam1.profile.f_fit.window)


def test_fit_decay_rejects_zero_component():
    traj = _vacuum_trajectory()
    with pytest.raises(FitDomainError):
        analysis.fit_decay(traj, (2.0, 10.0), "f")


def test_fit_decay_domain_errors(lam0):
    traj = lam0.profile.base
    with pytest.raises(FitDomainError):
        analysis.fit_decay(traj, (6.0, 99.0), "f")  # beyond the samples
    with pytest.raises(FitDomainError):
        analysis.fit_decay(traj, (8.0, 6.0), "f")  # inverted window
    with pytest.raises(DomainError):
        analysis.fit_decay(traj, (6.0, 10.0), "rho")  # unknown component


def _clean_fits(traj, t):
    """Both far-field fits over [t - FIT_SPAN, t] are clean with positive rates."""
    window = (t - analysis.FIT_SPAN, t)
    fits = [analysis.fit_decay(traj, window, c) for c in ("one_minus_rho", "f")]
    return all(fit.max_log_residual < 0.05 and fit.rate > 0.0 for fit in fits)


def test_stable_fit_horizon(lam0, lam1):
    assert analysis.stable_fit_horizon(lam0.profile.base)[0] == 12.0
    # at lambda_hat = 1 the radius moves by half units with the last
    # digits of alpha*, so check the definition: the largest half-unit
    # grid radius below the end whose fits are both clean
    traj = lam1.profile.base
    t, f_fit, h_fit = analysis.stable_fit_horizon(traj)
    # the fits it returns are the ones over the window below that radius
    window = (t - analysis.FIT_SPAN, t)
    assert (f_fit, h_fit) == (analysis.fit_decay(traj, window, "f"),
                              analysis.fit_decay(traj, window, "one_minus_rho"))
    t_hi = min(traj.t_end, traj.controls.t_max)
    steps = (t_hi - t) / 0.5
    assert t >= 6.0 and steps == round(steps)
    assert _clean_fits(traj, t)
    for k in range(round(steps)):
        try:
            assert not _clean_fits(traj, t_hi - 0.5 * k)
        except FitDomainError:
            pass


# ------------------------------------------------------------ graft_tail

def test_graft_tail_continuity(lam0):
    g = lam0.profile
    assert g.t_graft <= g.base.t_end
    assert g.t_report > g.t_graft
    # the fitted far field must meet the numerical profile smoothly
    assert abs(g.mismatch_f) < 1e-6
    assert abs(g.mismatch_rho) < 1e-6
    with pytest.raises(dataclasses.FrozenInstanceError):  # built once, whole
        g.mismatch_f = 0.0
    eps = 1e-9
    below = g.state_at(g.t_graft - eps)
    above = g.state_at(g.t_graft + eps)
    assert_allclose(below.f, above.f, rtol=0, atol=1e-6)
    assert_allclose(below.rho, above.rho, rtol=0, atol=1e-6)


def test_graft_table_matches_state_at(lam0):
    # the profile table is read in one batch, row for row what state_at
    # gives: on every step boundary (where both read the step that ends
    # there), at t_graft and on the fitted tail past it
    g = lam0.profile
    ts = np.sort(np.concatenate([np.linspace(g.base.ts[0], g.t_report, 301),
                                 g.base.ts, [g.t_graft]]))
    rows = g.table(ts)
    core = ts <= g.t_graft
    assert core.sum() > len(g.base.ts) and (~core).sum() > 100
    want = np.array([g.state_at(t).as_tuple() for t in ts])
    assert rows[core].tolist() == want[core].tolist()
    # the tail's exponentials come from numpy either way; allow for a
    # vector and a scalar exp that differ in the last place
    assert_allclose(rows[~core], want[~core], rtol=1e-15, atol=0.0)


def test_graft_tail_models(lam0, lam1):
    # lambda_hat = 0: f ~ A t e^{-t} and a 1/t Coulomb gap in the Higgs
    g0 = lam0.profile
    t = g0.t_graft + 1.0
    s = g0.tail_state(t)
    expect_f = g0.f_fit.amplitude * t * math.exp(-g0.f_fit.rate * t)
    assert_allclose(s.f, expect_f, rtol=1e-12)
    gap = 1.0 - s.rho
    assert_allclose(gap, g0.higgs_fit.amplitude / t, rtol=1e-6)
    # doubling the radius halves the Coulomb gap
    gap2 = 1.0 - g0.tail_state(2.0 * t).rho
    assert_allclose(gap2 / gap, 0.5, rtol=1e-6)
    # lambda_hat = 1: plain exponential f and an exponential Higgs gap
    g1 = lam1.profile
    t1 = g1.t_graft + 1.0
    s1 = g1.tail_state(t1)
    expect_f1 = g1.f_fit.amplitude * math.exp(-g1.f_fit.rate * t1)
    assert_allclose(s1.f, expect_f1, rtol=1e-12)
    # rho is 1 minus the exponential gap B e^{-kt} / t, to the last bit:
    # the gap is ~4e-8 here, so 1 - rho would carry the rounding of rho
    # next to 1, up to ~1.4e-9 of the gap
    expect_gap1 = g1.higgs_fit.amplitude * np.exp(-g1.higgs_fit.rate * t1) / t1
    assert s1.rho == 1.0 - expect_gap1
    gap1 = 1.0 - s1.rho
    # the gap decays at the fitted rate, not the Coulomb power law
    gap1b = 1.0 - g1.tail_state(t1 + 1.0).rho
    ratio = gap1b / gap1
    expect_ratio = math.exp(-g1.higgs_fit.rate) * t1 / (t1 + 1.0)
    assert_allclose(ratio, expect_ratio, rtol=1e-6)


def test_graft_tail_calls_no_lapack(lam0, lam1, monkeypatch):
    # the fits are closed-form lines: with numpy's least-squares entry
    # points made to raise, the graft is the one the solve made
    def refuse(*args, **kwargs):
        raise AssertionError("the graft called a LAPACK least-squares solve")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    for rep in (lam0, lam1):
        got = analysis.graft_tail(rep.profile.base)
        assert got.base is rep.profile.base
        for field in dataclasses.fields(analysis.GraftedProfile)[1:]:
            assert getattr(got, field.name) == getattr(rep.profile, field.name)


def test_graft_tail_refuses_a_run_too_short_to_fit():
    # the fit horizon search finds no window in a run that ends at t = 5,
    # below its floor t = 6, and refuses it
    run = shoot(ShootPoint(1.0 / 6.0, 1.0 / 3.0), 0.0, IntegratorControls(t_max=5.0))
    assert run.t_end == 5.0
    with pytest.raises(DomainError, match="t_graft = 6.0 outside usable range"):
        analysis.graft_tail(run)


# ---------------------------------------------------- monotonicity_audit

def test_audit_margins_match_closed_form(lam0):
    aud = analysis.monotonicity_audit(lam0.profile)
    assert aud.passes
    assert aud.f_in_01 and aud.fp_negative and aud.rho_in_01 and aud.rhop_positive
    assert aud.window == (1e-3, 12.0)
    m = aud.worst_margins
    t0, th = 1e-3, 12.0
    # the f-channel edge margins inherit the e^t-amplified alpha* offset,
    # the Higgs-channel ones sit on the series head and are much tighter
    assert_allclose(m["f_min"], th / math.sinh(th), rtol=5e-3)
    assert_allclose(m["one_minus_f_min"], t0 ** 2 / 6.0 - 7.0 * t0 ** 4 / 360.0,
                    rtol=1e-6)
    assert_allclose(m["minus_fp_min"],
                    (th * math.cosh(th) - math.sinh(th)) / math.sinh(th) ** 2,
                    rtol=5e-3)
    assert_allclose(m["rho_min"], t0 / 3.0 - t0 ** 3 / 45.0, rtol=1e-6)
    assert_allclose(m["one_minus_rho_min"],
                    1.0 - (1.0 / math.tanh(th) - 1.0 / th), rtol=1e-6)
    assert_allclose(m["rhop_min"],
                    1.0 / th ** 2 - 1.0 / math.sinh(th) ** 2, rtol=1e-6)


def test_audit_fails_on_vacuum_table():
    ts = np.linspace(1.0, 5.0, 101)
    ones, zeros = np.ones_like(ts), np.zeros_like(ts)
    aud = analysis.monotonicity_audit((ts, ones, zeros, zeros, zeros))
    assert not aud.passes
    assert not aud.f_in_01        # f touches 1
    assert not aud.fp_negative    # f' is zero, not negative
    assert not aud.rho_in_01
    assert not aud.rhop_positive


def test_audit_rejects_failed_runs(lam0):
    boom = integrate(PhaseState(t=1.0, f=0.3, fp=-0.2, rho=1.4, rhop=8.0),
                     1.0, IntegratorControls())
    assert boom.ended == "blowup"
    with pytest.raises(AuditDomainError):
        analysis.monotonicity_audit(dataclasses.replace(lam0.profile, base=boom))
    with pytest.raises(AuditDomainError):  # graft radius beyond the samples
        analysis.monotonicity_audit(dataclasses.replace(lam0.profile, t_graft=99.0))


# --------------------------------------------------------- residual_norm

def _ps_table(h: float, lo: float = 0.05, hi: float = 10.0):
    n = int(round((hi - lo) / h))
    ts = np.linspace(lo, hi, n + 1)
    states = [ps_exact(t) for t in ts]
    return ts, np.array([s.f for s in states]), np.array([s.rho for s in states])


def test_residual_on_closed_form_samples():
    ts, fs, rhos = _ps_table(1e-3)
    r1 = analysis.residual_norm((ts, fs, rhos), lambda_hat=0.0)
    assert r1 < 1e-5
    ts2, fs2, rhos2 = _ps_table(2e-3)
    r2 = analysis.residual_norm((ts2, fs2, rhos2), lambda_hat=0.0)
    # O(h^2) differencing: halving the spacing cuts the norm ~4x
    assert r1 <= 0.35 * r2
    assert 3.5 < r2 / r1 < 4.5


def test_residual_zero_on_vacuum():
    ts = np.linspace(1.0, 2.0, 101)
    r = analysis.residual_norm((ts, np.zeros_like(ts), np.ones_like(ts)),
                               lambda_hat=1.0)
    assert r == 0.0


def test_residual_trajectory_route(lam0):
    r = analysis.residual_norm(lam0.profile)
    assert r < 1e-5


def test_residual_blocks_give_the_whole_grid_value(lam0):
    # the profile's 2.5e-4 grid is resampled a block at a time, with the
    # maximum the whole grid's, and never held whole in memory
    traj, lo, h = lam0.profile.base, 0.05, 2.5e-4
    n = int(math.floor((lam0.profile.t_graft - lo) / h)) + 1
    assert n > 2 * analysis.BLOCK
    ts = lo + h * np.arange(n)
    cols = traj.resample(ts)
    want = oracles.whole_grid_residual(ts, cols[:, 0], cols[:, 2], h, 0.0)
    tracemalloc.start()
    try:
        got = analysis.residual_norm(lam0.profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 2e6, peak


@pytest.mark.parametrize("extra", [-1, 0, 1, 2, analysis.BLOCK + 1])
def test_residual_raw_blocks_give_the_whole_array_value(extra):
    # grids of B - 1, B, B + 1, B + 2 and 2B + 1 samples, B the block
    # size; a spike at each sample next to a block edge must be seen
    m = analysis.BLOCK + extra
    ts = 0.5 + 1e-3 * np.arange(m)
    h = float(ts[1] - ts[0])
    base_f, base_rho = np.exp(-ts), 1.0 - np.exp(-ts) / ts
    edges = {1, m - 2} | {k for e in range(analysis.BLOCK, m, analysis.BLOCK)
                          for k in range(e - 2, e + 2)}
    for k in sorted(k for k in edges if 0 < k < m - 1):
        for spiked in (0, 1):
            fs, rhos = base_f.copy(), base_rho.copy()
            (fs, rhos)[spiked][k] += 1.0
            want = oracles.whole_grid_residual(ts, fs, rhos, h, 0.7)
            assert analysis.residual_norm((ts, fs, rhos), lambda_hat=0.7) == want, k


def test_residual_domain_errors():
    ts, fs, rhos = _ps_table(1e-2, lo=1.0, hi=2.0)
    with pytest.raises(DomainError):
        analysis.residual_norm((ts, fs, rhos))  # lambda_hat required
    bad = np.concatenate([ts[:-1], [ts[-1] + 3e-3]])
    with pytest.raises(DomainError):
        analysis.residual_norm((bad, fs, rhos), lambda_hat=0.0)
    with pytest.raises(DomainError):
        analysis.residual_norm((ts[:4], fs[:4], rhos[:4]), lambda_hat=0.0)


def test_residual_refuses_raw_samples_that_do_not_ascend():
    # a spacing h <= 0 read off the first two radii is refused before any
    # difference is formed
    ts, fs, rhos = _ps_table(1e-2, lo=1.0, hi=2.0)
    for bad in (ts[::-1], np.full_like(ts, 1.5)):
        with pytest.raises(DomainError, match="uniformly spaced"):
            analysis.residual_norm((bad, fs, rhos), lambda_hat=0.0)


def test_residual_refuses_a_window_outside_the_run(lam0):
    # the window [max(0.05, first radius), t_graft] must be non-empty and
    # end inside the run
    run = lam0.profile.base
    for t_graft in (0.05, 0.04, run.t_end + 1.0):
        with pytest.raises(DomainError, match="residual window"):
            analysis.residual_norm(dataclasses.replace(lam0.profile, t_graft=t_graft))


def test_residual_refuses_a_window_of_fewer_than_5_samples(lam0):
    # a window 3.2 spacings (2.5e-4) wide holds 4 samples
    short = dataclasses.replace(lam0.profile, t_graft=0.05 + 8e-4)
    with pytest.raises(DomainError, match="at least 5 samples"):
        analysis.residual_norm(short)


# --------------------------------------------------------- mass_integral

def test_simpson_refuses_an_even_sample_count():
    with pytest.raises(DomainError, match="odd sample count"):
        analysis._simpson(np.ones(4), 0.1)
    assert analysis._simpson(np.ones(5), 0.1) == pytest.approx(0.4, rel=1e-15)


def test_odd_grid_rounds_an_odd_interval_count_up():
    # 1 / 0.4 rounds up to 3 intervals, and Simpson's rule needs an even
    # count: the grid takes 4, so it is exact on a cubic
    ts, h = analysis._odd_grid(0.0, 1.0, 0.4)
    assert (len(ts), h) == (5, 0.25)
    assert_allclose(ts, [0.0, 0.25, 0.5, 0.75, 1.0], rtol=0, atol=0)
    assert analysis._simpson(ts ** 3, h) == pytest.approx(0.25, rel=1e-15)
    ts, h = analysis._odd_grid(0.0, 1.0, 0.25)
    assert (len(ts), h) == (5, 0.25)


def test_mass_matches_independent_quadrature(lam0):
    m = analysis.mass_integral(lam0.profile)
    val, err = quad(lambda t: energy_density(ps_exact(t), 0.0),
                    1e-8, 60.0, limit=200)
    # beyond the cut both Coulomb densities integrate in closed form;
    # the Higgs gap is exactly 1/t there so its B^2 equals 1
    exact = val + 1.0 / 60.0
    assert err < 1e-9
    assert_allclose(m, exact, atol=5e-7)
    assert_allclose(m, 1.0, atol=1e-6)


def test_mass_requires_far_cut_beyond_graft(lam0):
    with pytest.raises(DomainError):
        analysis.mass_integral(dataclasses.replace(lam0.profile, t_graft=500.0))


# ------------------------------------------------------ linearized_probe

def test_probe_flat_background_node():
    res = analysis.linearized_probe(None)
    assert res.mass_term
    assert_allclose(res.first_zero, oracles.tan_root(), rtol=0, atol=1e-10)


def test_probe_sturm_ordering():
    flat = analysis.linearized_probe(None).first_zero
    lowered = analysis.linearized_probe(lambda u: 0.5).first_zero
    assert lowered <= flat + 1e-10


def test_probe_short_window_reports_no_node():
    res = analysis.linearized_probe(None, u_end=2.0)
    assert res.first_zero is None
    assert res.u_end == pytest.approx(2.0)


def test_probe_on_solved_profiles(lam0, lam1):
    res1 = analysis.linearized_probe(lam1.profile)
    assert res1.mass_term
    assert res1.first_zero is not None
    assert res1.first_zero <= 4.4934094579090642 + 1e-3
    assert abs(res1.first_zero - 3.7368) < 0.05
    # no mass scale at lambda_hat = 0: the probe has no restoring force
    res0 = analysis.linearized_probe(lam0.profile)
    assert not res0.mass_term
    assert res0.first_zero is None


def test_probe_reads_the_series_head_below_the_handoff(lam1p5, monkeypatch):
    # above lambda_hat = 1 the probe's first radius t = u0 / sqrt(lambda_hat)
    # lies below the run's first sample t0; there p is the series head
    # 1 - alpha t^2, which meets the run at t0, and the profile is never
    # read below t0
    g = lam1p5.profile
    t0 = g.base.ts[0]
    assert 1e-3 / math.sqrt(1.5) < t0
    assert_allclose(1.0 - g.base.alpha * t0 * t0, g.state_at(t0).f, rtol=0, atol=1e-11)
    seen = []
    state_at = analysis.GraftedProfile.state_at
    monkeypatch.setattr(analysis.GraftedProfile, "state_at",
                        lambda self, t: seen.append(t) or state_at(self, t))
    res = analysis.linearized_probe(g)
    assert min(seen) >= t0
    assert res.mass_term
    assert res.first_zero is not None
    assert res.first_zero <= 4.4934094579090642 + 1e-3


def test_probe_domain_errors():
    with pytest.raises(SturmDomainError):
        analysis.linearized_probe(lambda u: 1.1)
    with pytest.raises(SturmDomainError):
        analysis.linearized_probe(lambda u: 0.0)
    with pytest.raises(DomainError):
        analysis.linearized_probe(None, u_end=1e-3)

    # more than 10^6 steps of 1e-3, an infinite u_end included, is refused
    # before the first step
    def unreached(u):
        raise AssertionError(f"stepped at u = {u}")

    for u_end in (math.inf, 2e3):
        with pytest.raises(DomainError, match=r"more than 10\^6 steps"):
            analysis.linearized_probe(unreached, u_end=u_end)
