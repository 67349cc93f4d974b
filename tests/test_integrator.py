"""Adaptive integrator, event location, and trajectory classification."""
from __future__ import annotations

import bisect
import math
import random
from operator import mul

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as dop853

from monopole import dense_output, integrator
from monopole.errors import DomainError, NoEventError
from monopole.integrator import (TUBE, ClassifyMode, Event, IntegratorControls,
                                 OutcomeTag, Trajectory, classify, extend,
                                 in_tube, integrate, integrate_series,
                                 refine_event)
from monopole.model import PhaseState, _rhs, ps_exact
from monopole.origin_series import ShootPoint, expand_series, initial_state
from monopole.shooter import shoot

import oracles


def _start(alpha, beta, lam, t0=1e-3):
    return initial_state(ShootPoint(alpha, beta), lam, t0)


def test_controls_validation():
    with pytest.raises(DomainError):
        IntegratorControls(rel_tol=0.0)
    with pytest.raises(DomainError):
        IntegratorControls(t_max=-1.0)
    # a NaN compares false with every bound, an infinity passes them
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("rel_tol", "abs_tol", "t_max", "max_step", "t0"):
            with pytest.raises(DomainError):
                IntegratorControls(**{name: bad})
    for name in ("max_step", "t0"):
        with pytest.raises(DomainError):
            IntegratorControls(**{name: 0.0})


def test_bps_trajectory_tracks_closed_form():
    traj = integrate(_start(1 / 6, 1 / 3, 0.0), 0.0, IntegratorControls())
    assert traj.ended == "t_max"
    # the start rides the separatrix, so step noise grows like e^t; the
    # bounds track that growth rather than pretending it away
    for t, tol in ((0.5, 1e-9), (1.0, 1e-9), (2.0, 2e-9), (5.0, 5e-8), (10.0, 5e-6)):
        got = traj.state_at(t)
        exact = ps_exact(t)
        assert_allclose(got.f, exact.f, atol=tol)
        assert_allclose(got.rho, exact.rho, atol=tol)
    out = classify(traj, ClassifyMode.F_FATE)
    assert out.tag is OutcomeTag.CONVERGED
    out_rho = classify(traj, ClassifyMode.RHO_FATE)
    assert out_rho.tag is OutcomeTag.CONVERGED


def test_against_scipy_reference():
    # Same start, independent integrator and independent rhs transcription.
    # The window stops short of the FZero event near t = 2.17.
    start = _start(0.3, 0.1, 0.0)
    traj = integrate(start, 0.0, IntegratorControls(t_max=2.0))
    assert traj.ended == "t_max"
    sol = solve_ivp(lambda t, y: oracles.deriv(t, y, 0.0),
                    (start.t, 2.0), list(start.as_tuple()),
                    method="RK45", rtol=1e-12, atol=1e-14, dense_output=True)
    assert sol.success
    for t in (0.5, 1.2, 2.0 - 1e-9):
        mine = traj.state_at(t)
        ref = sol.sol(t)
        assert_allclose(mine.f, ref[0], rtol=1e-8, atol=1e-10)
        assert_allclose(mine.fp, ref[1], rtol=1e-8, atol=1e-10)
        assert_allclose(mine.rho, ref[2], rtol=1e-8, atol=1e-10)
        assert_allclose(mine.rhop, ref[3], rtol=1e-8, atol=1e-10)


def test_fzero_event_against_rk4_oracle():
    # Overcritical alpha: f crosses zero; radii agree with the fixed-step oracle.
    traj = integrate(_start(0.3, 0.1, 0.0), 0.0, IntegratorControls())
    out = classify(traj, ClassifyMode.F_FATE)
    assert out.tag is OutcomeTag.F_ZERO
    ref = oracles.rk4_shoot(0.3, 0.1, 0.0)
    assert ref["f_event"][0] == "FZero"
    assert abs(out.t_event - ref["f_event"][1]) < 1e-3


def test_fprime_zero_event_against_rk4_oracle():
    traj = integrate(_start(0.05, 0.6, 0.0), 0.0, IntegratorControls())
    out = classify(traj, ClassifyMode.F_FATE)
    assert out.tag is OutcomeTag.FPRIME_ZERO
    ref = oracles.rk4_shoot(0.05, 0.6, 0.0)
    assert ref["f_event"][0] == "FPrimeZero"
    assert abs(out.t_event - ref["f_event"][1]) < 1e-3


def test_rho_cross_vev_recorded_before_gauge_event():
    # Mid-field start with the Higgs racing upward: rho crosses its vacuum
    # value first, and the crossing stays recorded even though the gauge
    # turn later terminates the trajectory.
    start = PhaseState(t=1.0, f=0.5, fp=-0.3, rho=0.8, rhop=1.5)
    traj = integrate(start, 1.0, IntegratorControls())
    out = classify(traj, ClassifyMode.RHO_FATE)
    assert out.tag is OutcomeTag.RHO_CROSS_VEV
    assert_allclose(traj.state_at(out.t_event).rho, 1.0, atol=1e-8)
    assert classify(traj, ClassifyMode.F_FATE).tag is OutcomeTag.FPRIME_ZERO


def test_higgs_blowup_channel():
    # Far above the vacuum the quartic term is explosive; both fates must
    # report the blowup with the Higgs channel named.
    start = PhaseState(t=1.0, f=0.3, fp=-0.2, rho=1.4, rhop=8.0)
    traj = integrate(start, 1.0, IntegratorControls())
    assert traj.ended == "blowup"
    for mode in (ClassifyMode.F_FATE, ClassifyMode.RHO_FATE):
        out = classify(traj, mode)
        assert out.tag is OutcomeTag.BLOWUP
        assert out.detail == "rho"


def test_rho_prime_zero_event():
    # tiny beta: rho turns over before reaching the vacuum value
    traj = integrate(_start(0.05, 1e-3, 1.0), 1.0, IntegratorControls())
    out = classify(traj, ClassifyMode.RHO_FATE)
    assert out.tag in (OutcomeTag.RHO_PRIME_ZERO, OutcomeTag.RHO_ZERO)
    ref = oracles.rk4_shoot(0.05, 1e-3, 1.0, h=1e-4, t_end=3.0)
    assert ref["rho_event"] is not None
    assert abs(out.t_event - ref["rho_event"][1]) < 1e-3


def test_subcritical_pair_reaches_horizon():
    traj = integrate(_start(0.05, 0.1, 0.0), 0.0, IntegratorControls())
    out = classify(traj, ClassifyMode.F_FATE)
    assert out.tag is OutcomeTag.HORIZON
    assert traj.t_end == pytest.approx(12.0)


def test_max_step_is_honored():
    c = IntegratorControls(t_max=4.0, max_step=0.05)
    traj = integrate(_start(1 / 6, 1 / 3, 0.0), 0.0, c)
    gaps = np.diff(traj.ts)
    assert gaps.max() <= 0.05 + 1e-12


def _resample_loop(traj, ts):
    # the per-point reference: each radius on the first segment whose end
    # is at or after it
    out, i, last = [], 0, len(traj.segments) - 1
    for t in ts:
        while i < last and traj.segments[i].t_end < t:
            i += 1
        out.append(traj.segments[i].eval(t))
    return out


def test_resample_matches_state_at():
    traj = integrate(_start(1 / 6, 1 / 3, 0.0), 0.0, IntegratorControls(t_max=5.0))
    # interior points, every step boundary (where the segment that ends
    # there is read) and both ends of the run
    ts = np.sort(np.concatenate([np.linspace(0.01, 4.9, 37), traj.ts]))
    table = traj.resample(ts)
    assert table.shape == (len(ts), 4)
    assert table.tolist() == [list(row) for row in _resample_loop(traj, ts)]
    # state_at reads the same segment as resample, on a step boundary too
    assert table.tolist() == [list(traj.state_at(t).as_tuple()) for t in ts]
    with pytest.raises(DomainError):
        traj.resample([1.0, 5.5])
    with pytest.raises(DomainError):
        traj.resample([math.nan])


def test_resample_on_the_series_span_alone_matches_state_at():
    # radii that all lie on the series span are read off the series only
    traj = integrate_series(expand_series(ShootPoint(1 / 6, 1 / 3), 0.0),
                            IntegratorControls())
    k = traj._span
    assert k > 0 and traj.segments
    ts = np.linspace(traj.ts[0], traj.ts[k], 9)
    assert traj.resample(ts).tolist() == [list(traj.state_at(t).as_tuple()) for t in ts]


def test_resample_without_segments_is_a_domain_error():
    # an immediate shot has one sample and no dense output
    traj = shoot(ShootPoint(1e-9, 0.3), 0.0, IntegratorControls())
    assert traj.ended == "immediate" and not traj.segments
    with pytest.raises(DomainError):
        traj.resample([traj.ts[0]])
    with pytest.raises(DomainError):
        traj.state_at(traj.ts[0])


def test_state_at_outside_range():
    traj = integrate(_start(1 / 6, 1 / 3, 0.0), 0.0, IntegratorControls(t_max=5.0))
    with pytest.raises(DomainError):
        traj.state_at(11.0)
    with pytest.raises(DomainError):
        traj.state_at(1e-6)


def test_refine_event_synthetic_root():
    # Interpolant with f = cos t: its f component has a root at pi/2.
    def interp(t):
        return PhaseState(t=t, f=math.cos(t), fp=-math.sin(t), rho=0.5, rhop=0.0)

    t_event = refine_event(lambda t: interp(t).f, 1.0, 2.0)
    state = interp(t_event)
    assert abs(t_event - math.pi / 2) < 1e-10
    assert abs(state.f) < 1e-10
    with pytest.raises(NoEventError):
        refine_event(lambda t: interp(t).f, 0.2, 1.0)


def test_refine_event_needs_an_interval_and_keeps_an_endpoint_on_the_level():
    for t_lo, t_hi in ((2.0, 2.0), (2.0, 1.0)):
        with pytest.raises(DomainError):
            refine_event(math.cos, t_lo, t_hi)
    # an endpoint exactly on the level is the crossing itself
    assert refine_event(lambda t: t, 1.0, 2.0, level=1.0) == 1.0
    assert refine_event(lambda t: t, 1.0, 2.0, level=2.0) == 2.0


def test_in_tube_uses_extrapolated_asymptote():
    # pointwise rho gap of 1/t is fine as long as rho + t rho' is near 1
    t = 10.0
    near = PhaseState(t=t, f=1e-4, fp=-1e-4, rho=0.95, rhop=0.005)
    assert in_tube(near)
    # descending Higgs is never converging
    falling = PhaseState(t=t, f=1e-4, fp=-1e-4, rho=0.95, rhop=-1e-4)
    assert not in_tube(falling)
    # asymptote short of the vacuum value
    low = PhaseState(t=t, f=1e-4, fp=-1e-4, rho=0.9, rhop=0.005)
    assert not in_tube(low)
    # live gauge field
    bad_f = PhaseState(t=t, f=0.5, fp=0.0, rho=0.95, rhop=0.005)
    assert not in_tube(bad_f)


def test_equilibrium_start_is_held_bitwise():
    traj = integrate(_start(0.0, 0.0, 1.0), 1.0, IntegratorControls())
    assert traj.ended == "t_max"
    assert all(tuple(y) == (1.0, 0.0, 0.0, 0.0) for y in traj.ys)


def test_bps_deviation_budget_at_default_tolerance():
    # rel_tol 1e-10 noise seeded early grows like e^t along the
    # separatrix, so ~1e-10 e^10 sets the attainable budget at t = 10
    traj = integrate(_start(1 / 6, 1 / 3, 0.0), 0.0,
                     IntegratorControls(t_max=10.0))
    dev = 0.0
    for t in np.linspace(1e-3, 10.0, 4000):
        s = traj.state_at(t)
        e = ps_exact(t)
        dev = max(dev, abs(s.f - e.f), abs(s.rho - e.rho))
    assert dev < 1e-6


def test_tolerance_consistency_modulo_separatrix_growth():
    # runs at rel_tol 1e-8 and 1e-10 agree within 10x the looser
    # tolerance once the system's own e^t deviation growth is divided
    # out; the raw gap at t = 10 is that bound times e^t and no
    # integrator can do better on this problem
    start = _start(1 / 6, 1 / 3, 0.0)
    tight = integrate(start, 0.0, IntegratorControls(t_max=10.0))
    loose = integrate(start, 0.0, IntegratorControls(
        t_max=10.0, rel_tol=1e-8, abs_tol=1e-10))
    worst = 0.0
    for t in np.linspace(1e-3, 10.0, 4000):
        a, b = tight.state_at(t), loose.state_at(t)
        gap = max(abs(a.f - b.f), abs(a.rho - b.rho))
        worst = max(worst, gap * math.exp(-t))
    assert worst < 10.0 * 1e-8


def test_refine_event_locates_higgs_half_crossing():
    # independent root of coth t - 1/t = 1/2
    lo, hi = 1.0, 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 1.0 / math.tanh(mid) - 1.0 / mid > 0.5:
            hi = mid
        else:
            lo = mid
    reference = 0.5 * (lo + hi)
    traj = integrate(_start(1 / 6, 1 / 3, 0.0), 0.0, IntegratorControls())
    t_event = refine_event(lambda t: traj.state_at(t).rho, 1.5, 2.0, 0.5)
    state = traj.state_at(t_event)
    # budget: the trajectory's own ~4e-10 field error over the ~0.31
    # local slope, on top of the refinement tolerance
    assert abs(t_event - reference) < 5e-9
    assert abs(state.rho - 0.5) < 1e-10


def _assert_same_run(got, want):
    assert got.ts == want.ts
    assert got.ys == want.ys
    assert got.n_steps == want.n_steps
    assert (got.ended, got.blowup_channel) == (want.ended, want.blowup_channel)
    assert got.controls == want.controls
    # Event equality covers tag, t, state and in_tube
    assert got.f_events == want.f_events
    assert got.rho_events == want.rho_events


def _to_first_gauge_event(run):
    """run up to the end of the step that finds its first f event, ended there.

    A run with no f event is itself.  The event lies in (ts[m - 1], ts[m]]
    of the step that finds it; the run keeps the Higgs events before it.
    """
    if not run.f_events:
        return run
    ev = run.f_events[0]
    m = next(i for i, t in enumerate(run.ts) if t >= ev.t)
    return Trajectory(lambda_hat=run.lambda_hat, controls=run.controls,
                      ts=run.ts[:m + 1], ys=run.ys[:m + 1],
                      segments=run.segments[:max(m - run._span, 0)], f_events=[ev],
                      rho_events=[e for e in run.rho_events if e.t < ev.t], ended="event")


def test_extend_continues_a_horizon_run_exactly():
    # up to its first gauge event, the continued run is the fresh one
    start = _start(1 / 6, 1 / 3, 0.0)
    c12, c24 = IntegratorControls(t_max=12.0), IntegratorControls(t_max=24.0)
    short = integrate(start, 0.0, c12)
    assert short.ended == "t_max"
    longer = extend(short, c24)
    _assert_same_run(longer, _to_first_gauge_event(integrate(start, 0.0, c24)))
    # the input run is left as integrate made it
    _assert_same_run(short, integrate(start, 0.0, c12))


def test_extend_keeps_an_event_run_that_never_met_the_horizon():
    start = _start(0.3, 0.87, 1.0)
    short = integrate(start, 1.0, IntegratorControls())
    assert short.ended == "event"
    c24 = IntegratorControls(t_max=24.0)
    _assert_same_run(extend(short, c24), integrate(start, 1.0, c24))


def test_extend_drops_what_the_clipped_step_found():
    # horizons just past the Higgs crossing and the terminal gauge turn:
    # the clipped last step finds each event, and a longer run finds it
    # again on its own, unclipped step
    start = _start(0.3, 0.87, 1.0)
    full = integrate(start, 1.0, IntegratorControls())
    t_rho, t_f = full.rho_events[0].t, full.f_events[0].t
    for t_max, ended in ((t_rho + 1e-6, "t_max"), (t_f + 1e-6, "event")):
        short = integrate(start, 1.0, IntegratorControls(t_max=t_max))
        assert short.ended == ended
        assert short.rho_events
        _assert_same_run(extend(short, IntegratorControls()), full)


def test_extend_resumes_when_the_horizon_clipped_the_first_step():
    # the run records the clip of its first step too, with the unclipped
    # step a longer run takes
    start = _start(1 / 6, 1 / 3, 0.0, t0=1e-3)
    c_short, c_long = IntegratorControls(t_max=1.1e-3), IntegratorControls(t_max=2.2e-3)
    short = integrate(start, 0.0, c_short)
    assert short.n_steps == 1 and short._resume[:3] == (0, 0, 0)
    assert short._resume[3] is not None
    _assert_same_run(extend(short, c_long), integrate(start, 0.0, c_long))


def test_extend_twice_matches_a_fresh_run():
    start = _start(1 / 6, 1 / 3, 0.0)
    run = integrate(start, 0.0, IntegratorControls(t_max=12.0))
    run = extend(extend(run, IntegratorControls(t_max=24.0)),
                 IntegratorControls(t_max=48.0))
    _assert_same_run(run, _to_first_gauge_event(
        integrate(start, 0.0, IntegratorControls(t_max=48.0))))


def test_extend_to_the_first_gauge_event_cuts_a_restarted_run():
    # just above the lambda_hat = 0 separatrix f crosses zero inside the
    # tube at t ~ 10.9.  A horizon inside the series span restarts the
    # longer run; continued to its first gauge event, it is the plain
    # longer run cut back to the step that found that crossing, and
    # classify reads the crossing as its verdict, as the plain run's tube
    # exit promotes it
    series = expand_series(ShootPoint(1 / 6 + 1e-7, 1 / 3), 0.0)
    short = integrate_series(series, IntegratorControls(t_max=0.5))
    assert short._resume[3] is None
    far = IntegratorControls(t_max=48.0)
    full = integrate_series(series, far)
    cont = extend(short, far)
    ev = full.f_events[0]
    assert ev.tag is OutcomeTag.F_ZERO and ev.in_tube
    assert (cont.ended, cont.f_events, cont.controls) == ("event", [ev], far)
    n = len(cont.ts)
    assert (cont.ts, cont.ys) == (full.ts[:n], full.ys[:n])
    assert cont.ts[-2] < ev.t <= cont.ts[-1]
    assert cont.rho_events == [e for e in full.rho_events if e.t < ev.t]
    out = classify(cont, ClassifyMode.F_FATE)
    assert (out.tag, out.t_event, out.detail) == (ev.tag, ev.t, "first gauge event")
    promoted = classify(full, ClassifyMode.F_FATE)
    assert (promoted.tag, promoted.t_event) == (ev.tag, ev.t)
    # a run that an out-of-tube event ended is kept as it is
    start = _start(0.3, 0.87, 1.0)
    ended = integrate(start, 1.0, IntegratorControls())
    _assert_same_run(extend(ended, far), integrate(start, 1.0, far))


def test_extend_only_moves_the_horizon_outward():
    run = integrate(_start(1 / 6, 1 / 3, 0.0), 0.0, IntegratorControls(t_max=5.0))
    with pytest.raises(DomainError):
        extend(run, IntegratorControls(t_max=4.0))
    with pytest.raises(DomainError):
        extend(run, IntegratorControls(t_max=10.0, rel_tol=1e-8))


def _pinned(prefix, weights):
    # every nonzero weight has its constant, equal to the reference float,
    # and no zero weight has one
    for j, w in enumerate(weights):
        name = f"{prefix}{j + 1}"
        if w == 0.0:
            assert not hasattr(integrator, name), name
        else:
            assert getattr(integrator, name) == float(w), name


def test_dop853_coefficients_match_reference():
    A, C = dop853.A, dop853.C
    for s in range(1, 12):
        _pinned(f"_A{s + 1}_", A[s, :s])
    # stages 12 and 13 are evaluated at t + h
    for s in range(1, 11):
        assert getattr(integrator, f"_C{s + 1}") == float(C[s])
    assert C[11] == C[12] == 1.0
    assert dense_output._C_EXTRA == tuple(map(float, C[13:]))
    assert dense_output._A_EXTRA == tuple(tuple(map(float, A[s, :s])) for s in (13, 14, 15))
    _pinned("_B", dop853.B)
    # the error weights never read stage 13
    assert dop853.E5[12] == dop853.E3[12] == 0.0
    _pinned("_E5_", dop853.E5[:12])
    _pinned("_E3_", dop853.E3[:12])
    assert dense_output._D == tuple(tuple(map(float, row)) for row in dop853.D)


def test_stages_match_the_reference_rhs():
    # _advance writes the field equations out inline: every stage an
    # accepted step stores must equal model._rhs at that stage's point,
    # rebuilt from the tableau with the stepper's order of operations
    # (row 12 of A is the weight row B, so stage 13 sits at the step's end)
    lam = 1.0
    traj = integrate(_start(0.39, 0.87, lam), lam, IntegratorControls())
    segs = [seg for seg in traj.segments if seg._k is not None]
    assert len(segs) >= 40
    for seg in segs:
        stages = list(zip(*seg._k))
        assert len(stages) == 13
        for j, k in enumerate(stages):
            t = seg.t + float(dop853.C[j]) * seg.h
            w = [float(a) for a in dop853.A[j, :j]]
            y = [seg.y0[i] + seg.h * sum(map(mul, w, [s[i] for s in stages[:j]]))
                 for i in range(4)]
            assert k == _rhs(t, *y, lam), (seg.t, j)
        assert tuple(y) == seg.y1


def test_dense_output_between_steps_tracks_closed_form():
    # the seventh-order interpolant at mid-step, where it is least tied
    # to the step's end values (the quartic DP5 interpolant read 1.3e-8)
    traj = integrate(_start(1 / 6, 1 / 3, 0.0), 0.0, IntegratorControls(t_max=5.0))
    worst = 0.0
    for seg in traj.segments:
        t = seg.t + 0.5 * seg.h
        got, exact = traj.state_at(t), ps_exact(t)
        worst = max(worst, abs(got.f - exact.f), abs(got.rho - exact.rho))
    assert worst < 2e-9


def test_bps_run_step_count():
    # the eighth-order pair crosses the default horizon in under 100
    # steps at the default tolerances (DP5 took 353)
    traj = integrate(_start(1 / 6, 1 / 3, 0.0), 0.0, IntegratorControls())
    assert traj.ended == "t_max"
    assert traj.n_steps <= 100


def test_dense_output_is_built_only_where_read():
    # no event function changes sign on this run, so no step builds its
    # interpolant until state_at reads one
    traj = integrate(_start(1 / 6, 1 / 3, 0.0), 0.0, IntegratorControls(t_max=5.0))
    assert traj.ended == "t_max"
    assert not traj.f_events and not traj.rho_events
    assert all(seg._q is None for seg in traj.segments)
    traj.state_at(2.0)
    assert sum(seg._q is not None for seg in traj.segments) == 1


def test_interpolant_coefficients_equal_the_row_sums(monkeypatch):
    # the extra stages and the D rows are written out over their nonzero
    # weights; on every segment of these runs, built by an event scan or
    # read afterwards, they equal the sums over whole tableau rows
    build = dense_output.DenseSegment._coeffs
    checked = []

    def checked_build(seg):
        if seg._q is None:
            want = oracles.interpolant_coeffs(seg)
            checked.append(build(seg) == want)
        return build(seg)
    monkeypatch.setattr(dense_output.DenseSegment, "_coeffs", checked_build)
    for lam in (0.0, 1.0, 2.0):
        for alpha, beta in ((1 / 6, 1 / 3), (0.3, 0.1), (0.05, 0.6), (0.39, 0.87),
                            (0.42, 0.98), (1.2, 1.7)):
            traj = shoot(ShootPoint(alpha, beta), lam, IntegratorControls())
            for seg in traj.segments:
                seg._coeffs()
    assert len(checked) > 150 and all(checked)


# (component, level) of the event function each tag bisects
_CROSSING = {OutcomeTag.FPRIME_ZERO: (1, 0.0), OutcomeTag.F_ZERO: (0, 0.0),
             OutcomeTag.RHO_PRIME_ZERO: (3, 0.0), OutcomeTag.RHO_CROSS_VEV: (2, 1.0),
             OutcomeTag.RHO_ZERO: (2, 0.0)}


def test_events_are_those_of_the_predicate_bisection():
    # refine_event bisects one component against a level; every event of
    # these runs is found again, at the same t, by bisecting the predicate
    # value - level of the interpolated state, on the step or series piece
    # that found it
    rng = random.Random("sweep:0")  # the benchmark's seed-0 sweep grid
    grid = (sorted(rng.uniform(0.02, 1.5) for _ in range(10)),
            sorted(rng.uniform(0.05, 2.0) for _ in range(10)), rng.uniform(0.0, 2.0))
    runs = [(np.linspace(0.02, 1.5, 6), np.linspace(0.05, 2.0, 6), lam)
            for lam in (0.0, 0.2, 1.0)] + [grid]
    n_series = n_steps = 0
    for alphas, betas, lam in runs:
        for alpha in alphas:
            for beta in betas:
                traj = shoot(ShootPoint(float(alpha), float(beta)), lam, IntegratorControls())
                for ev in traj.f_events + traj.rho_events:
                    i, level = _CROSSING[ev.tag]
                    m = bisect.bisect_left(traj.ts, ev.t)
                    if m <= traj._span:
                        value, n_series = traj.series.component(i), n_series + 1
                    else:
                        seg, n_steps = traj.segments[m - 1 - traj._span], n_steps + 1
                        value = seg.component(i)
                    t, _ = oracles.bisect_predicate(value, traj.ts[m - 1], traj.ts[m],
                                                    lambda v: v - level, integrator.EVENT_TOL)
                    assert t == ev.t, (alpha, beta, lam, ev)
    assert n_series > 20 and n_steps > 200


def test_series_span_is_read_off_the_series():
    # the run starts at t0 and reads the series on pieces that end on the
    # multiples of 0.05 and at the reach, where DOP853 takes over; every
    # read of the run, in one batch or one radius at a time, agrees
    c = IntegratorControls()
    traj = shoot(ShootPoint(1 / 6, 1 / 3), 0.0, c)
    series = traj.series
    k = traj._span
    assert traj.ts[0] == c.t0
    assert traj.ts[1:k] == [j * 0.05 for j in range(1, k)]
    assert traj.ts[k] == series.reach > 1.3
    assert traj.ys[:k + 1] == [tuple(row) for row in series.table(traj.ts[:k + 1])]
    # n_steps counts DOP853 steps only, the first one from the reach
    assert traj.n_steps == len(traj.segments) == len(traj.ts) - 1 - k
    assert traj.segments[0].t == series.reach
    ts = np.sort(np.concatenate([np.linspace(c.t0, 5.0, 41), traj.ts[:k + 40]]))
    table = traj.resample(ts)
    assert table.tolist() == [list(traj.state_at(t).as_tuple()) for t in ts]
    head = ts <= series.reach
    assert table[head].tolist() == series.table(ts[head]).tolist()


def test_event_inside_the_series_span_against_rk4_oracle():
    # small alpha, large beta: f' turns near t = 0.16, inside the span,
    # and the crossing is bisected on the series itself
    traj = shoot(ShootPoint(0.0115, 1.5), 0.0, IntegratorControls())
    assert traj.ended == "event" and traj.n_steps == 0
    out = classify(traj, ClassifyMode.F_FATE)
    assert out.tag is OutcomeTag.FPRIME_ZERO
    assert out.t_event <= traj.ts[traj._span] < traj.series.reach
    ref = oracles.rk4_shoot(0.0115, 1.5, 0.0, t_end=0.5)
    assert ref["f_event"][0] == "FPrimeZero"
    assert abs(out.t_event - ref["f_event"][1]) < 1e-6


def test_extend_keeps_the_series_span():
    # a horizon inside the span starts the run afresh on the series; one
    # just past the reach clips the first DOP853 step, where it resumes
    series = expand_series(ShootPoint(1 / 6, 1 / 3), 0.0)
    full = integrate_series(series, IntegratorControls())
    for t_max, resumed in ((0.5, False), (series.reach + 1e-4, True)):
        short = integrate_series(series, IntegratorControls(t_max=t_max))
        assert short.ended == "t_max" and (short._resume[3] is not None) == resumed
        _assert_same_run(extend(short, IntegratorControls()), full)
    # a horizon past the first steps resumes DOP853 where it was clipped
    short = integrate_series(series, IntegratorControls(t_max=3.0))
    assert short._resume[3] is not None
    _assert_same_run(extend(short, IntegratorControls()), full)


def test_integrate_series_hands_over_at_a_reach_below_t0():
    # no truncation of the series holds past its reach: a series that does
    # not reach t0 starts the run at its reach, with no series piece, and
    # DOP853 steps on from there (|f'| ~ 855 < 1e3 at that reach)
    series = expand_series(ShootPoint(6e5, 0.3), 0.0)
    controls = IntegratorControls()
    assert 0.0 < series.reach < controls.t0
    traj = integrate_series(series, controls)
    assert (traj.ts[0], traj._span) == (series.reach, 0)
    assert traj.ys[0] == series.state(series.reach)
    assert traj.n_steps == len(traj.ts) - 1 > 0


def test_a_start_past_a_blowup_bound_is_a_one_sample_blowup():
    # a run whose first sample already breaks a bound ends there, as the
    # step to that sample would have ended it, and not one step later
    for alpha, beta in ((1e12, 1.0), (1e6, 0.3)):
        series = expand_series(ShootPoint(alpha, beta), 0.0)
        traj = integrate_series(series, IntegratorControls())
        assert abs(series.state(series.reach)[1]) > 1e3
        assert (traj.ts, traj.n_steps) == ([series.reach], 0)
        assert (traj.ended, traj.blowup_channel) == ("blowup", "slope")
        out = classify(traj, ClassifyMode.F_FATE)
        assert (out.tag, out.t_event) == (OutcomeTag.BLOWUP, series.reach)
    # integrate's start gets the same rule
    for start, channel in ((PhaseState(1.0, 0.5, -2e3, 0.5, 0.0), "slope"),
                           (PhaseState(1.0, 0.5, 0.0, 2.5, 0.0), "rho")):
        traj = integrate(start, 0.0, IntegratorControls())
        assert (traj.ts, traj.ended, traj.blowup_channel) == ([1.0], "blowup", channel)


def test_a_step_to_a_non_finite_state_is_a_one_sample_blowup():
    # at lambda_hat = 1e308 the first step's Higgs stages overflow: the
    # run ends where it started, and classify reads a Blowup there
    traj = integrate(PhaseState(1.0, 0.5, 0.0, 1.5, 0.0), 1e308, IntegratorControls())
    assert (traj.ts, traj.n_steps) == ([1.0], 0)
    assert (traj.ended, traj.blowup_channel) == ("blowup", "nonfinite")
    for mode in ClassifyMode:
        out = classify(traj, mode)
        assert (out.tag, out.t_event, out.detail) == (OutcomeTag.BLOWUP, 1.0, "nonfinite")


def test_integrate_and_classify_refuse_what_they_cannot_read():
    # a start at or past the horizon, and a run that has not finished
    for t in (12.0, 13.0):
        with pytest.raises(DomainError, match="below t_max"):
            integrate(PhaseState(t, 0.5, 0.0, 0.5, 0.0), 0.0, IntegratorControls())
    unfinished = Trajectory(lambda_hat=0.0, controls=IntegratorControls(), ts=[1.0],
                            ys=[(0.5, 0.0, 0.5, 0.0)])
    for mode in ClassifyMode:
        with pytest.raises(DomainError, match="finished"):
            classify(unfinished, mode)


def _refinements(monkeypatch):
    """The (t_event, level) of every crossing refine_event bisects from now on."""
    calls = []

    def recording(value, t_lo, t_hi, level=0.0):
        t = refine_event(value, t_lo, t_hi, level)
        calls.append((t, level))
        return t
    monkeypatch.setattr(integrator, "refine_event", recording)
    return calls


def test_a_crossing_outside_its_window_is_refined_and_dropped(monkeypatch):
    # f' rises through 0 with f > 1, and rho' falls through 0 with rho < 0:
    # each crossing is bisected, and its state, outside the event's window,
    # is no event
    calls = _refinements(monkeypatch)
    traj = integrate(PhaseState(1.0, 1.2, -0.1, 0.1, 0.0), 0.0, IntegratorControls())
    (t_e, _), = calls
    assert traj.state_at(t_e).f > 1.0 and abs(traj.state_at(t_e).fp) < 1e-9
    assert (traj.f_events, traj.rho_events, traj.blowup_channel) == ([], [], "f")
    calls.clear()
    traj = integrate(PhaseState(1.0, 0.5, 0.0, -0.5, 0.2), 0.0, IntegratorControls())
    t_e = calls[0][0]
    assert traj.state_at(t_e).rho < 0.0 and abs(traj.state_at(t_e).rhop) < 1e-9
    assert traj.rho_events == [] and [ev.t for ev in traj.f_events] == [calls[1][0]]


def test_fzero_window_on_a_synthetic_step(monkeypatch):
    # f falls through 0 on a step whose f' reads >= 0 there: the crossing
    # is refined and dropped.  No run reaches this window: f = 0 is an
    # invariant line of the f equation, so a solution crosses it with
    # f' < 0 or not at all
    class Step:
        t, t_end = 1.0, 2.0

        def __init__(self, fp):
            self.fp = fp

        def eval(self, t):
            return (1.5 - t, self.fp, 0.5, 0.0)

        def component(self, i):
            return lambda t: self.eval(t)[i]
    calls = _refinements(monkeypatch)
    for fp, found in ((0.0, False), (-0.1, True)):
        traj = Trajectory(lambda_hat=0.0, controls=IntegratorControls())
        step = Step(fp)
        assert integrator._scan_events(traj, step, step.eval(1.0), step.eval(2.0)) is found
        assert [ev.tag for ev in traj.f_events] == [OutcomeTag.F_ZERO] * found
    assert calls == [(1.5, 0.0)] * 2


_LEVELS = (0.0, -0.0, 1.0, 5e-324, -5e-324, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52)
_COMPONENT = st.sampled_from(_LEVELS) | st.floats(-3.0, 3.0)
_STATE = st.tuples(_COMPONENT, _COMPONENT, _COMPONENT, _COMPONENT)


@given(_STATE, _STATE)
def test_sign_change_is_the_event_tables_crossing_column(ya, yb):
    # the sign test that gates every step's event scan fires exactly when
    # one row of the table crosses, also on a state that sits on a level
    rows = integrator._EVENTS.values()
    assert integrator._sign_change(ya, yb) == any(row.crosses(ya, yb) for row in rows)


def test_rho_blowup_after_a_tube_gauge_event_keeps_its_side():
    # a run whose f turns up inside the tube and whose rho then blows up
    # with f still in the tube lies below the gauge separatrix: the
    # rho^2 f term keeps pushing f up.  The Higgs fate is the blowup
    state = PhaseState(t=15.0, f=1e-3, fp=0.0, rho=1.0, rhop=1e-3)
    last = (5e-3, 2e-2, 2.5, 30.0)
    traj = Trajectory(lambda_hat=1.0, controls=IntegratorControls(),
                      ts=[1e-3, 15.0, 23.0], ys=[(1.0, 0.0, 0.0, 0.8), state.as_tuple(), last],
                      f_events=[Event(OutcomeTag.FPRIME_ZERO, 15.0, state, in_tube=True)],
                      ended="blowup", blowup_channel="rho")
    out = classify(traj, ClassifyMode.F_FATE)
    assert (out.tag, out.t_event, out.state) == (OutcomeTag.FPRIME_ZERO, 15.0, state)
    assert classify(traj, ClassifyMode.RHO_FATE).tag is OutcomeTag.BLOWUP
    # with f out of the tube, or no gauge event, the blowup stands
    for ys, events in (([*traj.ys[:2], (-2 * TUBE, *last[1:])], traj.f_events),
                       (traj.ys, [])):
        other = Trajectory(lambda_hat=1.0, controls=traj.controls, ts=traj.ts,
                           ys=ys, f_events=events, ended="blowup", blowup_channel="rho")
        assert classify(other, ClassifyMode.F_FATE).tag is OutcomeTag.BLOWUP
    # a polish-stage probe next to the lambda_hat = 1 separatrix: run to
    # 2 t_max, its f turns up in the tube at t ~ 15 and rho blows up at
    # t ~ 23, while alpha + 2e-12 crosses f = 0 at t ~ 14.7
    far = IntegratorControls(rel_tol=1e-12, abs_tol=1e-14, t_max=24.0)
    alpha, beta = 0.3898391408156725, 0.8727038705525099
    run = shoot(ShootPoint(alpha, beta), 1.0, far)
    assert (run.ended, run.blowup_channel) == ("blowup", "rho")
    assert [(ev.tag, ev.in_tube) for ev in run.f_events] == [(OutcomeTag.FPRIME_ZERO, True)]
    out = classify(run, ClassifyMode.F_FATE)
    assert (out.tag, out.t_event) == (OutcomeTag.FPRIME_ZERO, run.f_events[0].t)
    above = shoot(ShootPoint(alpha + 2e-12, beta), 1.0, far)
    out_above = classify(above, ClassifyMode.F_FATE)
    assert out_above.tag is OutcomeTag.F_ZERO and out_above.t_event < out.t_event
