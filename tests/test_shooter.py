"""Nested bisections and the parameter sweep."""
from __future__ import annotations

import concurrent.futures
import math
import os
import random
from dataclasses import replace
from statistics import median

import pytest
from numpy.testing import assert_allclose

from monopole import analysis, integrator, origin_series, shooter
from monopole.errors import (BracketingError, DomainError, FitDomainError, HandoffError,
                             IntegrityError)
from monopole.integrator import (ClassifyMode, IntegratorControls, Outcome, OutcomeTag,
                                 classify, continued_fate)
from monopole.origin_series import (DEFAULT_T0, T0_MAX, T0_MIN, ShootPoint, expand_batch,
                                    expand_series)
from monopole.shooter import (Bracket, Probe, _centred_bracket, _expand_bracket,
                              bisect_alpha, bisect_beta, bracket_alpha, shoot, sweep)
from monopole.model import PhaseState, ps_exact

import oracles


CONTROLS = IntegratorControls()
# the profile-grade controls every run of a bisect_beta solve is shot with
POLISH = replace(CONTROLS, rel_tol=1e-12, abs_tol=1e-14)


def _ends(lo, hi):
    """A Bracket of end Probes at lo (side -1) and hi (side +1), no distances."""
    return Bracket(Probe(lo, -1, None, None), Probe(hi, 1, None, None))


def test_bracket_validation():
    with pytest.raises(DomainError):
        _ends(0.2, 0.1)
    with pytest.raises(DomainError):
        _ends(-0.1, 0.2)
    # the ends must lie below and above the separatrix
    with pytest.raises(DomainError):
        Bracket(Probe(0.1, 1, None, None), Probe(0.4, -1, None, None))
    with pytest.raises(DomainError):
        Bracket(Probe(0.1, -1, None, None), Probe(0.4, 0, None, None))
    b = _ends(0.1, 0.4)
    assert b.width == pytest.approx(0.3)


def test_immediate_turn_guard():
    # fp(t0) >= 0 means the quartic term already dominates at the handoff;
    # the shot is classified from the series itself without integrating.
    traj = shoot(ShootPoint(1e-4, 100.0), 0.0, CONTROLS)
    assert traj.ended == "immediate"
    out = classify(traj, ClassifyMode.F_FATE)
    assert out.tag is OutcomeTag.FPRIME_ZERO


# the outcome tag a synthetic probe reports for each side
_TAG = {-1: OutcomeTag.FPRIME_ZERO, 0: OutcomeTag.HORIZON, 1: OutcomeTag.F_ZERO}


def _recording(side):
    """A probe function on a synthetic side(x), and the list of its points."""
    probes = []

    def probe(x):
        probes.append(x)
        s = side(x)
        return Probe(x, s, None, Outcome(_TAG[s]))
    return probe, probes


def test_expand_bracket_skips_undecided_probes():
    # neither side on [0.01, 1): the search steps over those probes
    side, probes = _recording(lambda x: -1 if x < 0.01 else (1 if x >= 1.0 else 0))
    lo, hi = _expand_bracket(side, 0.1, 1e-12, 1e12, "x")
    assert probes == [0.1, 0.4, 1.6, 0.025, 0.00625]
    assert (lo.x, hi.x) == (0.00625, 1.6)
    assert (lo.side, hi.side) == (-1, 1)


def test_expand_bracket_tightens_from_above_while_descending():
    # the seed is undecided and the upward probe lands far above the
    # separatrix at 0.01; an upper probe met on the way down replaces it
    side, probes = _recording(
        lambda x: -1 if x < 0.01 else (0 if 0.05 <= x < 0.2 else 1))
    lo, hi = _expand_bracket(side, 0.1, 1e-12, 1e12, "x")
    assert probes == [0.1, 0.4, 0.025, 0.00625]
    assert (lo.x, hi.x) == (0.00625, 0.025)


def test_expand_bracket_raises_at_ceiling_and_floor():
    below, _ = _recording(lambda x: -1)
    with pytest.raises(BracketingError, match="up to x = 100") as exc:
        _expand_bracket(below, 1.0, 1e-2, 1e2, "x")
    lo_tag = OutcomeTag.FPRIME_ZERO
    assert exc.value.outcomes == {1.0: lo_tag, 4.0: lo_tag, 16.0: lo_tag,
                                  64.0: lo_tag}
    above, _ = _recording(lambda x: 1)
    with pytest.raises(BracketingError, match="down to x = 0.01") as exc:
        _expand_bracket(above, 1.0, 1e-2, 1e2, "x")
    hi_tag = OutcomeTag.F_ZERO
    assert exc.value.outcomes == {1.0: hi_tag, 0.25: hi_tag, 0.0625: hi_tag,
                                  0.015625: hi_tag}
    with pytest.raises(DomainError):
        _expand_bracket(_recording(lambda x: 0)[0], 1e3, 1e-2, 1e2, "x")


def test_bracket_alpha_failure_carries_outcomes(monkeypatch):
    # every probe blows up: no side is ever found, and the error names
    # the outcome seen at each probed alpha
    monkeypatch.setattr(shooter, "_gauge_fate",
                        lambda point, lam, c: (Outcome(OutcomeTag.BLOWUP), None))
    with pytest.raises(BracketingError) as exc:
        bracket_alpha(0.1, 0.0, CONTROLS)
    outcomes = exc.value.outcomes
    assert set(outcomes.values()) == {OutcomeTag.BLOWUP}
    assert max(outcomes) <= 1e12 < 4.0 * max(outcomes)


# The inner search's predicted pair, _centred_bracket: it probes the
# prediction -/+ its margin first, then 8x wider per try, three tries in
# all, with the lower probe clamped at the alpha floor.  The centre 0.5
# and widths 2**-7 and 2**-4 keep every probe exact in binary.

def test_verify_beta_bracket_first_width():
    side, probes = _recording(lambda x: -1 if x < 0.5 else 1)
    lo, hi = _centred_bracket(side, 0.5, 2.0 ** -4)
    assert (lo.x, hi.x) == (0.4375, 0.5625)
    assert (lo.side, hi.side) == (-1, 1)
    assert probes == [0.4375, 0.5625]


def test_verify_beta_bracket_widens_by_eight():
    # the answer moved below the first lower probe
    side, probes = _recording(lambda x: -1 if x < 0.8 else 1)
    lo, hi = _centred_bracket(side, 1.0, 2.0 ** -4)
    assert (lo.x, hi.x) == (0.5, 1.5)
    assert probes == [0.9375, 0.5, 1.5]


def test_verify_beta_bracket_clamps_at_floor():
    # the second width reaches below zero: the lower probe sits at the floor
    side, probes = _recording(lambda x: -1 if x < 1e-6 else 1)
    lo, hi = _centred_bracket(side, 0.5, 2.0 ** -4)
    assert (lo.x, hi.x) == (shooter._ALPHA_FLOOR, 1.0)
    assert probes == [0.4375, shooter._ALPHA_FLOOR, 1.0]


def test_centred_bracket_gives_up_after_three_widths():
    side, probes = _recording(lambda x: -1)
    assert _centred_bracket(side, 0.5, 2.0 ** -7) is None
    assert probes[1::2] == [0.5 + 2.0 ** -7 * 8.0 ** k for k in range(3)]


def test_centred_bracket_single_try_skips_the_upper_probe():
    # a try whose lower probe lands on the wrong side (or on neither)
    # widens without probing the upper end
    for s in (0, 1):
        side, probes = _recording(lambda x: s)
        assert _centred_bracket(side, 0.5, 2.0 ** -7) is None
        assert probes == [0.4921875, 0.4375, shooter._ALPHA_FLOOR]
    side, probes = _recording(lambda x: -1 if x < 0.25 else 0)
    assert _centred_bracket(side, 0.5, 2.0 ** -4) is None
    assert probes == [0.4375, shooter._ALPHA_FLOOR, 1.0, shooter._ALPHA_FLOOR, 4.5]


def _narrow(distance, lo, hi, tol):
    """shooter._narrow on a synthetic distance, with both end distances
    known; returns the probe count and bracket."""
    bracket = [lo, hi]
    n = 0

    def probe(x):
        nonlocal n
        # every probe lies inside the current bracket
        assert bracket[0] < x < bracket[1]
        n += 1
        d = distance(x)
        bracket[d >= 0.0] = x
        return Probe(x, -1 if d < 0.0 else 1, d, None)

    lo, hi, stop = shooter._narrow(probe, Probe(lo, -1, distance(lo), None),
                                   Probe(hi, 1, distance(hi), None), tol)
    assert stop is None
    assert [lo.x, hi.x] == bracket
    return n, lo.x, hi.x


def test_narrow_stops_on_a_bracket_one_ulp_wide():
    # no float lies strictly between the ends, so no probe is made
    lo, hi = Probe(1.0, -1, -1.0, None), Probe(math.nextafter(1.0, 2.0), 1, 1.0, None)

    def probe(x):
        raise AssertionError(f"probed {x}")
    assert shooter._narrow(probe, lo, hi, 0.0) == (lo, hi, None)


def _bisection_count(w, tol):
    return math.ceil(math.log2(w / tol))


@pytest.mark.parametrize("root", [0.3, 0.5, 0.7, 0.123456789, 0.999])
def test_itp_point_narrows_a_linear_distance_fast(root):
    n, lo, hi = _narrow(lambda x: x - root, 0.0, 1.0, 1e-11)
    assert _bisection_count(1.0, 1e-11) == 37
    assert n <= 15
    assert lo - root < 0.0 <= hi - root
    assert hi - lo <= 1e-11


def _plateau(root):
    # FZero probes within ~1e-11 of alpha* at lambda_hat = 1 all read
    # t_event ~ 14.56, so above the root the distance is a constant
    # exp(-2 * 14.56); below it is linear
    return lambda x: x - root if x < root else math.exp(-2.0 * 14.56)


@pytest.mark.parametrize("lo, hi, tol", [(0.0, 1.0, 1e-11), (0.38, 0.40, 1e-11),
                                         (0.3, 0.3 + 2.0 ** -20, 2.0 ** -50),
                                         (0.1, 5.1, 1e-8)])
def test_itp_point_never_costs_more_than_one_extra_probe(lo, hi, tol):
    bound = _bisection_count(hi - lo, tol) + 1
    for k in range(1, 200):
        root = lo + (hi - lo) * k / 200.0
        for distance in (_plateau(root),
                         lambda x: -1e-3 if x < root else 1.0,
                         lambda x: (x - root) ** 3):
            n, a, b = _narrow(distance, lo, hi, tol)
            assert n <= bound, (root, n, bound)
            assert distance(a) < 0.0 <= distance(b)
            assert b - a <= tol


@pytest.mark.parametrize("slopes, root, n_probes", [
    ((1.0, 5.0), 0.25 + 2 * math.ulp(0.25), 5),
    ((1.0, 5.0), 0.25 + 3e-13, 10),
    ((5.0, 1.0), 0.75 - 6 * math.ulp(0.75), 5),
    ((5.0, 1.0), 0.75 - 5e-13, 10)])
def test_narrow_does_not_creep_along_one_end(slopes, root, n_probes):
    # the gauge distance -/+exp(-2 t_event) has another slope on each
    # side of alpha*, so with the root next to the gentler end every
    # regula falsi point lands on that side and moves that end by ulps
    # or 1e-13: 6, 37, 7 and 36 probes before a kept end's distance was
    # halved from the third replacement of the other end in a row
    probed = []

    def distance(x):
        probed.append(x)
        return (x - root) * (slopes[0] if x < root else slopes[1])
    n, a, b = _narrow(distance, 0.25, 0.75, 1e-11)
    assert n == n_probes
    assert len(probed) == n + 2 and len(set(probed)) == len(probed)
    assert a < root <= b and b - a <= 1e-11


def test_itp_point_falls_back_to_the_midpoint():
    for d_lo, d_hi in ((None, 1.0), (-1.0, None), (None, None)):
        assert shooter._itp_point(0.25, 0.75, d_lo, d_hi, 0.5, 1e-9, 1) == 0.5
    # a tolerance below the float resolution of the ends (even subnormal)
    assert shooter._itp_point(0.25, 0.75, -0.05, 0.45, 0.5, 1e-320, 3) == 0.5
    # the regula falsi point of a linear distance lies inside the bracket
    assert 0.25 < shooter._itp_point(0.25, 0.75, -0.05, 0.45, 0.5, 1e-9, 0) < 0.5


def test_bisect_alpha_on_a_plateau_distance(monkeypatch):
    # the real inner loop on synthetic gauge fates: FPrimeZero below the
    # root with t_event = -1/2 ln|alpha - root|, FZero above on the plateau
    root = 0.38983914
    probes = []
    plateau = True

    def fate(point, lambda_hat, controls):
        probes.append(point.alpha)
        if point.alpha < root:
            t = -0.5 * math.log(root - point.alpha)
            return Outcome(OutcomeTag.FPRIME_ZERO, t_event=t), None
        if plateau:
            return Outcome(OutcomeTag.F_ZERO, t_event=14.56), None
        t = -0.5 * math.log(point.alpha - root + 1e-300)
        return Outcome(OutcomeTag.F_ZERO, t_event=t), None

    monkeypatch.setattr(shooter, "_gauge_fate", fate)
    monkeypatch.setattr(shooter, "shoot", lambda point, lam, c: point)
    br = _ends(0.3, 0.5)
    res = bisect_alpha(br, 0.87, 1.0, CONTROLS, tol_alpha=1e-11)
    assert len(probes) <= _bisection_count(br.width, 1e-11) + 1
    assert res.bracket.lo.x < root <= res.bracket.hi.x
    assert res.bracket.width <= 1e-11
    assert res.alpha_star == 0.5 * (res.bracket.lo.x + res.bracket.hi.x)
    assert res.resolved == "bisection"
    # off the plateau the distance -/+exp(-2 t_event) is linear on both
    # sides and the ITP steps pay off (bisection: 35 probes)
    probes.clear()
    plateau = False
    res = bisect_alpha(br, 0.87, 1.0, CONTROLS, tol_alpha=1e-11)
    assert len(probes) <= 15
    assert res.bracket.lo.x < root <= res.bracket.hi.x
    # a NaN tolerance compares false with every width and would skip the
    # narrowing altogether; it is refused before any probe
    probes.clear()
    for tol in (math.nan, math.inf, 0.0):
        with pytest.raises(DomainError):
            bisect_alpha(br, 0.87, 1.0, CONTROLS, tol_alpha=tol)
    assert probes == []


def test_bisect_alpha_starts_from_the_finder_distances(monkeypatch):
    # bracket_alpha's end Probes carry their distances into bisect_alpha:
    # on a linear distance the first inner probe is ITP's first step from
    # the regula falsi point (the root itself), not the midpoint
    root = 0.2
    probes = []

    def fate(point, lambda_hat, controls):
        probes.append(point.alpha)
        d = point.alpha - root
        tag = OutcomeTag.FPRIME_ZERO if d < 0.0 else OutcomeTag.F_ZERO
        return Outcome(tag, t_event=-0.5 * math.log(abs(d))), None

    monkeypatch.setattr(shooter, "_gauge_fate", fate)
    monkeypatch.setattr(shooter, "shoot", lambda point, lam, c: point)
    br = bracket_alpha(0.4, 0.0, CONTROLS)
    assert probes == [1.0 / 6.0, 4.0 / 6.0]  # the seed, then 4x above the root
    bisect_alpha(br, 0.4, 0.0, CONTROLS, tol_alpha=1e-9)
    # ITP moves the regula falsi point 0.2 w0 toward the middle on its
    # first step
    first = probes[2]
    assert first == pytest.approx(root + 0.2 * br.width, abs=1e-12)
    assert 0.5 * (1.0 / 6.0 + 4.0 / 6.0) - first > 0.1


def test_bisect_alpha_stops_on_a_probe_with_no_side(monkeypatch):
    # a Higgs-channel blowup is accepted as the working separatrix; a
    # gauge-channel blowup contradicts the bracket ends
    def fate_with(detail):
        def fate(point, lambda_hat, controls):
            if point.alpha < 0.35:
                return Outcome(OutcomeTag.FPRIME_ZERO, t_event=5.0), None
            if point.alpha > 0.45:
                return Outcome(OutcomeTag.F_ZERO, t_event=5.0), None
            return Outcome(OutcomeTag.BLOWUP, detail=detail), None
        return fate

    monkeypatch.setattr(shooter, "shoot", lambda point, lam, c: point)
    br = _ends(0.3, 0.5)
    monkeypatch.setattr(shooter, "_gauge_fate", fate_with("rho"))
    res = bisect_alpha(br, 0.87, 1.0, CONTROLS, tol_alpha=1e-9)
    assert res.resolved == "rho_blowup"
    assert res.alpha_star == 0.4
    assert (res.bracket.lo.x, res.bracket.hi.x) == (0.3, 0.5)
    assert res.bracket.width == 0.5 - 0.3
    monkeypatch.setattr(shooter, "_gauge_fate", fate_with("f"))
    with pytest.raises(IntegrityError, match="gauge-channel blowup"):
        bisect_alpha(br, 0.87, 1.0, CONTROLS, tol_alpha=1e-9)


def test_no_point_is_shot_twice_when_an_inner_solve_stops_early(monkeypatch):
    # an inner solve that stops once the Higgs side is settled reports the
    # run of one of its ends over the plain horizon instead of shooting
    # alpha* again; at lambda_hat = 1 none stops on a probe with no side
    # since the settled ones shoot no midpoint.  Every shot of the solve
    # is at the profile-grade controls
    shots, stopped = [], []
    shoot_orig, bisect_orig = shooter.shoot, shooter._bisect_alpha

    def counting(point, lambda_hat, controls):
        shots.append((point.alpha, point.beta, controls))
        return shoot_orig(point, lambda_hat, controls)

    def recording(*args, **kwargs):
        res = bisect_orig(*args, **kwargs)
        if res.resolved != "bisection":
            stopped.append(res)
        return res

    monkeypatch.setattr(shooter, "shoot", counting)
    monkeypatch.setattr(shooter, "_bisect_alpha", recording)
    bisect_beta(1.0)
    assert {res.resolved for res in stopped} == {"settled"}
    assert {res.trajectory.controls for res in stopped} == {POLISH}
    assert {controls for *_, controls in shots} == {POLISH}
    assert len(shots) == len(set(shots))
    for res in stopped:
        run = res.trajectory
        assert run.alpha in (res.bracket.lo.x, res.bracket.hi.x)
        assert (run.alpha, run.beta, run.controls) in shots


class _Run:
    """Stand-in for a gauge probe's run: its alpha and its RhoFate verdict."""

    def __init__(self, alpha, higgs):
        self.alpha, self.higgs = alpha, higgs


def test_settled_inner_solve_probes_nothing_past_its_ends(monkeypatch):
    # end runs that meet a Higgs event at least 0.5 before their gauge
    # events settle the side, and that is the answer at once: alpha* is
    # the bracket's midpoint, which is not shot, and the trajectory is the
    # run of the end nearer the separatrix (the smaller gauge distance)
    probes = []

    def fate_at(root):
        def fate(point, lambda_hat, controls):
            probes.append(point.alpha)
            d = point.alpha - root
            tag = OutcomeTag.FPRIME_ZERO if d < 0.0 else OutcomeTag.F_ZERO
            return (Outcome(tag, t_event=2.0 - 0.5 * math.log(abs(d))),
                    _Run(point.alpha, Outcome(OutcomeTag.RHO_PRIME_ZERO, t_event=1.0)))
        return fate

    def rho_fate(run, mode):
        assert mode is ClassifyMode.RHO_FATE
        return run.higgs

    monkeypatch.setattr(shooter, "classify", rho_fate)
    monkeypatch.setattr(shooter, "shoot", lambda point, lam, c: point)
    for root, near in ((0.4, 0.25), (0.6, 0.75)):
        monkeypatch.setattr(shooter, "_gauge_fate", fate_at(root))
        probe = shooter._gauge_probe(0.87, 1.0, CONTROLS)
        br = Bracket(probe(0.25), probe(0.75))  # gauge events near t = 2.5
        probes.clear()
        res = shooter._bisect_alpha(br, 0.87, 1.0, CONTROLS, 1e-9, settle=True)
        assert (res.resolved, res.alpha_star, probes) == ("settled", 0.5, [])
        assert (res.bracket.lo.x, res.bracket.hi.x) == (0.25, 0.75)
        assert res.trajectory.alpha == near
    # a Higgs event less than 0.5 before its run's gauge event settles
    # nothing, nor do ends on opposite Higgs sides
    def end(x, side, t_higgs, tag=OutcomeTag.RHO_PRIME_ZERO):
        return Probe(x, side, None, Outcome(_TAG[side], t_event=3.0),
                     _Run(x, Outcome(tag, t_event=t_higgs)))

    assert shooter._settled_side(end(0.25, -1, 2.5), end(0.75, 1, 1.0)) == -1
    assert shooter._settled_side(end(0.25, -1, 2.5), end(0.75, 1, 2.6)) == 0
    assert shooter._settled_side(end(0.25, -1, 2.6), end(0.75, 1, 2.5)) == 0
    assert shooter._settled_side(
        end(0.25, -1, 1.0, OutcomeTag.RHO_ZERO),
        end(0.75, 1, 1.0, OutcomeTag.RHO_CROSS_VEV)) == 0


@pytest.mark.parametrize("lambda_hat", [0.05, 1.0])
def test_settled_inner_solves_agree_with_their_ends(lambda_hat, monkeypatch):
    # every inner solve that stopped early reports an end's run on the
    # Higgs side its ends settled; the reported alpha bracket is that of
    # the answer's inner solve, which never stopped early
    settled = []
    orig = shooter._bisect_alpha

    def recording(*args, **kwargs):
        res = orig(*args, **kwargs)
        if res.resolved == "settled":
            settled.append(res)
        return res

    monkeypatch.setattr(shooter, "_bisect_alpha", recording)
    rep = bisect_beta(lambda_hat)
    assert rep.converged
    assert settled
    for res in settled:
        side = shooter._settled_side(res.bracket.lo, res.bracket.hi)
        out = classify(res.trajectory, ClassifyMode.RHO_FATE)
        assert side != 0 and out.side == side
    assert rep.alpha_resolved != "settled"
    assert rep.alpha_bracket.width <= 1e-11


def _counting_shots(monkeypatch):
    """Record (alpha, beta, controls) of every shot bisect_beta makes."""
    shots = []
    orig = shooter.shoot

    def counting(point, lambda_hat, controls):
        shots.append((point.alpha, point.beta, controls))
        return orig(point, lambda_hat, controls)

    monkeypatch.setattr(shooter, "shoot", counting)
    return shots


def test_lambda_1_solve_takes_few_shots_and_no_repeat(monkeypatch):
    # the default lambda_hat = 1 solve: 469 shots before the predicted
    # inner pairs and the early stops, 291 with them, 286 once the runs
    # leave the origin on the series, 187 in 27 beta evaluations (45
    # before) once every outer probe carries a distance, and 127 in 21
    # once one search at profile-grade tolerance replaced stage one and
    # the polish, and 103 once settled inner solves shoot no midpoint and
    # the last tube-converged outer probe is the answer; no point is shot
    # twice
    shots = _counting_shots(monkeypatch)
    rep = bisect_beta(1.0)
    assert rep.converged
    assert len(shots) <= 103
    assert rep.n_beta_evaluations <= 21
    assert len(shots) == len(set(shots))


def test_lambda_1p2_solve_converges_on_the_candidate_fallback(monkeypatch):
    # a rho blowup after an in-tube gauge event keeps its gauge side, so
    # the inner solves no longer stop on such a probe and the solve at
    # lambda_hat = 1.2 converges with the acceptance checks passing.  It
    # answers from its last tube-converged outer probe (beta* is a probed
    # beta, not the bracket's midpoint), whose run at the final controls
    # is reused, not shot again
    shots = _counting_shots(monkeypatch)
    rep = bisect_beta(1.2)
    assert rep.converged
    assert rep.audit.passes
    assert rep.residual_norm < 1e-6
    assert rep.alpha_bracket.width <= 1e-11
    assert 1.2918 < rep.energy < 1.787
    assert len(shots) == len(set(shots))
    lo, hi = rep.beta_bracket.lo.x, rep.beta_bracket.hi.x
    assert rep.beta_star_hat != 0.5 * (lo + hi)
    assert rep.beta_star_hat in (lo, hi) or rep.beta_star_hat in \
        [b for b, *_ in rep.outcome_log]


@pytest.mark.parametrize("lambda_hat", [0.0, 0.05, 0.2, 0.4249, 1.0, 1.2])
def test_solve_answers_from_its_last_tube_converged_probe(lambda_hat, monkeypatch):
    # beta* is an end of the final beta bracket, the last outer probe whose
    # run is in the tube, and no inner solve narrowed to the end (settle
    # off) runs once an outer probe has converged
    calls = []
    orig = shooter._alpha_at

    def recording(*args, settle):
        ar = orig(*args, settle=settle)
        tube = all(classify(ar.trajectory, mode).tag is OutcomeTag.CONVERGED
                   for mode in (ClassifyMode.F_FATE, ClassifyMode.RHO_FATE))
        calls.append((settle, tube))
        return ar

    monkeypatch.setattr(shooter, "_alpha_at", recording)
    rep = bisect_beta(lambda_hat)
    assert rep.converged
    assert rep.beta_star_hat in (rep.beta_bracket.lo.x, rep.beta_bracket.hi.x)
    first = next(i for i, (settle, tube) in enumerate(calls) if settle and tube)
    assert all(settle for settle, _ in calls[first:])


def test_answers_are_those_of_the_two_step_gauge_continuation(lam0, lam0p42, lam1):
    # (alpha*, beta*, beta evaluations) exactly, and E to rounding: the
    # answers of the one beta search at profile-grade tolerance.  The
    # two-stage search (to 1e-8 at the controls' tolerances, then a polish
    # re-bracketed at profile grade) took 10, 19 and 27 evaluations; its
    # answers lie within 3.1e-12 in alpha*, 4.3e-12 in beta* and 2.9e-11
    # in E of the one search's first answers,
    # (0.16666666724539445, 0.33333333449025415, 7, 0.9999999857185123),
    # (0.3308045114874192, 0.7047437821131101, 13, 1.225893455954182) and
    # (0.38983914081943255, 0.8727038705575701, 21, 1.2918207890179676).
    # Halving a kept end's distance once one end has been replaced three
    # times in a row (shooter._narrow) moved those by 7.5e-13, 2.1e-13 and
    # -1.4e-12 in alpha*, 2.5e-12, 3.6e-13 and -2.3e-12 in beta*, and
    # 9.5e-12, 3.1e-14 and -5.4e-13 in E, to
    # (0.16666666724614684, 0.33333333449279223, 7, 0.9999999857280611) and
    # (0.33080451148763046, 0.7047437821134711, 13, 1.2258934559542132) at
    # lambda_hat = 0 and 0.42489; lambda_hat = 1 is unchanged since.
    # Answering from the last tube-converged outer probe, with settled
    # inner solves that shoot no midpoint, moved those two by 7.4e-13 and
    # 7.0e-13 in alpha*, 1.2e-12 and 8.2e-13 in beta*, and 1.7e-13 and
    # 2.2e-13 in E, to these
    pinned = ((lam0, 0.16666666724688792, 0.33333333449398334, 7, 0.9999999857282297),
              (lam0p42, 0.3308045114883257, 0.7047437821142953, 13, 1.2258934559544337),
              (lam1, 0.3898391408180478, 0.8727038705552651, 21, 1.2918207890174283))
    for rep, alpha, beta, n_beta, energy in pinned:
        assert rep.converged
        assert (rep.alpha_star_hat, rep.beta_star_hat, rep.n_beta_evaluations) == \
            (alpha, beta, n_beta)
        assert abs(rep.energy - energy) <= 1e-12


def _counting_steps(monkeypatch):
    """Count the DOP853 steps of every run, continued runs included."""
    steps = [0]
    orig = integrator._advance

    def counting(traj, k1, h):
        n = traj.n_steps
        orig(traj, k1, h)
        steps[0] += traj.n_steps - n

    monkeypatch.setattr(integrator, "_advance", counting)
    return steps


@pytest.mark.parametrize("lambda_hat, max_steps, max_shots", [(0.0, 3410, 59),
                                                               (1.0, 4394, 103)])
def test_solve_stays_within_its_step_budget(lambda_hat, max_steps, max_shots,
                                            monkeypatch):
    # an undecided gauge probe's continuation ends at its first gauge
    # event: a lambda_hat = 0 solve took 8,232 DOP853 steps when it ran
    # on to 2x and 4x t_max, and 4,757 then; lambda_hat = 1 took 8,336
    # and then 7,435.  One search at profile-grade tolerance in place of
    # stage one and the polish takes 4,959 steps in 79 shots (84 before)
    # and 5,779 in 127 (187 before).  Halving a kept end's distance in
    # _narrow takes lambda_hat = 0 to 3,778 steps in 65 shots and
    # lambda_hat = 1 to 5,775 in 127.  Settled inner solves that shoot no
    # midpoint, and an answer taken from the last tube-converged outer
    # probe, take them to 3,410 in 59 and 4,394 in 103
    steps = _counting_steps(monkeypatch)
    shots = _counting_shots(monkeypatch)
    assert bisect_beta(lambda_hat).converged
    assert steps[0] <= max_steps
    assert len(shots) <= max_shots


def _tail_state(t, k, b, c):
    """The state at t of the linear Higgs tail t (1 - rho) = b e^{-kt} + c e^{kt}."""
    u = b * math.exp(-k * t) + c * math.exp(k * t)
    up = k * (c * math.exp(k * t) - b * math.exp(-k * t))
    return PhaseState(t, 0.0, 0.0, 1.0 - u / t, (u - t * up) / (t * t))


def test_higgs_distance_reads_the_horizon_gap_at_every_radius():
    # on the linear tail the distance is the vev gap b - 1 that the tail
    # reaches at t_max, over cosh(k t_max): -2kC offset by the decaying
    # mode as the gap at t_max sees it, whatever radius it is read at
    k, t_max, b = math.sqrt(2.0), 12.0, 0.8
    e = math.exp(-2.0 * k * t_max)
    for c in (-3e-9, 2e-7, b * e):
        want = 2.0 * k * (b * e - c) / (1.0 + e)
        for t in (3.0, 5.0, 8.0, 12.0):
            got = shooter._higgs_distance(_tail_state(t, k, b, c), 1.0, t_max)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-18)
    # at the horizon itself it is the gap there over cosh(k t_max); at
    # lambda_hat = 0 it is the vev gap b - 1, bit for bit, at any radius
    state = _tail_state(t_max, k, b, 2e-7)
    gap = state.rho + state.t * state.rhop - 1.0
    assert shooter._higgs_distance(state, 1.0, t_max) == pytest.approx(
        gap / math.cosh(k * t_max), rel=1e-12)
    for state in (PhaseState(0.7, 0.1, -0.2, 0.3, 0.45),
                  PhaseState(11.0, 1e-6, -1e-6, 0.91, 0.0081)):
        assert shooter._higgs_distance(state, 0.0, 12.0) == \
            state.rho + state.t * state.rhop - 1.0


def _outer_probe(beta, lambda_hat, track, controls=CONTROLS, tol_alpha=1e-8):
    """The outer probe of bisect_beta at beta: its inner solve, fate and distance."""
    ar = shooter._alpha_at(beta, lambda_hat, controls, tol_alpha, track, settle=True)
    out = classify(ar.trajectory, ClassifyMode.RHO_FATE)
    return ar, out, ar.trajectory, shooter._outer_side(ar, out, lambda_hat)


def test_outer_probe_with_no_event_reads_the_vev_gap_at_lambda_0():
    # at lambda_hat = 0 the distance of a probe no Higgs event decided is
    # the extrapolated vev gap itself, and its sign is the side
    track = shooter._Continuation()
    for beta in (1.0 / 3.0 - 1e-6, 1.0 / 3.0, 1.0 / 3.0 + 1e-6):
        _, out, traj, (side, d) = _outer_probe(beta, 0.0, track)
        assert out.side == 0
        assert d == traj.last_state().asymptote - 1.0
        assert side == (-1 if d < 0.0 else 1)


def test_event_distances_share_one_slope_across_beta_star(lam1):
    # at lambda_hat = 1 a Higgs event decides the outer probes near beta*;
    # each carries a distance of its side's sign, and distance over
    # offset stays within a factor 3 of its median from 1e-2 to 1e-8 on
    # both sides, so regula falsi steps apply all the way in
    track = shooter._Continuation()
    ratios = []
    for n in range(2, 9):
        for sign in (-1, 1):
            offset = sign * 10.0 ** -n
            _, out, _, (side, d) = _outer_probe(lam1.beta_star_hat + offset, 1.0, track)
            if out.side:
                assert side == sign and d is not None
                ratios.append(d / offset)
    assert len(ratios) >= 12
    mid = median(ratios)
    assert all(mid / 3.0 < r < 3.0 * mid for r in ratios), ratios


def test_settled_inner_solve_distance_matches_the_narrowed_run(lam1):
    # a settled inner solve stops with alpha the midpoint of a bracket
    # wider than tol_alpha; the distance read on its end runs, at the
    # regula falsi alpha of their gauge distances, agrees with that of
    # the alpha*(beta) run narrowed to 1e-12.  The midpoint run's own
    # reading, shot here since the solve does not shoot it, would not do:
    # its alpha error swamps the beta signal
    misses = []
    for offset in (-1e-3, 1e-3, -1e-5, 1e-5, -1e-6, 1e-6):
        beta = lam1.beta_star_hat + offset
        ar, _, _, (side, d) = _outer_probe(beta, 1.0, shooter._Continuation())
        assert ar.resolved == "settled" and ar.bracket.width > 1e-8
        mid_run = shoot(ShootPoint(alpha=ar.alpha_star, beta=beta), 1.0, CONTROLS)
        mid_out = classify(mid_run, ClassifyMode.RHO_FATE)
        ref = bisect_alpha(ar.bracket, beta, 1.0, CONTROLS, tol_alpha=1e-12)
        out = classify(ref.trajectory, ClassifyMode.RHO_FATE)
        ref_side, ref_d = shooter._outer_side(ref, out, 1.0)
        assert side == ref_side and ref_d is not None
        assert d == pytest.approx(ref_d, rel=0.1)
        mid_d = shooter._event_distance(mid_run, mid_out, 1.0)
        misses.append(abs(mid_d / ref_d - 1.0))
    assert max(misses) > 1.0


def test_beta_expansion_steps_from_the_seed_distance():
    # sized: the seed's distance d, on the scale of x, puts the first step
    # at seed - 4 d when that is shorter than the 4x step, and the search
    # goes on by 4x from there; unsized, the first step is 4x as before
    def linear(root, slope):
        probes = []

        def probe(x):
            probes.append(x)
            d = slope * (x - root)
            side = -1 if d < 0.0 else 1
            return Probe(x, side, d, Outcome(_TAG[side]))
        return probe, probes

    cases = [(0.5 + 2.0 ** -20, 1.0, [0.5, 0.5 + 2.0 ** -18]),
             (0.5 - 2.0 ** -20, 1.0, [0.5, 0.5 - 2.0 ** -18]),
             (0.5 + 2.0 ** -10, 0.125, [0.5, 0.5 + 2.0 ** -11, 2.0 + 2.0 ** -9]),
             (3.0, 1.0, [0.5, 2.0, 8.0])]
    for root, slope, want in cases:
        probe, probes = linear(root, slope)
        lo, hi = _expand_bracket(probe, 0.5, 1e-12, 1e12, "x", sized=True)
        assert probes == want
        assert lo.x < root <= hi.x
    probe, probes = linear(0.5 + 2.0 ** -20, 1.0)
    _expand_bracket(probe, 0.5, 1e-12, 1e12, "x")
    assert probes == [0.5, 2.0]


def test_answers_stay_within_1e9_of_the_bisected_outer_search(lam0, lam0p42, lam1,
                                                               lam1p5):
    # (alpha*, beta*) before the event-decided outer probes had distances,
    # when most outer steps were midpoints: the distances move the search
    # path, and the answers only within the tolerances
    pinned = {0.0: (lam0, 0.16666666724548324, 0.3333333344915934),
              0.42489062049196824: (lam0p42, 0.33080451148558143, 0.7047437821097062),
              1.0: (lam1, 0.38983914081944127, 0.8727038705571588),
              1.5: (lam1p5, 0.42319955894009975, 0.9791295769723922)}
    for rep, alpha, beta in pinned.values():
        assert rep.converged
        assert abs(rep.alpha_star_hat - alpha) < 1e-9
        assert abs(rep.beta_star_hat - beta) < 1e-9


def test_small_lambda_solves_keep_the_bisected_outer_search():
    # below lambda_hat ~ 0.018 the Higgs side is not monotone in beta, so
    # event-decided probes carry no distance and the expansion keeps its
    # 4x steps there, and the searches land on the sign change the
    # midpoint search found: verdicts and energies from before the event
    # distances.  With them, 0.0136 moved to E = 1.0707 on the candidate
    # fallback and 0.0148 did not converge; with the sized first step
    # from the seed's distance, 0.0064 did not converge
    assert shooter._modes_split(0.0, CONTROLS.t_max)
    assert not shooter._modes_split(0.0136, CONTROLS.t_max)
    assert shooter._modes_split(0.05, CONTROLS.t_max)
    track = shooter._Continuation()
    _, out, _, (side, d) = _outer_probe(shooter._BETA_SEED, 0.0136, track)
    assert out.side != 0 and side == -1 and d is None
    for lam, energy in ((0.0064, 1.1134039083873024), (0.0136, 1.0843187968385173),
                        (0.0148, 1.0833059420932185)):
        rep = bisect_beta(lam)
        assert rep.converged
        assert abs(rep.energy - energy) < 1e-7


def test_continuation_falls_back_to_the_last_answer():
    track = shooter._Continuation(answers=[(0.5, 0.25), (0.75, 0.375)])
    assert track.predict(1.0) == 0.5  # the secant
    # one answer, two equal betas, or a secant prediction <= 0: the last alpha*
    assert shooter._Continuation(answers=[(0.75, 0.375)]).predict(1.0) == 0.375
    track = shooter._Continuation(answers=[(0.75, 0.25), (0.75, 0.375)])
    assert track.predict(1.0) == 0.375
    track = shooter._Continuation(answers=[(0.5, 0.75), (0.75, 0.375)])
    assert track.predict(1.0) == 0.375  # the secant reads 0
    assert track.predict(1.25) == 0.375  # and here -0.375


def test_bisect_beta_rejects_non_finite_inputs():
    # refused up front, not by the first shot's state check
    for lam in (math.nan, math.inf, -1.0):
        with pytest.raises(DomainError, match="lambda_hat"):
            bisect_beta(lam)


def test_sweep_and_bracket_alpha_refuse_degenerate_inputs(monkeypatch):
    # refused before any shot: an empty grid, and a beta that is not > 0
    monkeypatch.setattr(shooter, "shoot", None)
    for alphas, betas in (([], [0.1]), ([0.3], [])):
        with pytest.raises(DomainError, match="sweep needs non-empty grids"):
            sweep(alphas, betas, 0.0)
    for beta in (0.0, -0.1, math.nan):
        with pytest.raises(DomainError, match="bracket_alpha needs beta > 0"):
            bracket_alpha(beta, 0.0, CONTROLS)


def test_bracket_alpha_endpoints_disagree():
    br = bracket_alpha(0.1, 0.0, CONTROLS)
    assert 0.0 < br.lo.x < br.hi.x

    def fate(alpha):
        out, _ = shooter._gauge_fate(ShootPoint(alpha, 0.1), 0.0, CONTROLS)
        return out.tag
    assert fate(br.lo.x) is OutcomeTag.FPRIME_ZERO
    assert fate(br.hi.x) is OutcomeTag.F_ZERO


def test_bisect_alpha_resolves_separatrix():
    # at lambda_hat = 0 the rescaling t -> ct maps the closed-form profile
    # onto the whole gauge separatrix, giving alpha*(beta) = beta/2 exactly
    br = bracket_alpha(0.1, 0.0, CONTROLS)
    res = bisect_alpha(br, 0.1, 0.0, CONTROLS, tol_alpha=1e-9)
    assert res.resolved == "bisection"
    assert res.bracket.width <= 1e-9
    assert_allclose(res.alpha_star, 0.05, rtol=0, atol=2e-9)
    # stepping off the separatrix flips the two gauge fates; the offset
    # needs the longer horizon to grow past the tube
    far = replace(CONTROLS, t_max=48.0)
    lo = shoot(ShootPoint(res.alpha_star - 1e-5, 0.1), 0.0, far)
    hi = shoot(ShootPoint(res.alpha_star + 1e-5, 0.1), 0.0, far)
    assert classify(lo, ClassifyMode.F_FATE).tag is OutcomeTag.FPRIME_ZERO
    assert classify(hi, ClassifyMode.F_FATE).tag is OutcomeTag.F_ZERO


def test_bisect_alpha_horizon_floor():
    # beta far below beta*(lambda_hat): the collapsing Higgs field acts as
    # a mass term that smothers both gauge fates, so the bisection bottoms
    # out on an undecided midpoint and reports the resolution floor
    br = bracket_alpha(0.5, 1.0, CONTROLS)
    res = bisect_alpha(br, 0.5, 1.0, CONTROLS, tol_alpha=1e-9)
    assert res.resolved == "horizon"
    assert res.bracket.width > 1e-9
    assert res.trajectory.ended == "t_max"
    assert br.lo.x < res.alpha_star < br.hi.x


# (lambda_hat, beta, alpha*(beta)) at the default controls, alpha* to ~1e-14
_SEPARATRIX = ((0.0, 1 / 3, 0.16666666666663754),
               (0.2, 0.60216019, 0.29030189667471973),
               (1.0, 0.8727038705533017, 0.38983914081681426))


def test_gauge_fate_continues_the_run_to_a_longer_horizon():
    # next to the separatrix a run may still be undecided at t_max = 12.
    # It is continued once, to 48, and ends at its first gauge event, in
    # the tube or not, which decides the probe as continuing the run to 24
    # and then to 48 and classifying it did.  A plain run that already
    # holds an in-tube gauge event reads it as the verdict.  The run
    # returned is the one over the plain horizon, which the continuation
    # left as it was
    undecided = {OutcomeTag.HORIZON, OutcomeTag.CONVERGED}
    far = replace(CONTROLS, t_max=48.0)
    continued, prefix = 0, 0
    for lambda_hat, beta, alpha_star in _SEPARATRIX:
        for offset in (1e-7, -1e-7, 1e-9, -1e-9, 1e-11, -1e-11):
            point = ShootPoint(alpha_star + offset, beta)
            out, run = shooter._gauge_fate(point, lambda_hat, CONTROLS)
            assert out.tag is (OutcomeTag.F_ZERO if offset > 0 else OutcomeTag.FPRIME_ZERO)
            plain = shoot(point, lambda_hat, CONTROLS)
            assert run.controls == CONTROLS
            assert (run.ts, run.ys, run.ended) == (plain.ts, plain.ys, plain.ended)
            assert run.f_events == plain.f_events
            # the reference: run afresh to 2x and then 4x t_max while undecided
            want = classify(run, ClassifyMode.F_FATE)
            decided = want.tag not in undecided
            for mult in (2, 4):
                if want.tag not in undecided:
                    break
                ref = shoot(point, lambda_hat, replace(CONTROLS, t_max=CONTROLS.t_max * mult))
                want = classify(ref, ClassifyMode.F_FATE)
            assert (out.tag, out.t_event, out.state) == (want.tag, want.t_event, want.state)
            if decided:
                continue  # decided at the plain horizon
            # the verdict is the first gauge event of the run to 4x t_max
            assert out == oracles.first_gauge_verdict(shoot(point, lambda_hat, far))
            continued += 1
            prefix += out.t_event <= run.ts[-2]  # found before the plain run's clipped step
    assert continued >= 15 and 0 < prefix < continued


def test_every_continued_probe_reads_as_a_fresh_longer_shot(monkeypatch):
    # every continuation of two solves, each verdict the one a fresh shot
    # at 4x t_max reads at its first gauge event, on all three paths: an
    # in-tube gauge event found before the first horizon clip, a run
    # resumed at that clip, and a run its horizon ended inside the series
    # span, restarted on its series
    calls = []

    def recorded(run, t_max):
        out = continued_fate(run, t_max)
        calls.append((run, t_max, out))
        return out
    monkeypatch.setattr(shooter, "continued_fate", recorded)
    bisect_beta(1.0)
    bisect_beta(0.0, IntegratorControls(t_max=0.5))
    paths = set()
    for run, t_max, out in calls:
        assert t_max == 4 * run.controls.t_max
        fresh = shoot(ShootPoint(run.alpha, run.beta), run.lambda_hat,
                      replace(run.controls, t_max=t_max))
        assert out == oracles.first_gauge_verdict(fresh)
        _, n_f, k1, _ = run._resume
        paths.add("prefix" if n_f else "restart" if k1 is None else "resume")
    assert paths == {"prefix", "resume", "restart"}


def test_solve_report_bps(lam0, lam0_handoffs):
    assert lam0.converged
    assert lam0.alpha_resolved == "bisection"
    assert abs(lam0.alpha_star_hat - 1.0 / 6.0) < 1e-6
    assert abs(lam0.beta_star_hat - 1.0 / 3.0) < 1e-6
    assert lam0.alpha_bracket.width < 1e-10
    assert lam0.beta_bracket.width < 1e-10
    # ITP steps on the vev gap take 7 beta evaluations at every handoff
    # radius (10 when stage one and a polish each searched, midpoint
    # bisection 43 before that): the seed beta = 1/3 reads just
    # below the numerical beta*, and the expansion's first step, four
    # times the seed's distance, lands just above it (17 with a 4x step)
    assert median(r.n_beta_evaluations for r in [lam0, *lam0_handoffs]) <= 13


def test_reported_profile_is_the_last_inner_run(monkeypatch):
    # the last inner solve has already run (alpha*, beta*) at the
    # profile-grade controls, and that run is the reported profile: it is
    # shot once
    shots = []
    orig = shooter.shoot

    def counting(point, lambda_hat, controls):
        shots.append((point.alpha, point.beta, controls))
        return orig(point, lambda_hat, controls)

    monkeypatch.setattr(shooter, "shoot", counting)
    rep = bisect_beta(0.0)
    assert rep.converged
    assert shots.count((rep.alpha_star_hat, rep.beta_star_hat, POLISH)) == 1
    assert (rep.profile.base.alpha, rep.profile.base.beta,
            rep.profile.base.controls) == (rep.alpha_star_hat, rep.beta_star_hat, POLISH)


def test_solve_verdict_at_lambda_1p5_is_honest(lam1, lam1p5):
    # lambda_hat = 1.5 sits at the edge of what origin-only shooting
    # resolves: a converged answer must pass the acceptance checks, and
    # an unconverged one must carry no numbers
    rep = lam1p5
    if rep.converged:
        assert rep.residual_norm < 1e-6
        assert rep.audit.passes
        assert lam1.energy < rep.energy < 1.787
    else:
        assert rep.converged is False
        assert (rep.energy, rep.residual_norm, rep.audit, rep.profile) == \
            (None, None, None, None)


def test_solve_whose_diagnostics_raise_reports_no_numbers(lam0, monkeypatch):
    # a converged profile whose last diagnostic raises is no answer: the
    # solve reports its parameter estimates, unconverged, and drops the
    # numbers the earlier diagnostics gave
    def raising(*args, **kwargs):
        raise FitDomainError("no clean fit window")

    monkeypatch.setattr(analysis, "mass_integral", raising)
    rep = bisect_beta(0.0)
    assert rep.converged is False
    assert (rep.profile, rep.audit, rep.residual_norm, rep.energy) == (None,) * 4
    assert (rep.alpha_star_hat, rep.beta_star_hat, rep.outcome_log) == (
        lam0.alpha_star_hat, lam0.beta_star_hat, lam0.outcome_log)


def test_solve_report_profile_matches_closed_form(lam0, lam0_handoffs):
    # f(10) rides the separatrix, where the error of the run grows like
    # e^t; it gets 5e-7.  The run leaves the origin on the series, so at
    # t0 = 5e-4, 6e-4, 7e-4, 7.5e-4, 8e-4, 8.5e-4, 9e-4 and 1e-3 alike it
    # reads 5.7e-10
    for rep in [lam0, *lam0_handoffs]:
        g = rep.profile
        for t in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            exact = ps_exact(t)
            got = g.state_at(t)
            assert_allclose(got.f, exact.f, atol=5e-8 if t <= 5.0 else 5e-7)
            assert_allclose(got.rho, exact.rho, atol=5e-8)


def test_handoff_radius_does_not_move_the_bps_answer(lam0, lam0_handoffs):
    # past the series' reach no run depends on t0, so neither do the answers
    for rep in lam0_handoffs:
        assert abs(rep.alpha_star_hat - lam0.alpha_star_hat) < 1e-13
        assert abs(rep.beta_star_hat - lam0.beta_star_hat) < 1e-13


def test_sweep_grid_and_order():
    # every point but (0.05, 0.1) stays off the lambda_hat = 0 separatrix
    # alpha = beta / 2, where the verdict is the sign of rounding noise;
    # that one cannot drift into the tube before t_max and reads Horizon
    alphas = [0.05, 0.3]
    betas = [0.1, 0.5]
    grid = sweep(alphas, betas, 0.0, controls=CONTROLS, workers=1)
    rows = list(grid.rows())
    assert [(a, b) for a, b, _, _ in rows] == [
        (0.05, 0.1), (0.05, 0.5), (0.3, 0.1), (0.3, 0.5)]
    tags = [tag for _, _, tag, _ in rows]
    assert tags == ["Horizon", "FPrimeZero", "FZero", "FZero"]
    # parallel execution returns the identical grid
    grid2 = sweep(alphas, betas, 0.0, controls=CONTROLS, workers=2)
    assert [r for r in grid2.rows()] == rows


def test_sweep_rejects_bad_inputs(monkeypatch):
    # refused before any expansion, shot or worker process
    monkeypatch.setattr(shooter, "shoot", None)
    monkeypatch.setattr(shooter, "expand_batch", None)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    for workers in (0, -3):
        with pytest.raises(DomainError, match="workers"):
            sweep([0.3], [0.1], 0.0, workers=workers)
    for lam in (math.nan, math.inf, -1.0):
        with pytest.raises(DomainError, match="lambda_hat"):
            sweep([0.3], [0.1], lam)
    # a bad value anywhere on the grid, even in its last row or column
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        for workers in (1, 2):
            with pytest.raises(DomainError, match="alpha must be finite and >= 0"):
                sweep([0.3, bad], [0.1, 0.2], 0.0, workers=workers)
            with pytest.raises(DomainError, match="beta must be finite and >= 0"):
                sweep([0.3, 0.4], [0.1, bad], 0.0, workers=workers)
    # a handoff radius past the series' validity, as check_t0 refuses it
    for workers in (1, 2):
        with pytest.raises(HandoffError, match=r"t0 must lie in \[1e-06, 0.01\], got 0.02"):
            sweep([0.3], [0.1], 0.0, controls=IntegratorControls(t0=2 * T0_MAX),
                  workers=workers)


def _cell(point, lambda_hat, controls):
    # a sweep cell, classified as sweep does, from a run of the point itself
    traj = shoot(point, lambda_hat, controls)
    out = classify(traj, ClassifyMode.F_FATE)
    if out.tag in (OutcomeTag.CONVERGED, OutcomeTag.HORIZON):
        rho_out = classify(traj, ClassifyMode.RHO_FATE)
        if rho_out.tag is not OutcomeTag.HORIZON:
            out = rho_out
    return out.tag.value, out.t_event


def test_sweep_batches_give_the_runs_of_the_points(monkeypatch):
    # with tasks of 4 points, a 3 x 3 grid is expanded in three batches,
    # lane-wise, two of them across a row's end; every cell is the one
    # shooting its ShootPoint gives, for one worker or a pool
    monkeypatch.setattr(shooter, "_SWEEP_BATCH", 4)
    alphas, betas, lam = [0.05, 0.3, 1.2], [0.1, 0.5, 1.7], 0.7
    want = [(a, b, *_cell(ShootPoint(a, b), lam, CONTROLS)) for a in alphas for b in betas]
    assert list(sweep(alphas, betas, lam, workers=1).rows()) == want
    assert list(sweep(alphas, betas, lam, workers=2).rows()) == want


def test_shoot_takes_the_series_of_its_point():
    point = ShootPoint(0.39, 0.87)
    series = expand_series(point, 1.0)
    traj = shoot(series, 1.0, CONTROLS)
    same = shoot(point, 1.0, CONTROLS)
    assert (traj.alpha, traj.beta) == (0.39, 0.87)
    assert (traj.ts, traj.ys, traj.f_events, traj.rho_events) == (
        same.ts, same.ys, same.f_events, same.rho_events)
    with pytest.raises(DomainError, match="lambda_hat"):
        shoot(series, 0.5, CONTROLS)


def _run(traj):
    # everything a run records but its series object
    return (traj.ts, traj.ys, traj._span, traj.n_steps, traj.f_events,
            traj.rho_events, traj.ended, traj.blowup_channel, traj._resume,
            traj.alpha, traj.beta)


def test_batch_runs_are_the_lone_series_runs(batch_lanes):
    # a batch item carries the span of the batch's lane-wise pass; its run
    # is the one its lone series gives, sample, event and resume point, at
    # every t0 and t_max
    alphas, betas = batch_lanes
    for lam in (0.0, 0.7, 100.0):
        batch = expand_batch(alphas, betas, lam)
        for t0, t_max in ((5e-4, 0.5), (1e-3, 0.5), (1e-2, 0.5), (1e-3, 12.0)):
            c = IntegratorControls(t0=t0, t_max=t_max)
            for item, a, b in zip(batch, alphas, betas):
                assert _run(shoot(item, lam, c)) == _run(shoot(ShootPoint(a, b), lam, c)), (
                    a, b, lam, t0, t_max)


def test_batch_rows_serve_every_run(batch_lanes):
    # the rows a batch read serve a run of any controls: continuing an
    # item's run to 4 t_max gives the lone series' verdict there, and
    # shooting an item at another t0 or t_max the lone series' run
    alphas, betas = batch_lanes
    c = IntegratorControls(t_max=0.5)
    continued = 0
    for lam in (0.0, 0.7):
        read = expand_batch(alphas, betas, lam)
        for item, a, b in zip(read, alphas, betas):
            lone = expand_series(ShootPoint(a, b), lam)
            far = replace(c, t_max=4 * c.t_max)
            run = shoot(item, lam, c)
            if run.ended == "t_max":
                assert continued_fate(run, far.t_max) == continued_fate(
                    shoot(lone, lam, c), far.t_max) == oracles.first_gauge_verdict(
                    shoot(lone, lam, far))
                continued += 1
            for other in (replace(c, t0=5e-4), replace(c, t_max=0.3), far):
                assert _run(shoot(item, lam, other)) == _run(shoot(lone, lam, other))
    assert continued


def test_a_run_reads_its_span_without_table(monkeypatch, batch_lanes):
    # a series carries its span from its expansion, so no run of a lone or
    # a batch series evaluates table, at any t0 or t_max; each run is the
    # one the point gives with table in place
    alphas, betas = batch_lanes
    lam = 0.7
    controls = [IntegratorControls(t0=t0, t_max=t_max)
                for t0 in (5e-4, 1e-2) for t_max in (0.5, 12.0)]

    def runs(batch):
        return [(_run(shoot(ShootPoint(a, b), lam, c)), _run(shoot(item, lam, c)))
                for c in controls for item, a, b in zip(batch, alphas, betas)]
    with monkeypatch.context() as m:
        m.setattr(origin_series.OriginSeries, "table", None)
        got = runs(expand_batch(alphas, betas, lam))
    assert got == runs(expand_batch(alphas, betas, lam))


def test_a_start_that_is_not_finite_blows_up_at_t0():
    # a coefficient of the origin series overflows (reach 0): the shot ends
    # as a non-finite blowup at t0, with no sample, and the sweep goes on
    for point in (ShootPoint(0.1, 1e13), ShootPoint(0.1, 1e155), ShootPoint(0.1, 1e160),
                  ShootPoint(1e200, 0.1)):
        traj = shoot(point, 0.5, CONTROLS)
        assert (traj.ended, traj.blowup_channel, traj.ts, traj.ys) == (
            "blowup", "nonfinite", [], [])
        for mode in ClassifyMode:
            assert classify(traj, mode) == Outcome(OutcomeTag.BLOWUP, CONTROLS.t0,
                                                   detail="nonfinite")
    # below the overflow, at 1e12, the series is finite and starts a run
    assert shoot(ShootPoint(0.1, 1e12), 0.5, CONTROLS).ts
    grid = sweep([0.1], [0.2, 1e160], 0.5)
    assert list(grid.rows()) == [(0.1, 0.2, *_cell(ShootPoint(0.1, 0.2), 0.5, CONTROLS)),
                                 (0.1, 1e160, "Blowup", CONTROLS.t0)]


def test_a_huge_alpha_starts_at_the_reach_and_never_turns_up():
    # at alpha = 3e6 the series reaches only ~4.3e-4, below t0, where its
    # two-term truncation would already turn f' up.  The run starts on the
    # series at its reach instead, and f' passes the slope bound there: a
    # Blowup, not an FPrimeZero, in shoot and in sweep alike
    point = ShootPoint(3e6, 1.0 / 3.0)
    series = expand_series(point, 0.0)
    assert series.reach < CONTROLS.t0
    traj = shoot(point, 0.0, CONTROLS)
    assert traj.ts[0] == series.reach
    tag, t_event = _cell(point, 0.0, CONTROLS)
    assert tag == "Blowup" and t_event < CONTROLS.t0
    assert list(sweep([3e6], [1.0 / 3.0], 0.0).rows()) == [(3e6, 1.0 / 3.0, tag, t_event)]


def test_shoot_and_sweep_check_t0_through_check_t0(monkeypatch):
    # one check holds t0 to the series' validity for a shot and a sweep:
    # the controls' constructor, which replace runs too, so no controls
    # hold a t0 that a shot would refuse, and no shot checks it again
    checked = []

    def check_t0(t0):
        checked.append(t0)
        origin_series.check_t0(t0)
    monkeypatch.setattr(integrator, "check_t0", check_t0)
    message = r"t0 must lie in \[1e-06, 0.01\], got 0.02"
    with pytest.raises(HandoffError, match=message):
        IntegratorControls(t0=2 * T0_MAX)
    good = IntegratorControls()
    with pytest.raises(HandoffError, match=message):
        replace(good, t0=2 * T0_MAX)
    assert checked == [2 * T0_MAX, DEFAULT_T0, 2 * T0_MAX]
    shoot(ShootPoint(0.3, 0.1), 0.0, good)
    sweep([0.3], [0.1], 0.0, controls=good)
    assert len(checked) == 3


class _InProcessPool:
    """A ProcessPoolExecutor stand-in that maps in this process and records
    its max_workers and the number of tasks of each map call."""

    def __init__(self, pools, tasks):
        self.pools, self.tasks = pools, tasks

    def __call__(self, max_workers):
        self.pools.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args):
        self.tasks.append(len(args))
        return map(fn, args)


def test_sweep_starts_at_most_one_process_per_task(monkeypatch):
    # the pool starts all max_workers processes on its first submit, so
    # the count is capped at the task count (here below the CPU count):
    # 2 x 2 points in tasks of 2 points are 2 tasks
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(shooter, "_SWEEP_BATCH", 2)
    pools = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool(pools, []))
    short = replace(CONTROLS, t_max=3.0)
    grid = sweep([0.05, 0.3], [0.1, 0.5], 0.0, controls=short, workers=5000)
    assert pools == [2]
    assert list(grid.rows()) == list(sweep([0.05, 0.3], [0.1, 0.5], 0.0,
                                           controls=short).rows())
    # a grid of one task runs in this process
    sweep([0.05, 0.3], [0.1], 0.0, controls=short, workers=5000)
    assert pools == [2]


def test_sweep_starts_at_most_one_process_per_cpu(monkeypatch):
    # and at the CPU count: 5000 workers over 6 tasks on 3 CPUs is a pool
    # of 3; no real process is started
    monkeypatch.setattr(shooter, "_SWEEP_BATCH", 2)
    pools = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool(pools, []))
    short = replace(CONTROLS, t_max=3.0)
    alphas, betas = [0.05, 0.2, 0.3, 0.6, 0.9, 1.2], [0.1, 0.5]
    serial = list(sweep(alphas, betas, 0.0, controls=short).rows())
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert list(sweep(alphas, betas, 0.0, controls=short, workers=5000).rows()) == serial
    assert pools == [3]
    # one CPU, or an unknown count, sweeps in this process
    for cpus in (1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert list(sweep(alphas, betas, 0.0, controls=short, workers=5000).rows()) == serial
    assert pools == [3]


def _spy_expand_batch(monkeypatch):
    # the lane count of every expand_batch call of the shooter
    lanes = []

    def spy(alphas, betas, lambda_hat):
        lanes.append(len(alphas))
        return expand_batch(alphas, betas, lambda_hat)
    monkeypatch.setattr(shooter, "expand_batch", spy)
    return lanes


def test_sweep_tasks_are_fixed_chunks_of_points(monkeypatch):
    # a task is at most _SWEEP_BATCH consecutive row-major points, rows
    # or no rows: 7 x 5 points in tasks of 4 are 9 tasks of 4, ..., 4, 3
    # points, all in one map; the pool is min(workers, tasks, CPUs)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    pools, tasks = [], []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InProcessPool(pools, tasks))
    monkeypatch.setattr(shooter, "_SWEEP_BATCH", 4)
    short = replace(CONTROLS, t_max=3.0)
    alphas, betas = [0.05, 0.2, 0.3, 0.6, 0.9, 1.2, 1.5], [0.1, 0.3, 0.5, 0.8, 1.0]
    serial = list(sweep(alphas, betas, 0.0, controls=short).rows())
    lanes = _spy_expand_batch(monkeypatch)
    for workers, pool in ((2, 2), (20, 3)):
        grid = sweep(alphas, betas, 0.0, controls=short, workers=workers)
        assert list(grid.rows()) == serial
        assert lanes == [4] * 8 + [3]
        lanes.clear()
        assert pools[-1] == pool and tasks[-1] == 9
    assert len(pools) == 2


def test_a_long_row_is_expanded_in_bounded_chunks_and_pools(monkeypatch):
    # a row wider than a task is cut into tasks too: a 1 x (2 B + 1) row
    # at _SWEEP_BATCH = B is expanded B, B and 1 lanes at a time, and
    # pools at workers = 2; every cell is the one shooting its ShootPoint
    # gives
    batch = 3
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pools = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool(pools, []))
    monkeypatch.setattr(shooter, "_SWEEP_BATCH", batch)
    lanes = _spy_expand_batch(monkeypatch)
    alpha, lam = 0.3, 0.7
    betas = [0.05 + 0.3 * j for j in range(2 * batch + 1)]
    grid = sweep([alpha], betas, lam, workers=2)
    assert lanes == [batch, batch, 1] and pools == [2]
    assert list(grid.rows()) == [(alpha, b, *_cell(ShootPoint(alpha, b), lam, CONTROLS))
                                 for b in betas]


def test_sweep_does_not_depend_on_t0():
    # a run starts on its series at min(t0, reach) and hands over to
    # DOP853 at the reach, so on grids from the benchmark's box (alpha in
    # [0.02, 1.5], beta in [0.05, 2], lambda_hat in [0, 2]) every tag and
    # event time is the same, bit for bit, across the handoff range
    rng = random.Random(0)
    for _ in range(6):
        alphas = sorted(rng.uniform(0.02, 1.5) for _ in range(10))
        betas = sorted(rng.uniform(0.05, 2.0) for _ in range(10))
        lam = rng.uniform(0.0, 2.0)
        grids = [sweep(alphas, betas, lam, controls=replace(CONTROLS, t0=t0))
                 for t0 in (T0_MIN, 5e-4, DEFAULT_T0, T0_MAX)]
        want = (grids[0].tags, grids[0].t_events)
        assert all((g.tags, g.t_events) == want for g in grids[1:])


def test_sweep_prefers_rho_fate_when_informative():
    # gauge channel still undecided at this short horizon; the Higgs
    # turnover is the informative outcome and must be the reported one
    short = replace(CONTROLS, t_max=3.0)
    grid = sweep([0.05], [1e-3], 1.0, controls=short, workers=1)
    (_, _, tag, t_event) = next(iter(grid.rows()))
    assert tag in ("RhoPrimeZero", "RhoZero")
    assert t_event is not None
