"""End-to-end acceptance checks, one test per advertised guarantee.

Run `pytest tests/test_acceptance.py -v` for a one-line verdict per
criterion; add -s to see the measured numbers behind each verdict.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from monopole import analysis
from monopole.integrator import (ClassifyMode, IntegratorControls, OutcomeTag,
                                 classify)
from monopole.model import ps_exact
from monopole.origin_series import ShootPoint, picard_verify, series_coefficients
from monopole.shooter import bisect_alpha, bisect_beta, bracket_alpha, shoot

CONTROLS = IntegratorControls()


def test_criterion_1_bps_oracle_equivalence(lam0):
    assert abs(lam0.alpha_star_hat - 1.0 / 6.0) < 1e-3
    assert abs(lam0.beta_star_hat - 1.0 / 3.0) < 1e-3
    ts = np.linspace(0.01, 10.0, 4000)
    err = 0.0
    for t in ts:
        exact = ps_exact(t)
        got = lam0.profile.state_at(t)
        err = max(err, abs(got.f - exact.f), abs(got.rho - exact.rho))
    print(f"\n  alpha*={lam0.alpha_star_hat:.12f} beta*={lam0.beta_star_hat:.12f} "
          f"max|profile-closed form|={err:.3e} wall={lam0.wall_seconds:.1f}s")
    assert err < 1e-4
    assert lam0.wall_seconds < 30.0


def test_criterion_2_series_closed_forms():
    point = ShootPoint(alpha=Fraction(1, 6), beta=Fraction(1, 3))
    coeffs = series_coefficients(point, 0)
    print(f"\n  a4={coeffs.a4} b3={coeffs.b3}")
    assert coeffs.a4 == Fraction(7, 360)
    assert coeffs.b3 == Fraction(-1, 45)
    assert isinstance(coeffs.a4, Fraction) and isinstance(coeffs.b3, Fraction)


def test_criterion_3_picard_contraction():
    for alpha, beta, lam in ((1.0 / 6.0, 1.0 / 3.0, 0.0), (1.0, 1.0, 1.0)):
        hist = picard_verify(ShootPoint(alpha, beta), lam, n_iters=8)
        ratios = hist.ratios
        assert len(ratios) == 7  # iterations 2 through 8
        print(f"\n  ({alpha:.4f},{beta:.4f},{lam}) s_max={hist.s_max:.4f} "
              f"max ratio={max(ratios):.4f}")
        assert hist.s_max == hist.s_threshold
        assert all(r <= 1.0 / 3.0 + 0.05 for r in ratios)


def test_criterion_4_classifier_dichotomy_against_fixed_step_oracle():
    for alpha, want in ((1e-3, OutcomeTag.FPRIME_ZERO), (50.0, OutcomeTag.F_ZERO)):
        traj = shoot(ShootPoint(alpha, 0.5), 1.0, CONTROLS)
        out = classify(traj, ClassifyMode.F_FATE)
        ref = oracles.rk4_shoot(alpha, 0.5, 1.0, t_end=0.5, h=1e-4)
        ref_tag, ref_t = ref["f_event"]
        print(f"\n  alpha={alpha}: {out.tag.value} at t={out.t_event:.6f}, "
              f"oracle {ref_tag} at t={ref_t:.6f}")
        assert out.tag is want
        assert ref_tag == out.tag.value
        assert abs(out.t_event - ref_t) < 1e-3


def test_criterion_5_rho_fate_dichotomy_along_the_separatrix():
    for beta, want in ((1e-3, {OutcomeTag.RHO_PRIME_ZERO, OutcomeTag.RHO_ZERO}),
                       (50.0, {OutcomeTag.RHO_CROSS_VEV})):
        br = bracket_alpha(beta, 1.0, CONTROLS)
        res = bisect_alpha(br, beta, 1.0, CONTROLS, tol_alpha=1e-6)
        out = classify(res.trajectory, ClassifyMode.RHO_FATE)
        if out.tag is OutcomeTag.BLOWUP and res.trajectory.rho_events:
            # gauge-channel scan hit the blowup first; the verdict is the
            # Higgs event recorded on the way
            ev = res.trajectory.rho_events[0]
            print(f"\n  beta={beta}: blowup at t={out.t_event:.6f}, preceding "
                  f"rho event {ev.tag.value} at t={ev.t:.6f}")
            assert ev.tag in want
            assert ev.t < out.t_event
        else:
            print(f"\n  beta={beta}: {out.tag.value} at t={out.t_event:.6f} "
                  f"(alpha*={res.alpha_star:.8f})")
            assert out.tag in want


def test_criterion_6_coupled_monopole_solution(lam1):
    assert lam1.converged
    audit = lam1.audit
    margins = audit.worst_margins
    print(f"\n  audit={'PASS' if audit.passes else 'FAIL'} "
          f"min margin={min(margins.values()):.3e} "
          f"residual={lam1.residual_norm:.3e} "
          f"f_rate={lam1.profile.f_fit.rate:.4f} "
          f"higgs_rate={lam1.profile.higgs_fit.rate:.4f}")
    assert audit.passes
    assert all(v > 0.0 for v in margins.values())
    assert lam1.residual_norm < 1e-6
    assert abs(lam1.profile.f_fit.rate - 1.0) < 0.05
    assert abs(lam1.profile.higgs_fit.rate - math.sqrt(2.0)) < 0.07


def test_criterion_7_sturm_probe_bound(lam1):
    flat = analysis.linearized_probe(None)
    reference = oracles.tan_root()
    probed = analysis.linearized_probe(lam1.profile)
    print(f"\n  flat zero={flat.first_zero:.10f} tan-root={reference:.10f} "
          f"profile zero={probed.first_zero:.6f}")
    assert abs(flat.first_zero - reference) < 1e-3
    assert abs(flat.first_zero - 4.4934) < 1e-3
    assert probed.first_zero is not None
    assert probed.first_zero <= 4.4944


def test_criterion_8_handoff_insensitivity(lam1, lam1_fine_handoff):
    da = abs(lam1.alpha_star_hat - lam1_fine_handoff.alpha_star_hat)
    db = abs(lam1.beta_star_hat - lam1_fine_handoff.beta_star_hat)
    print(f"\n  |d alpha*|={da:.3e} |d beta*|={db:.3e}")
    assert da < 1e-7
    assert db < 1e-7


def test_criterion_9_energy_sanity(lam0, lam1):
    print(f"\n  mass(0)={lam0.energy:.6f} mass(1)={lam1.energy:.6f}")
    assert abs(lam0.energy - 1.0) < 1e-3
    assert lam1.energy > 1.0


def test_criterion_10_coupled_solves_match_the_collocation_oracle(
        oracle_curve, lam0p42, lam1, lam1p5):
    # an independent reference for lambda_hat > 0: solve_bvp on the whole
    # interval, whose own lambda_hat = 0 energy is the closed form's; its
    # two-term origin conditions hold alpha* and beta* to ~5e-7 only
    assert abs(oracle_curve[0.0][2] - 1.0) < 1e-9
    solves = {0.2: bisect_beta(0.2), 0.42489062049196824: lam0p42, 1.0: lam1,
              1.5: lam1p5, 2.0: bisect_beta(2.0)}
    for lam, rep in solves.items():
        alpha, beta, energy = oracle_curve[lam]
        assert rep.converged, lam
        print(f"\n  lambda_hat={lam:.6g} dE={rep.energy - energy:.2e} "
              f"dalpha={rep.alpha_star_hat - alpha:.2e} dbeta={rep.beta_star_hat - beta:.2e}")
        assert abs(rep.energy - energy) < 1e-6, lam
        assert abs(rep.alpha_star_hat - alpha) < 2e-6, lam
        assert abs(rep.beta_star_hat - beta) < 2e-6, lam
