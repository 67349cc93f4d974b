"""Output checks that do not trust the solver.

Everything here is written from the field equations: the closed-form
lambda_hat = 0 profile, a fixed-step RK4 outcome classifier, and the
Derrick virial quadrature over a profile table.  Nothing imports solver
internals.
"""
from __future__ import annotations

import math

# Acceptance thresholds of the solver's own end-to-end tests.
BPS_PARAM_TOL = 1e-6
BPS_PROFILE_TOL = 1e-4
BPS_ENERGY_TOL = 1e-3
RESIDUAL_TOL = 1e-6
# Kirkman & Zachos (1981): the mass is bounded by its lambda_hat -> inf limit.
ENERGY_CEIL = 1.787
# The RK4 check compares event radii to this accuracy.
EVENT_T_TOL = 1e-3


def bps_f(t: float) -> float:
    return t / math.sinh(t)


def bps_rho(t: float) -> float:
    return 1.0 / math.tanh(t) - 1.0 / t


def bps_profile_error(state_at, n: int = 4000, t_lo: float = 0.01,
                      t_hi: float = 10.0) -> float:
    """Largest |f - t/sinh t| or |rho - (coth t - 1/t)| on a uniform grid."""
    err = 0.0
    for i in range(n):
        t = t_lo + (t_hi - t_lo) * i / (n - 1)
        s = state_at(t)
        err = max(err, abs(s.f - bps_f(t)), abs(s.rho - bps_rho(t)))
    return err


def _deriv(t, y, lam):
    f, fp, rho, rhop = y
    fpp = f * (f * f - 1.0) / (t * t) + rho * rho * f
    rpp = -2.0 * rhop / t + 2.0 * f * f * rho / (t * t) + lam * (rho * rho - 1.0) * rho
    return (fp, fpp, rhop, rpp)


def _series(alpha, beta, lam, t0):
    a4 = (3.0 * alpha * alpha + beta * beta) / 10.0
    b3 = -beta * (4.0 * alpha + lam) / 10.0
    return (1.0 - alpha * t0 * t0 + a4 * t0 ** 4,
            -2.0 * alpha * t0 + 4.0 * a4 * t0 ** 3,
            beta * t0 + b3 * t0 ** 3,
            beta + 3.0 * b3 * t0 * t0)


def rk4_gauge_event(alpha, beta, lam, t_end, t0=1e-3, h=2.5e-4):
    """First gauge event of a fixed-step RK4 shot: (tag, t) or None by t_end.

    'FPrimeZero' when f' reaches 0 from below, 'FZero' when f reaches 0
    from above; the radius is linearly interpolated between steps.
    """
    t, y = t0, _series(alpha, beta, lam, t0)
    while t < t_end:
        k1 = _deriv(t, y, lam)
        k2 = _deriv(t + 0.5 * h, tuple(y[i] + 0.5 * h * k1[i] for i in range(4)), lam)
        k3 = _deriv(t + 0.5 * h, tuple(y[i] + 0.5 * h * k2[i] for i in range(4)), lam)
        k4 = _deriv(t + h, tuple(y[i] + h * k3[i] for i in range(4)), lam)
        yn = tuple(y[i] + h * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) / 6.0
                   for i in range(4))
        if y[1] < 0.0 <= yn[1]:
            return "FPrimeZero", t + h * y[1] / (y[1] - yn[1])
        if y[0] > 0.0 >= yn[0]:
            return "FZero", t + h * y[0] / (y[0] - yn[0])
        t, y = t + h, yn
    return None


def gauge_event_agrees(alpha, beta, lam, tag, t_event, t0) -> bool:
    """Does an independent RK4 shot see the same first gauge event?"""
    ref = rk4_gauge_event(alpha, beta, lam, t_end=t_event + 0.25, t0=t0)
    return ref is not None and ref[0] == tag and abs(ref[1] - t_event) < EVENT_T_TOL


def _integrate_uniform(y, h: float) -> float:
    """Composite Simpson on a uniform grid; 3/8 rule on the last panel if needed."""
    n = len(y) - 1
    if n < 2:
        raise ValueError("need at least three samples")
    total = 0.0
    if n % 2:
        total += 3.0 * h / 8.0 * (y[-4] + 3.0 * y[-3] + 3.0 * y[-2] + y[-1])
        n -= 3
    if n:
        total += h / 3.0 * (y[0] + y[n] + 4.0 * sum(y[1:n:2]) + 2.0 * sum(y[2:n - 1:2]))
    return total


def virial(ts, fs, fps, rhos, rhops, lam) -> tuple[float, float]:
    """(energy, Derrick residual E_gauge - E_higgs_kin - 3 E_pot) of a profile table.

    The table is uniform in t.  Below its first radius every density
    grows like t^2 and contributes value * t / 3.  Past its last radius
    T the gauge field has decayed, so the gauge density is 1 / (2 t^2)
    (adding 1 / (2T)); the Higgs densities decay like 1 / t^2 at
    lambda_hat = 0 and like e^{-2kt}, k = min(sqrt(2 lambda_hat), 2),
    otherwise.
    """
    h = ts[1] - ts[0]
    gauge, kin, pot = [], [], []
    for t, f, fp, rho, rhop in zip(ts, fs, fps, rhos, rhops):
        gauge.append(fp * fp + (f * f - 1.0) ** 2 / (2.0 * t * t))
        kin.append(f * f * rho * rho + 0.5 * (t * rhop) ** 2)
        pot.append(0.25 * lam * (t * (rho * rho - 1.0)) ** 2)
    t_first, t_last = ts[0], ts[-1]
    parts = []
    for dens in (gauge, kin, pot):
        parts.append(_integrate_uniform(dens, h) + dens[0] * t_first / 3.0)
    parts[0] += 1.0 / (2.0 * t_last)
    if lam == 0.0:
        parts[1] += kin[-1] * t_last
    else:
        k = min(math.sqrt(2.0 * lam), 2.0)
        parts[1] += kin[-1] / (2.0 * k)
        parts[2] += pot[-1] / (2.0 * k)
    e_gauge, e_kin, e_pot = parts
    return e_gauge + e_kin + e_pot, e_gauge - e_kin - 3.0 * e_pot
