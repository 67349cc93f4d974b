"""Independent numerical oracles for the test suite.

Everything here is deliberately written from scratch against the equations
themselves: a fresh transcription of the right-hand side, a classic
fixed-step RK4 with linear-interpolation event location, closed-form
lambda_hat = 0 references straight from math.sinh, a bisection root of
tan u = u, and a collocation solve of the whole boundary value problem
(scipy.integrate.solve_bvp) for the reference alpha*, beta* and energy at
any lambda_hat.  None of it imports solver internals, so agreement between
these and the package is a genuine cross-check rather than a restatement.

The exceptions are the last sections: the plain forms that the
integrator's written-out arithmetic replaced, kept as the references that
it must match bit for bit, which read the interpolant's tableau and
model._rhs; the gauge verdict a fresh run gives at its first gauge
event, the reference for a continued probe, which reads classify; and
the residual sup-norm of a whole grid in one batch, the reference for
the block walk of analysis.residual_norm.
"""
from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
from scipy.integrate import quad, solve_bvp


def deriv(t, y, lam):
    """(f', f'', rho', rho'') for y = (f, f', rho, rho')."""
    f, fp, rho, rhop = y
    fpp = f * (f * f - 1.0) / (t * t) + rho * rho * f
    rpp = -2.0 * rhop / t + 2.0 * f * f * rho / (t * t) \
        + lam * (rho * rho - 1.0) * rho
    return (fp, fpp, rhop, rpp)


def series_start(alpha, beta, lam, t0):
    """Origin series evaluated at t0, coefficients re-derived by hand."""
    a4 = (3.0 * alpha * alpha + beta * beta) / 10.0
    b3 = -beta * (4.0 * alpha + lam) / 10.0
    return (1.0 - alpha * t0 * t0 + a4 * t0 ** 4,
            -2.0 * alpha * t0 + 4.0 * a4 * t0 ** 3,
            beta * t0 + b3 * t0 ** 3,
            beta + 3.0 * b3 * t0 * t0)


def rk4_shoot(alpha, beta, lam, t_end=12.0, t0=1e-3, h=1e-4):
    """Fixed-step RK4 shot reporting the first f-event and first rho-event.

    Events, located by linear interpolation between steps:
      f-side:   'FPrimeZero' (f' reaches 0), 'FZero' (f reaches 0)
      rho-side: 'RhoPrimeZero', 'RhoZero', 'RhoCrossVev' (rho reaches 1)
    Returns dict with keys f_event, rho_event (each (tag, t) or None) and
    the final state.
    """
    t, y = t0, series_start(alpha, beta, lam, t0)
    f_event = rho_event = None

    def cross(t_prev, v_prev, t_cur, v_cur):
        # linear interpolation of the zero crossing of v
        return t_prev + (t_cur - t_prev) * v_prev / (v_prev - v_cur)

    while t < t_end - 1e-12:
        step = min(h, t_end - t)
        k1 = deriv(t, y, lam)
        y2 = tuple(y[i] + 0.5 * step * k1[i] for i in range(4))
        k2 = deriv(t + 0.5 * step, y2, lam)
        y3 = tuple(y[i] + 0.5 * step * k2[i] for i in range(4))
        k3 = deriv(t + 0.5 * step, y3, lam)
        y4 = tuple(y[i] + step * k3[i] for i in range(4))
        k4 = deriv(t + step, y4, lam)
        y_new = tuple(y[i] + step * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) / 6.0
                      for i in range(4))
        t_new = t + step

        if f_event is None:
            if y[1] < 0.0 <= y_new[1]:
                f_event = ("FPrimeZero", cross(t, y[1], t_new, y_new[1]))
            elif y[0] > 0.0 >= y_new[0]:
                f_event = ("FZero", cross(t, y[0], t_new, y_new[0]))
        if rho_event is None:
            if y[3] > 0.0 >= y_new[3]:
                rho_event = ("RhoPrimeZero", cross(t, y[3], t_new, y_new[3]))
            elif y[2] > 0.0 >= y_new[2]:
                rho_event = ("RhoZero", cross(t, y[2], t_new, y_new[2]))
            elif y[2] < 1.0 <= y_new[2]:
                rho_event = ("RhoCrossVev",
                             cross(t, y[2] - 1.0, t_new, y_new[2] - 1.0))
        t, y = t_new, y_new
        if not all(math.isfinite(v) for v in y) or abs(y[0]) > 5.0 or abs(y[2]) > 5.0:
            break

    return {"f_event": f_event, "rho_event": rho_event, "t": t, "y": y}


def ps_f(t):
    return t / math.sinh(t)


def ps_fp(t):
    return (1.0 - t / math.tanh(t)) / math.sinh(t)


def ps_rho(t):
    return 1.0 / math.tanh(t) - 1.0 / t


def ps_rhop(t):
    return 1.0 / (t * t) - 1.0 / math.sinh(t) ** 2


def ps_decimal(t):
    """(f, f', rho, rho') of the lambda_hat = 0 closed form, in 50-digit decimal.

    The direct formulas cancel near t = 0 in double precision; at 50
    digits the cancellation still leaves every component exact to the
    double it is rounded to.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        u = Decimal(t)
        e = u.exp()
        sh = (e - 1 / e) / 2
        coth = (e + 1 / e) / 2 / sh
        return tuple(float(v) for v in (u / sh, (1 - u * coth) / sh, coth - 1 / u,
                                        1 / (u * u) - 1 / (sh * sh)))


def tan_root():
    """First positive root of tan u = u, via sign change of sin u - u cos u."""
    lo, hi = math.pi, 1.5 * math.pi

    def g(u):
        return math.sin(u) - u * math.cos(u)

    assert g(lo) > 0.0 > g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- the boundary value problem by collocation --------------------------------

# Inner end of the collocation interval.
BVP_EPS = 1e-3


def _bvp_density(t, y, lam):
    f, fp, rho, rhop = y
    return (fp * fp + (f * f - 1.0) ** 2 / (2.0 * t * t) + f * f * rho * rho
            + (t * rhop) ** 2 / 2.0 + 0.25 * lam * (t * (rho * rho - 1.0)) ** 2)


def _bps_columns(t):
    # (f, f', rho, rho') of t / sinh t, in e^{-2t} so that no term overflows
    q = np.exp(-2.0 * t)
    csch = 2.0 * np.exp(-t) / (1.0 - q)
    coth = (1.0 + q) / (1.0 - q)
    return np.vstack((t * csch, (1.0 - t * coth) * csch, coth - 1.0 / t,
                      1.0 / (t * t) - csch * csch))


def collocation_curve(lams):
    """{lambda_hat: (alpha*, beta*, E)} by solve_bvp on [BVP_EPS, R], in increasing order.

    The origin conditions are the series' leading terms, t f' = 2 (f - 1)
    and t rho' = rho; at R = max(30, 25 / min(k, 2)), k = sqrt(2 lambda_hat),
    f' = -f and the Higgs gap delta = 1 - rho decays as
    delta' = -(min(k, 2) + 1/R) delta, or, at lambda_hat = 0, rho + R rho' = 1.
    Each solve starts from the last one's solution, the first from the
    lambda_hat = 0 closed form.  E is the quadrature of the energy density
    on [BVP_EPS, R], plus the series head below BVP_EPS and the Coulomb
    tails past R: 1 / (2R) of the gauge field and, at lambda_hat = 0,
    B^2 / (2R) of the Higgs field.  alpha* and beta* are read off the
    solution at BVP_EPS, good to ~5e-7 with two-term origin conditions.
    """
    eps, out, guess = BVP_EPS, {}, None
    for lam in sorted(lams):
        m = min(math.sqrt(2.0 * lam), 2.0)
        r = 30.0 if m == 0.0 else max(30.0, 25.0 / m)

        def bc(ya, yb):
            far = (yb[2] + r * yb[3] - 1.0 if m == 0.0
                   else (m + 1.0 / r) * (1.0 - yb[2]) - yb[3])
            return np.array([eps * ya[1] - 2.0 * (ya[0] - 1.0), eps * ya[3] - ya[2],
                             yb[1] + yb[0], far])
        t = np.concatenate((np.geomspace(eps, 1.0, 100)[:-1], np.linspace(1.0, r, 200)))
        y = _bps_columns(t) if guess is None else guess(np.minimum(t, guess.x[-1]))
        sol = solve_bvp(lambda t, y: np.vstack(deriv(t, y, lam)), bc, t, y, tol=1e-9,
                        max_nodes=100000)
        assert sol.status == 0, (lam, sol.message)
        guess = sol.sol
        f, _, rho, _ = sol.sol(eps)
        alpha, beta = (1.0 - f) / eps ** 2, rho / eps
        body = quad(lambda s: _bvp_density(s, sol.sol(s), lam), eps, r, limit=2000,
                    epsabs=1e-13, epsrel=1e-13)[0]
        head = (6.0 * alpha ** 2 + 1.5 * beta ** 2 + 0.25 * lam) * eps ** 3 / 3.0
        b = r * (1.0 - sol.sol(r)[2])
        tail = (1.0 + (b * b if m == 0.0 else 0.0)) / (2.0 * r)
        out[lam] = (float(alpha), float(beta), float(body + head + tail))
    return out


# -- plain forms of the integrator's written-out arithmetic -------------------

def _row_sum(row, col):
    # left to right from the integer 0, as sum() adds floats before
    # Python 3.12, zero weights included
    acc = 0
    for w, k in zip(row, col):
        acc = acc + w * k
    return acc


def interpolant_coeffs(seg):
    """The seven interpolant coefficients per component of an unbuilt DenseSegment.

    The three extra stages and the D rows are sums over whole tableau
    rows.  seg must still hold its stages (seg._k), so this is read
    before seg._coeffs() builds them.
    """
    from monopole.dense_output import _A_EXTRA, _C_EXTRA, _D
    from monopole.model import _rhs
    t, h, y0 = seg.t, seg.h, seg.y0
    cols = [list(c) for c in seg._k]
    for c, row in zip(_C_EXTRA, _A_EXTRA):
        k = _rhs(t + c * h, *[y0[i] + h * _row_sum(row, cols[i]) for i in range(4)],
                 seg.lambda_hat)
        for col, v in zip(cols, k):
            col.append(v)
    q = []
    for ya, yb, col in zip(y0, seg.y1, cols):
        dy = yb - ya
        q.append((dy, h * col[0] - dy, 2.0 * dy - h * (col[12] + col[0]),
                  *[h * _row_sum(row, col) for row in _D]))
    return q


def bisect_predicate(interpolant, t_lo, t_hi, predicate, tol):
    """Bisect a sign change of predicate(interpolant(t)) to tol; (t, interpolant(t))."""
    g_lo = predicate(interpolant(t_lo))
    g_hi = predicate(interpolant(t_hi))
    if g_lo == 0.0:
        return t_lo, interpolant(t_lo)
    if g_hi == 0.0:
        return t_hi, interpolant(t_hi)
    if (g_lo < 0.0) == (g_hi < 0.0):
        raise ValueError(f"no sign change on [{t_lo}, {t_hi}]")
    while t_hi - t_lo > tol:
        t_mid = 0.5 * (t_lo + t_hi)
        if t_mid <= t_lo or t_mid >= t_hi:
            break
        g_mid = predicate(interpolant(t_mid))
        if g_mid == 0.0:
            return t_mid, interpolant(t_mid)
        if (g_lo < 0.0) != (g_mid < 0.0):
            t_hi = t_mid
        else:
            t_lo, g_lo = t_mid, g_mid
    t_ev = 0.5 * (t_lo + t_hi)
    return t_ev, interpolant(t_ev)


def first_gauge_verdict(run):
    """The FFate of a fresh run read at its first gauge event, in the tube or not.

    That event's Outcome, with detail "first gauge event" in the tube, or
    else classify's FFate of the whole run: what integrator.continued_fate
    gives for a shorter run continued to this run's horizon.
    """
    from monopole.integrator import ClassifyMode, Outcome, classify
    if not run.f_events:
        return classify(run, ClassifyMode.F_FATE)
    ev = run.f_events[0]
    return Outcome(tag=ev.tag, t_event=ev.t, state=ev.state,
                   detail="first gauge event" if ev.in_tube else "")


def whole_grid_residual(ts, fs, rhos, h, lam):
    """residual_norm's sup-norm of one uniform grid, differenced in one batch."""
    ts, fs, rhos = (np.asarray(c, dtype=float) for c in (ts, fs, rhos))
    t, f, r = ts[1:-1], fs[1:-1], rhos[1:-1]
    h2 = h * h
    fpp = (fs[2:] - 2.0 * fs[1:-1] + fs[:-2]) / h2
    rpp = (rhos[2:] - 2.0 * rhos[1:-1] + rhos[:-2]) / h2
    rp = (rhos[2:] - rhos[:-2]) / (2.0 * h)
    res_f = fpp - f * (f * f - 1.0) / (t * t) - r * r * f
    res_r = rpp + 2.0 * rp / t - 2.0 * f * f * r / (t * t) - lam * (r * r - 1.0) * r
    return float(max(np.max(np.abs(res_f)), np.max(np.abs(res_r))))
