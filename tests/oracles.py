"""Independent numerical oracles for the test suite.

Everything here is deliberately written from scratch against the equations
themselves: a fresh transcription of the right-hand side, a classic
fixed-step RK4 with linear-interpolation event location, closed-form
lambda_hat = 0 references straight from math.sinh, and a bisection root of
tan u = u.  None of it imports solver internals, so agreement between these
and the package is a genuine cross-check rather than a restatement.

The exception is the last section: the plain forms that the integrator's
written-out arithmetic replaced, kept as the references that it must
match bit for bit.  They read the interpolant's tableau and model._rhs.
"""
from __future__ import annotations

import math
from decimal import Decimal, localcontext


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
