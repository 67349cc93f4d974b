"""Series expansion at the regular singular point t = 0 and its Picard certificate.

Regular solutions leave the origin as

    f(t)       = sum_n a_n t^{2n}     = 1 - alpha t^2 + a4 t^4 + ...
    rho_hat(t) = t sum_n b_n t^{2n}   = beta t + b3 t^3 + ...

with every coefficient past a_1 = -alpha and b_0 = beta fixed by the field
equations.  In x = t^2, with A = sum a_n x^n and B = sum b_n x^n, matching
powers gives for n >= 1 first a_n (n >= 2), then b_n:

    (2n(2n-1) - 2) a_n     = (A^3)_n at a_n = 0 + (B^2 A)_{n-2}
    ((2n+1)(2n+2) - 2) b_n = 2 (A^2 B)_n at b_n = 0
                             + lambda_hat ((B^3)_{n-2} - b_{n-1})

expand_series runs this recurrence to SERIES_ORDER with running
convolutions (O(N^2)); series_coefficients reads a4 = a_2 and b3 = b_1
off the same recurrence, exactly for exact number types.  The truncated
series is exact to rounding out to its reach, the radius at which its
last terms fall below _REACH_EPS of the leading ones, estimated from the
growth rate of the last _REACH_TAIL coefficients.  A shot reads its run
off the series up to there and starts the adaptive integrator at the
reach (integrator.integrate_series), so the integrator never steps
through the 1/t^2 layer at the origin and the answer does not depend on
the handoff radius t0, which is now only where the run's samples begin.

initial_state evaluates the two-term truncation at t0: it decides the
immediate turn of shooter.shoot, and starts the run as before when the
reach does not lie beyond t0.

picard_verify reruns the same local solution as a fixed-point iteration in
the logarithmic variable s = log t, on the autonomous integral form of the
equations, and reports the sup-norm contraction history.  That gives an
independent certificate that the series agrees with the actual local
solution, together with the contraction constants that guarantee
convergence on s <= -S.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .errors import ContractionDomainError, DomainError, HandoffError
from .model import PhaseState

__all__ = [
    "ShootPoint",
    "SeriesCoefficients",
    "OriginSeries",
    "PicardHistory",
    "DEFAULT_T0",
    "T0_MAX",
    "SERIES_ORDER",
    "series_coefficients",
    "expand_series",
    "initial_state",
    "picard_verify",
]

DEFAULT_T0 = 1e-3
T0_MAX = 1e-2
# Order in x = t^2 to which expand_series sums the origin expansion.
SERIES_ORDER = 24
# The reach is where the last terms fall below _REACH_EPS of the leading
# ones, at the largest growth rate of the last _REACH_TAIL coefficients;
# it is capped at _REACH_MAX, which a series with no growth at all (the
# vacuum f = 1, rho = 0) would otherwise exceed without bound.
_REACH_EPS = 1e-17
_REACH_TAIL = 4
_REACH_MAX = 2.0


@dataclass(frozen=True)
class ShootPoint:
    """Shooting parameters: alpha is the gauge coefficient, beta the Higgs slope."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise DomainError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise DomainError(f"beta must be finite and >= 0, got {self.beta}")


@dataclass(frozen=True)
class SeriesCoefficients:
    """Quartic gauge and cubic Higgs coefficients of the origin expansion."""

    a4: float
    b3: float


def _recurrence(alpha, beta, lambda_hat, order: int) -> tuple[list, list]:
    """Coefficients a_0..a_order of f and b_0..b_order of rho/t, in x = t^2.

    With P = A^2 and Q = B^2 the two right-hand sides are A R - A and
    B S - lambda_hat x B for R = P + x^2 Q and S = 2 P + lambda_hat x^2 Q,
    so each new index takes four running convolutions: P, Q, A R and B S.
    The arithmetic stays within the caller's number type.
    """
    a, b = [1, -alpha], [beta]
    p, q = [1, -2 * alpha], [beta * beta]
    r, s = p[:], [2, -4 * alpha]
    for n in range(1, order + 1):
        if n >= 2:
            p_n = sum(map(mul, a[1:n], a[n - 1:0:-1]))
            a_n = (p_n + q[n - 2] + sum(map(mul, a[1:n], r[n - 1:0:-1]))) \
                / (2 * n * (2 * n - 1) - 2)
            a.append(a_n)
            p.append(p_n + 2 * a_n)
            r.append(p[n] + q[n - 2])
            s.append(2 * p[n] + lambda_hat * q[n - 2])
        b.append((sum(map(mul, b, s[n:0:-1])) - lambda_hat * b[n - 1])
                 / ((2 * n + 1) * (2 * n + 2) - 2))
        q.append(sum(map(mul, b, b[::-1])))
    return a[:order + 1], b


def series_coefficients(point: ShootPoint, lambda_hat: float) -> SeriesCoefficients:
    """Next-order series coefficients forced by the field equations.

    a4 = a_2 and b3 = b_1 of the recurrence, which are

        a4 = (3 alpha^2 + beta^2) / 10
        b3 = -beta (4 alpha + lambda_hat) / 10

    The arithmetic stays within the caller's number type, so exact
    rationals pass through unharmed.
    """
    if lambda_hat < 0:
        raise DomainError(f"lambda_hat must be >= 0, got {lambda_hat}")
    a, b = _recurrence(point.alpha, point.beta, lambda_hat, 2)
    return SeriesCoefficients(a4=a[2], b3=b[1])


class OriginSeries:
    """The origin expansion of one shot to SERIES_ORDER, and its reach.

    The four phase components are polynomials in x = t^2, times t for f'
    and rho.  state evaluates them at one radius and table at an array of
    radii, with the same operations in the same order, so both give the
    same bits; component gives one of them as a function of t alone, for
    event bisection.
    """

    __slots__ = ("lambda_hat", "reach", "_rows", "_matrix")

    def __init__(self, lambda_hat: float, a: list, b: list, reach: float):
        self.lambda_hat = lambda_hat
        self.reach = reach
        n = len(a) - 1
        # Horner rows, highest order first: f = P_f(x), f' = t P_f'(x),
        # rho = t P_rho(x), rho' = P_rho'(x).
        self._rows = tuple(
            (a[k], 2.0 * (k + 1) * a[k + 1] if k < n else 0.0, b[k], (2.0 * k + 1.0) * b[k])
            for k in range(n, -1, -1))
        self._matrix = np.array(self._rows)

    def state(self, t: float) -> tuple[float, float, float, float]:
        """(f, f', rho, rho') at radius t."""
        x = t * t
        f = fp = rho = rhop = 0.0
        for cf, cfp, cr, crp in self._rows:
            f = f * x + cf
            fp = fp * x + cfp
            rho = rho * x + cr
            rhop = rhop * x + crp
        return f, fp * t, rho * t, rhop

    def table(self, ts) -> np.ndarray:
        """state at every radius of ts, as an (n, 4) array, in one batch."""
        ts = np.asarray(ts, dtype=float)
        x = (ts * ts)[:, None]
        p = np.zeros((len(ts), 4))
        for row in self._matrix:
            p = p * x + row
        p[:, 1] *= ts
        p[:, 2] *= ts
        return p

    def component(self, i: int):
        """Component i of state as a function of t alone."""
        col = [row[i] for row in self._rows]
        odd = i in (1, 2)

        def value(t: float) -> float:
            x = t * t
            p = 0.0
            for c in col:
                p = p * x + c
            return p * t if odd else p
        return value


def expand_series(point: ShootPoint, lambda_hat: float) -> OriginSeries:
    """The origin series of (alpha, beta) to SERIES_ORDER, with its reach.

    The reach is the radius where the terms past the last fall below
    _REACH_EPS of the leading ones (1 for f, beta for rho / t): with m
    the largest n-th root of the last _REACH_TAIL normalised coefficients,
    x_reach = _REACH_EPS^(1/N) / m.  No single coefficient decides it, as
    one can be near zero by accident.  A series with a non-finite
    coefficient has reach 0.
    """
    if not (math.isfinite(lambda_hat) and lambda_hat >= 0):
        raise DomainError(f"lambda_hat must be finite and >= 0, got {lambda_hat}")
    n = SERIES_ORDER
    a, b = _recurrence(float(point.alpha), float(point.beta), float(lambda_hat), n)
    tail = range(n - _REACH_TAIL + 1, n + 1)
    rates = [abs(a[k]) ** (1.0 / k) for k in tail]
    if b[0] != 0.0:
        rates += [abs(b[k] / b[0]) ** (1.0 / k) for k in tail]
    m = max(rates)
    if not (all(map(math.isfinite, a)) and all(map(math.isfinite, b))
            and math.isfinite(m)):
        reach = 0.0
    elif m == 0.0:
        reach = _REACH_MAX
    else:
        reach = min(math.sqrt(_REACH_EPS ** (1.0 / n) / m), _REACH_MAX)
    return OriginSeries(float(lambda_hat), a, b, reach)


def initial_state(point: ShootPoint, lambda_hat: float, t0: float = DEFAULT_T0) -> PhaseState:
    """Evaluate the origin series truncated after a4 and b3 at the radius t0.

    t0 must lie in (0, T0_MAX]; beyond that the neglected orders are no
    longer far below integrator tolerance.
    """
    if not (0.0 < t0 <= T0_MAX):
        raise HandoffError(f"t0 must lie in (0, {T0_MAX}], got {t0}")
    c = series_coefficients(point, lambda_hat)
    a, b = point.alpha, point.beta
    t2 = t0 * t0
    return PhaseState(
        t=t0,
        f=1.0 - a * t2 + c.a4 * t2 * t2,
        fp=-2.0 * a * t0 + 4.0 * c.a4 * t0 * t2,
        rho=b * t0 + c.b3 * t0 * t2,
        rhop=b + 3.0 * c.b3 * t2,
    )


@dataclass
class PicardHistory:
    """Contraction record of the fixed-point iteration in s = log t."""

    s_max: float
    s_threshold: float
    constants: dict = field(default_factory=dict)
    diffs: list = field(default_factory=list)   # (sup |dphi|, sup |dpsi|) per iteration
    f_end: float = 0.0
    rho_end: float = 0.0
    t_end: float = 0.0

    @property
    def ratios(self) -> list[float]:
        """Successive sup-norm difference ratios; 0.0 once converged to zero."""
        sup = [max(a, b) for a, b in self.diffs]
        out = []
        for prev, cur in zip(sup, sup[1:]):
            out.append(cur / prev if prev > 0.0 else 0.0)
        return out


def _contraction_constants(alpha: float, beta: float, lambda_hat: float) -> dict:
    # Dimensionless frame (g0 = rho0 = 1).  K bounds the iterates, the M's
    # bound the Lipschitz constants of the four nonlinear blocks, and the
    # threshold -S is where the largest of them falls below contraction.
    K = max(2.0 * abs(alpha), 2.0 * abs(beta), 3.0)
    lam = lambda_hat
    m1 = 0.5 * (2.0 * (2.0 * K + K * K) + lam * (K * K + 1.0))
    m2 = (6.0 * K + 2.0 * K * K + 2.0 * K * K) / 3.0
    m3 = (8.0 + 3.0 * lam) * K * K + lam
    m4 = 4.0 * K + 6.0 * K * K
    m_lip = max(m1, m2, m3, m4)
    m_sup = max(4.0 * K ** 3 + lam * (K * K + 1.0) * K, 3.0 * K ** 3)
    return {
        "K": K,
        "M1": m1, "M2": m2, "M3": m3, "M4": m4,
        "M_lipschitz": m_lip,
        "M_sup": m_sup,
        "s_threshold": -0.5 * math.log(m_lip),
    }


def picard_verify(point: ShootPoint, lambda_hat: float, s_max: float | None = None,
                  n_iters: int = 8, ds: float = 0.01) -> PicardHistory:
    """Run the origin fixed-point iteration and record its contraction.

    In s = log t with f = 1 + e^{2s} phi and rho_hat = e^s psi, both
    channels reduce to x'' + 3x' = e^{2s} g, so the local solution solves

        phi(s) = -alpha + (1/3) I_s[3 phi^2 + e^{2 sigma} phi^3
                                     + psi^2 + e^{2 sigma} psi^2 phi]
        psi(s) = beta + (1/3) I_s[2 (2 phi + e^{2 sigma} phi^2) psi
                                   + lambda_hat (e^{2 sigma} psi^2 - 1) psi]

    where I_s[g] = integral over sigma < s of (e^{2 sigma} - e^{-3s+5 sigma}) g.
    Iteration starts from the constants (-alpha, beta).  s_max defaults to
    the contraction threshold -S; asking for more is a domain error since
    the certificate only holds below it.
    """
    if n_iters < 2:
        raise DomainError("n_iters must be at least 2")
    if ds <= 0 or ds > 0.01:
        raise DomainError(f"grid spacing must lie in (0, 0.01], got {ds}")
    consts = _contraction_constants(point.alpha, point.beta, lambda_hat)
    s_thr = consts["s_threshold"]
    if s_max is None:
        s_max = s_thr
    elif s_max > s_thr + 1e-12:
        raise ContractionDomainError(
            f"s_max = {s_max} exceeds the contraction threshold {s_thr}")

    s_lo = min(-30.0, s_max - 10.0)
    n = int(math.ceil((s_max - s_lo) / ds)) + 1
    s = np.linspace(s_lo, s_max, n)
    h = s[1] - s[0]
    e2 = np.exp(2.0 * s)
    e5 = np.exp(5.0 * s)
    e3m = np.exp(-3.0 * s)

    def cumtrapz(w: np.ndarray) -> np.ndarray:
        out = np.empty_like(w)
        out[0] = 0.0
        np.cumsum((w[1:] + w[:-1]) * (0.5 * h), out=out[1:])
        return out

    a, b, lam = point.alpha, point.beta, lambda_hat
    phi = np.full(n, -a)
    psi = np.full(n, b)
    hist = PicardHistory(s_max=float(s_max), s_threshold=s_thr, constants=consts)
    for _ in range(n_iters):
        g_phi = 3.0 * phi * phi + e2 * phi ** 3 + psi * psi + e2 * psi * psi * phi
        g_psi = 2.0 * (2.0 * phi + e2 * phi * phi) * psi + lam * (e2 * psi * psi - 1.0) * psi
        phi_new = -a + (cumtrapz(e2 * g_phi) - e3m * cumtrapz(e5 * g_phi)) / 3.0
        psi_new = b + (cumtrapz(e2 * g_psi) - e3m * cumtrapz(e5 * g_psi)) / 3.0
        hist.diffs.append((float(np.max(np.abs(phi_new - phi))),
                           float(np.max(np.abs(psi_new - psi)))))
        phi, psi = phi_new, psi_new

    t_end = math.exp(float(s_max))
    hist.t_end = t_end
    hist.f_end = float(1.0 + t_end * t_end * phi[-1])
    hist.rho_end = float(t_end * psi[-1])
    return hist
