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
A run starts at min(t0, reach): past its reach no truncation of the
series holds, so a series that does not reach t0 hands over at its reach.
check_t0 holds the handoff radius to [T0_MIN, T0_MAX]; an
integrator.IntegratorControls runs it as it is built.

initial_state evaluates the two-term truncation at t0, the paper's
exact handoff: series_coefficients gives its a4 and b3.  The series
command prints it and the tests check it; no run starts from it.

A sweep task expands its points' series lane-wise (expand_batch), a
fixed chunk of at most shooter._SWEEP_BATCH consecutive grid points at
a time: the one recurrence (_recurrence) runs once on numpy arrays of
alpha and beta, into (order + 1, lanes) arrays, and gives every lane the
scalar coefficients to the bit, at a fraction of the cost per point once
a batch holds ~100 points.  The bits agree because each convolution adds
its products left to right from 0: _dot for numbers, and for lanes
np.add.reduce down the rows from 0.0, a whole row per numpy call.  numpy
adds row by row only while a row holds two lanes or more, so a batch of
one runs as two.

A series carries its span, the piece ends a run reads it at: the
multiples of _PIECE strictly below its reach, then the reach, and its
states there.  No end depends on a run's t0, which check_t0 holds below
_PIECE, and a run's horizon only cuts the list, so integrate_series
alone applies both.  A lone series evaluates its span with state, radius
by radius, and expand_batch every lane's in one lane-wise Horner pass
(_horner), which takes state's operations in state's order, so a lane's
rows are the lone series' to the bit.  Either series holds its rows as a
tuple of tuples from the start, the form a run reads.

picard_verify reruns the same local solution as a fixed-point iteration in
the logarithmic variable s = log t, on the autonomous integral form of the
equations, and reports the sup-norm contraction history.  That gives an
independent certificate that the series agrees with the actual local
solution, together with the contraction threshold -S below which the
Lipschitz bounds guarantee convergence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul

import numpy as np

from .errors import ContractionDomainError, DomainError, HandoffError
from .model import PhaseState, check_lambda_hat

__all__ = [
    "ShootPoint",
    "SeriesCoefficients",
    "OriginSeries",
    "PicardHistory",
    "DEFAULT_T0",
    "T0_MIN",
    "T0_MAX",
    "SERIES_ORDER",
    "series_coefficients",
    "expand_series",
    "expand_batch",
    "check_t0",
    "initial_state",
    "picard_verify",
]

DEFAULT_T0 = 1e-3
T0_MIN = 1e-6
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
# Width of the grid whose multiples end the pieces of a run's series span;
# it exceeds T0_MAX, so no piece end lies below a run's start.
_PIECE = 0.05


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


def _dot(x, y):
    return reduce(add, map(mul, x, y), 0)


def _lane_dot(x, y):
    # _dot of the rows of x and y, lane by lane: numpy adds along axis 0
    # one row at a time, left to right from initial, while a row holds two
    # lanes or more; along a lone lane it would add pairwise
    return np.add.reduce(np.multiply(x, y), axis=0, initial=0.0)


def _recurrence(alpha, beta, lambda_hat, order: int) -> tuple:
    """Coefficients a_0..a_order of f and b_0..b_order of rho/t, in x = t^2.

    With P = A^2 and Q = B^2 the two right-hand sides are A R - A and
    B S - lambda_hat x B for R = P + x^2 Q and S = 2 P + lambda_hat x^2 Q,
    so each new index takes four running convolutions: P, Q, A R and B S.
    For numbers alpha and beta the coefficients are lists, for numpy
    arrays of lanes (order + 1, lanes) arrays; the arithmetic stays within
    the caller's number type.  Each convolution adds its products left to
    right from 0, _dot for numbers and _lane_dot for lanes (a lone lane
    padded to two), which round alike on every Python; sum() compensates
    float sums from Python 3.12 on, but not array sums.
    """
    lanes = len(alpha) if isinstance(alpha, np.ndarray) else None
    if lanes is not None:
        alpha, beta = np.resize(alpha, max(lanes, 2)), np.resize(beta, max(lanes, 2))
        a, b, p, q, r, s = np.zeros((6, order + 1, len(alpha)))
        dot = _lane_dot
    else:
        a, b, p, q, r, s = ([0] * (order + 1) for _ in range(6))
        dot = _dot
    # p[0], r[0] and s[0] enter no convolution
    a[0], a[1], b[0] = 1, -alpha, beta
    p[1] = r[1] = -2 * alpha
    q[0], s[1] = beta * beta, -4 * alpha
    for n in range(1, order + 1):
        if n >= 2:
            p_n = dot(a[1:n], a[n - 1:0:-1])
            a[n] = a_n = (p_n + q[n - 2] + dot(a[1:n], r[n - 1:0:-1])) \
                / (2 * n * (2 * n - 1) - 2)
            p[n] = p_n + 2 * a_n
            r[n] = p[n] + q[n - 2]
            s[n] = 2 * p[n] + lambda_hat * q[n - 2]
        b[n] = (dot(b[:n], s[n:0:-1]) - lambda_hat * b[n - 1]) \
            / ((2 * n + 1) * (2 * n + 2) - 2)
        q[n] = dot(b[:n + 1], b[n::-1])
    return (a, b) if lanes is None else (a[:, :lanes], b[:, :lanes])


def series_coefficients(point: ShootPoint, lambda_hat: float) -> SeriesCoefficients:
    """Next-order series coefficients forced by the field equations.

    a4 = a_2 and b3 = b_1 of the recurrence, which are

        a4 = (3 alpha^2 + beta^2) / 10
        b3 = -beta (4 alpha + lambda_hat) / 10

    The arithmetic stays within the caller's number type, so exact
    rationals pass through unharmed.
    """
    a, b = _recurrence(point.alpha, point.beta, check_lambda_hat(lambda_hat), 2)
    return SeriesCoefficients(a4=a[2], b3=b[1])


class OriginSeries:
    """The origin expansion of one shot to SERIES_ORDER, its reach and its span.

    The four phase components are polynomials in x = t^2, times t for f'
    and rho.  state evaluates them at one radius and table at an array of
    radii, with the same operations in the same order, so both give the
    same bits; component gives one of them as a function of t alone, for
    event bisection.  span gives the piece ends of a run on the series and
    table's rows there, evaluated when it was expanded.  alpha and beta
    are the shot's origin data.
    """

    __slots__ = ("lambda_hat", "alpha", "beta", "reach", "_rows", "_matrix", "_ends",
                 "_table")

    def __init__(self, lambda_hat: float, alpha, beta, matrix: np.ndarray, reach: float,
                 ends: list, table: np.ndarray | None = None):
        self.lambda_hat = lambda_hat
        self.alpha, self.beta = alpha, beta
        self.reach = reach
        # the Horner rows of _horner_rows, and as Python floats for state
        # and component
        self._matrix = matrix
        self._rows = matrix.tolist()
        # the span's ends, and table's rows there as tuples: a lone series
        # (no table) reads them with state, which costs less than a numpy
        # Horner call on so few radii, and a batch lane converts its rows
        # of the batch's Horner pass
        self._ends = tuple(ends)
        self._table = tuple(map(self.state, self._ends) if table is None
                            else map(tuple, table.tolist()))

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
        return _horner(self._matrix[None], np.asarray(ts, dtype=float)[None])[0]

    def span(self) -> tuple[tuple, tuple]:
        """The piece ends of a run on this series, and table's rows there as tuples.

        The ends are the multiples of _PIECE strictly below the reach, then
        the reach.  A series whose coefficients overflow (reach 0) has the
        one end 0, with a row of NaN.
        """
        return self._ends, self._table

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

    def coefficients(self) -> SeriesCoefficients:
        """a4 and b3, as series_coefficients gives them for float alpha and beta."""
        return SeriesCoefficients(a4=self._rows[-3][0], b3=self._rows[-2][2])


def _horner_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(lanes, N + 1, 4) Horner rows, highest order first, of the (N + 1, lanes) a and b.

    f = P_f(x), f' = t P_f'(x), rho = t P_rho(x), rho' = P_rho'(x).
    """
    k = np.arange(len(a), dtype=float)[:, None]
    rows = np.zeros((len(a), 4, a.shape[1]))
    with np.errstate(over="ignore"):  # to inf, as a Python float product goes
        rows[:, 0], rows[:, 2], rows[:, 3] = a, b, (2.0 * k + 1.0) * b
        rows[:-1, 1] = 2.0 * (k[:-1] + 1.0) * a[1:]
    return np.ascontiguousarray(rows[::-1].transpose(2, 0, 1))


def _horner(matrix: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """(lanes, m, 4) states at the (lanes, m) radii ts, from (lanes, N + 1, 4) Horner rows.

    Every lane, radius and component takes the same operations in the same
    order as OriginSeries.state, so a lane's rows are that series' bits.
    The components run outermost, so each operation's inner loop runs
    along a lane's radii.
    """
    x = ts * ts
    rows = matrix.transpose(1, 2, 0)[..., None]  # (N + 1, 4, lanes, 1)
    p = np.zeros((4, *ts.shape))
    for row in rows:
        np.multiply(p, x, out=p)
        np.add(p, row, out=p)
    p[1] *= ts
    p[2] *= ts
    return np.ascontiguousarray(p.transpose(1, 2, 0))


def _reach(a_tail: list, b_tail: list, b0: float, finite: bool) -> float:
    """The reach of a series, from the last _REACH_TAIL coefficients of f and rho / t.

    The reach is the radius where the terms past the last fall below
    _REACH_EPS of the leading ones (1 for f, b0 = beta for rho / t): with
    m the largest n-th root of the last normalised coefficients,
    x_reach = _REACH_EPS^(1/N) / m.  No single coefficient decides it, as
    one can be near zero by accident.  A series with a non-finite
    coefficient (finite is false) has reach 0.  The arguments are Python
    floats, so the powers are libm's for a lane as for a single series.
    """
    n = SERIES_ORDER
    tail = range(n - _REACH_TAIL + 1, n + 1)
    rates = [abs(c) ** (1.0 / k) for c, k in zip(a_tail, tail)]
    if b0 != 0.0:
        rates += [abs(c / b0) ** (1.0 / k) for c, k in zip(b_tail, tail)]
    m = max(rates)
    if not (finite and math.isfinite(m)):
        return 0.0
    if m == 0.0:
        return _REACH_MAX
    return min(math.sqrt(_REACH_EPS ** (1.0 / n) / m), _REACH_MAX)


def expand_series(point: ShootPoint, lambda_hat: float) -> OriginSeries:
    """The origin series of (alpha, beta) to SERIES_ORDER, its reach (_reach) and span."""
    check_lambda_hat(lambda_hat)
    a, b = _recurrence(float(point.alpha), float(point.beta), float(lambda_hat),
                       SERIES_ORDER)
    finite = all(map(math.isfinite, a)) and all(map(math.isfinite, b))
    rows = _horner_rows(np.array(a, dtype=float)[:, None], np.array(b)[:, None])[0]
    reach = _reach(a[-_REACH_TAIL:], b[-_REACH_TAIL:], b[0], finite)
    ends = [s for s in (j * _PIECE for j in range(1, math.ceil(reach / _PIECE) + 1))
            if s < reach] + [reach]
    return OriginSeries(float(lambda_hat), point.alpha, point.beta, rows, reach, ends)


def expand_batch(alphas: list, betas: list, lambda_hat: float) -> list[OriginSeries]:
    """expand_series of each point (alphas[j], betas[j]), to the bit.

    The recurrence runs once, on numpy arrays of alpha and beta, and numpy
    rounds each lane's +, -, * and / as Python rounds a float's, and adds
    its convolutions' products in _dot's order.  One
    lane-wise Horner pass then evaluates every lane's span, padded with
    its reach to the longest lane.
    The values must be those a ShootPoint accepts.
    """
    check_lambda_hat(lambda_hat)
    with np.errstate(all="ignore"):  # a lane that overflows gets reach 0
        a, b = _recurrence(np.array(alphas, dtype=float), np.array(betas, dtype=float),
                           float(lambda_hat), SERIES_ORDER)
    finite = np.isfinite(a).all(axis=0) & np.isfinite(b).all(axis=0)
    reaches = [_reach(a_tail, b_tail, b0, ok) for a_tail, b_tail, b0, ok in zip(
        a[-_REACH_TAIL:].T.tolist(), b[-_REACH_TAIL:].T.tolist(), b[0].tolist(),
        finite.tolist())]
    rows = _horner_rows(a, b)
    grid = np.arange(1, math.ceil(max(reaches) / _PIECE) + 1) * _PIECE
    multiples = np.searchsorted(grid, reaches)  # those below each lane's reach
    n = multiples.max()
    ts = np.minimum(np.append(grid[:n], np.inf), np.array(reaches)[:, None])
    with np.errstate(all="ignore"):  # the lanes that overflow read NaN
        table = _horner(rows, ts)
    return [OriginSeries(float(lambda_hat), alpha, beta, lane, reach, ends[:m + 1],
                         states[:m + 1])
            for alpha, beta, lane, reach, ends, states, m in zip(
                alphas, betas, rows, reaches, ts.tolist(), table, multiples.tolist())]


def check_t0(t0: float) -> None:
    """Refuse a handoff radius t0 outside [T0_MIN, T0_MAX] with HandoffError.

    Beyond T0_MAX the orders that the two-term truncation of
    initial_state neglects are no longer far below integrator tolerance;
    a shot, whose samples begin at t0, keeps the same bound.  Below
    T0_MIN the profile's first sample loses 1 - f = alpha t0^2 to
    rounding: at t0 = 1e-8 f rounds to 1, which fails the monotonicity
    audit of a converged solve, and at 1e-300 the energy density there
    is 0 / 0.  At alpha >= 1/6, T0_MIN keeps 1 - f at 1.7e-13 or more.
    """
    if not (T0_MIN <= t0 <= T0_MAX):
        raise HandoffError(f"t0 must lie in [{T0_MIN}, {T0_MAX}], got {t0}")


def initial_state(point: ShootPoint, lambda_hat: float, t0: float = DEFAULT_T0) -> PhaseState:
    """Evaluate the origin series truncated after a4 and b3 at the radius t0.

    t0 must pass check_t0.
    """
    c = series_coefficients(point, lambda_hat)
    check_t0(t0)
    a, b, t2 = point.alpha, point.beta, t0 * t0
    return PhaseState(t0, 1.0 - a * t2 + c.a4 * t2 * t2,
                      -2.0 * a * t0 + 4.0 * c.a4 * t0 * t2,
                      b * t0 + c.b3 * t0 * t2,
                      b + 3.0 * c.b3 * t2)


@dataclass
class PicardHistory:
    """Contraction record of the fixed-point iteration in s = log t."""

    s_max: float
    s_threshold: float
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


def _contraction_threshold(alpha: float, beta: float, lambda_hat: float) -> float:
    # Dimensionless frame (g0 = rho0 = 1).  K bounds the iterates, the M's
    # bound the Lipschitz constants of the four nonlinear blocks, and the
    # threshold -S is where the largest of them falls below contraction.
    K = max(2.0 * abs(alpha), 2.0 * abs(beta), 3.0)
    lam = lambda_hat
    m1 = 0.5 * (2.0 * (2.0 * K + K * K) + lam * (K * K + 1.0))
    m2 = (6.0 * K + 2.0 * K * K + 2.0 * K * K) / 3.0
    m3 = (8.0 + 3.0 * lam) * K * K + lam
    m4 = 4.0 * K + 6.0 * K * K
    return -0.5 * math.log(max(m1, m2, m3, m4))


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
    # the ratios read 0 by about iteration 10, and 1000 iterations take ~0.6 s
    if n_iters > 1000:
        raise DomainError(f"n_iters must be at most 1000, got {n_iters}")
    if ds <= 0 or ds > 0.01:
        raise DomainError(f"grid spacing must lie in (0, 0.01], got {ds}")
    s_thr = _contraction_threshold(point.alpha, point.beta, check_lambda_hat(lambda_hat))
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
    hist = PicardHistory(s_max=float(s_max), s_threshold=s_thr)
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
