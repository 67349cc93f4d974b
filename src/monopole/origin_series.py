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

initial_state evaluates the two-term truncation at t0.  A shot reads it
off the order-24 series it runs on (OriginSeries.initial_state, with the
same a4 and b3), so one recurrence serves both: the truncation decides
the immediate turn of shooter.shoot, and starts the run as before when
the reach does not lie beyond t0.

A sweep expands its points' series lane-wise (expand_batch): the same
recurrence runs once on numpy arrays of alpha and beta, and gives every
lane the scalar coefficients to the bit, at a fraction of the cost per
point once a batch holds ~100 points.  The bits agree because the
recurrence adds its products left to right (_dot), as numpy adds lanes.

A run reads its series span at the piece ends OriginSeries.span gives:
t0, the multiples of _PIECE below min(reach, t_max), then that radius.
A lone series evaluates them with table; a sweep batch evaluates every
lane's in one lane-wise Horner pass (SeriesBatch.read_spans), and each
item of the batch carries its rows for that t0 and t_max only.  Both
run the one Horner loop (_horner), so a lane's rows are the lone
series' to the bit.

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
from functools import reduce
from operator import add, mul

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
    "expand_batch",
    "SeriesBatch",
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
# Width of the grid whose multiples end the pieces of a run's series span.
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


def _recurrence(alpha, beta, lambda_hat, order: int) -> tuple[list, list]:
    """Coefficients a_0..a_order of f and b_0..b_order of rho/t, in x = t^2.

    With P = A^2 and Q = B^2 the two right-hand sides are A R - A and
    B S - lambda_hat x B for R = P + x^2 Q and S = 2 P + lambda_hat x^2 Q,
    so each new index takes four running convolutions: P, Q, A R and B S.
    The arithmetic stays within the caller's number type.  Each
    convolution adds its products left to right from 0 (_dot), which
    rounds alike for floats and for numpy lanes on every Python; sum()
    compensates float sums from Python 3.12 on, but not array sums.
    """
    a, b = [1, -alpha], [beta]
    p, q = [1, -2 * alpha], [beta * beta]
    r, s = p[:], [2, -4 * alpha]
    for n in range(1, order + 1):
        if n >= 2:
            p_n = _dot(a[1:n], a[n - 1:0:-1])
            a_n = (p_n + q[n - 2] + _dot(a[1:n], r[n - 1:0:-1])) \
                / (2 * n * (2 * n - 1) - 2)
            a.append(a_n)
            p.append(p_n + 2 * a_n)
            r.append(p[n] + q[n - 2])
            s.append(2 * p[n] + lambda_hat * q[n - 2])
        b.append((_dot(b, s[n:0:-1]) - lambda_hat * b[n - 1])
                 / ((2 * n + 1) * (2 * n + 2) - 2))
        q.append(_dot(b, b[::-1]))
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
    event bisection.  alpha and beta are the shot's origin data.
    """

    __slots__ = ("lambda_hat", "alpha", "beta", "reach", "_rows", "_matrix", "_span")

    def __init__(self, lambda_hat: float, alpha, beta, matrix: np.ndarray, reach: float,
                 span: tuple | None = None):
        self.lambda_hat = lambda_hat
        self.alpha, self.beta = alpha, beta
        self.reach = reach
        # the Horner rows of _horner_rows, and as Python floats for state
        # and component
        self._matrix = matrix
        self._rows = matrix.tolist()
        # (t0, t_max, radii, multiples, table) of this lane of a SeriesBatch
        # read by read_spans: see span
        self._span = span

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

    def span(self, t0: float, t_max: float) -> tuple[list, list]:
        """The piece ends of a run's series span from t0, and its states there.

        The ends are the multiples of _PIECE in (t0, min(reach, t_max)),
        then that radius; the states, as tuples, are those at t0 and at
        each end.  They are table's rows, read from the batch's table when
        this series came from a SeriesBatch read for the same t0 and
        t_max, and computed here otherwise.
        """
        if self._span is not None and self._span[:2] == (t0, t_max):
            _, _, ts, n, table = self._span
            return ts[1:n + 2].tolist(), list(map(tuple, table[:n + 2].tolist()))
        t_end = min(self.reach, t_max)
        ends = [s for s in (j * _PIECE for j in range(1, math.ceil(t_end / _PIECE) + 1))
                if t0 < s < t_end]
        ends.append(t_end)
        return ends, list(map(tuple, self.table([t0, *ends]).tolist()))

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

    def truncation(self, t0: float) -> tuple[float, float, float, float]:
        """The state of initial_state, which need not be finite, as a tuple."""
        c = self.coefficients()
        return _truncation(self.alpha, self.beta, c.a4, c.b3, t0)

    def initial_state(self, t0: float) -> PhaseState:
        """initial_state of (alpha, beta), with a4 and b3 read off this series."""
        return PhaseState(t0, *self.truncation(t0))


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


def _check_lambda(lambda_hat) -> None:
    if not (math.isfinite(lambda_hat) and lambda_hat >= 0):
        raise DomainError(f"lambda_hat must be finite and >= 0, got {lambda_hat}")


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
    """The origin series of (alpha, beta) to SERIES_ORDER, with its reach (see _reach)."""
    _check_lambda(lambda_hat)
    a, b = _recurrence(float(point.alpha), float(point.beta), float(lambda_hat),
                       SERIES_ORDER)
    finite = all(map(math.isfinite, a)) and all(map(math.isfinite, b))
    rows = _horner_rows(np.array(a, dtype=float)[:, None], np.array(b)[:, None])[0]
    return OriginSeries(float(lambda_hat), point.alpha, point.beta, rows,
                        _reach(a[-_REACH_TAIL:], b[-_REACH_TAIL:], b[0], finite))


def expand_batch(alphas: list, betas: list, lambda_hat: float) -> "SeriesBatch":
    """expand_series of each point (alphas[j], betas[j]), to the bit, as a SeriesBatch.

    The recurrence runs once, on numpy arrays of alpha and beta, and numpy
    rounds each lane's +, -, * and / as Python rounds a float's.  The
    values must be those a ShootPoint accepts.
    """
    _check_lambda(lambda_hat)
    with np.errstate(all="ignore"):  # a lane that overflows gets reach 0
        a, b = _recurrence(np.array(alphas, dtype=float), np.array(betas, dtype=float),
                           float(lambda_hat), SERIES_ORDER)
    a[0] = np.ones(len(alphas))
    a, b = np.array(a), np.array(b)
    finite = np.isfinite(a).all(axis=0) & np.isfinite(b).all(axis=0)
    reaches = [_reach(a_tail, b_tail, b0, ok) for a_tail, b_tail, b0, ok in zip(
        a[-_REACH_TAIL:].T.tolist(), b[-_REACH_TAIL:].T.tolist(), b[0].tolist(),
        finite.tolist())]
    return SeriesBatch(float(lambda_hat), list(alphas), list(betas), _horner_rows(a, b),
                       reaches)


class SeriesBatch:
    """The origin series of many points, from one lane-wise expansion.

    Item j is the OriginSeries of (alphas[j], betas[j]), built when it is
    read; a slice is the SeriesBatch of those lanes, and pickles with
    only their coefficients and span tables.
    """

    __slots__ = ("lambda_hat", "alphas", "betas", "reaches", "_rows", "_span")

    def __init__(self, lambda_hat: float, alphas: list, betas: list, rows: np.ndarray,
                 reaches: list, span: tuple | None = None):
        self.lambda_hat = lambda_hat
        self.alphas, self.betas = alphas, betas
        self.reaches = reaches
        self._rows = rows  # (lanes, SERIES_ORDER + 1, 4), as _horner_rows gives
        # (t0, t_max, radii, multiples, table) of read_spans, lane-major
        self._span = span

    def __len__(self) -> int:
        return len(self.alphas)

    def __getitem__(self, j):
        cls = SeriesBatch if isinstance(j, slice) else OriginSeries
        span = None if self._span is None else (
            *self._span[:2], *(v[j] for v in self._span[2:]))
        return cls(self.lambda_hat, self.alphas[j], self.betas[j], self._rows[j],
                   self.reaches[j], span)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def read_spans(self, t0: float, t_max: float) -> "SeriesBatch":
        """This batch, with every lane's series span of a run from t0 to t_max.

        One lane-wise Horner pass evaluates each lane at t0, at the
        multiples of _PIECE below min(reach, t_max) and at that radius,
        padded with that radius to the longest lane.  An item then gives
        OriginSeries.span its rows for this t0 and t_max only.  A lane
        whose span is empty (reach 0 where its coefficients overflow) is
        evaluated too, and never read.
        """
        t_ends = np.minimum(self.reaches, t_max)
        grid = np.arange(1, math.ceil(t_ends.max() / _PIECE) + 1) * _PIECE
        grid = grid[grid > t0]
        multiples = np.searchsorted(grid, t_ends)  # those below each lane's end
        n = multiples.max()
        ts = np.empty((len(t_ends), n + 2))
        ts[:, 0] = t0
        np.minimum(np.append(grid[:n], np.inf), t_ends[:, None], out=ts[:, 1:])
        with np.errstate(all="ignore"):  # the lanes with an empty span
            table = _horner(self._rows, ts)
        return SeriesBatch(self.lambda_hat, self.alphas, self.betas, self._rows,
                           self.reaches, (t0, t_max, ts, multiples.tolist(), table))


def initial_state(point: ShootPoint, lambda_hat: float, t0: float = DEFAULT_T0) -> PhaseState:
    """Evaluate the origin series truncated after a4 and b3 at the radius t0.

    t0 must lie in (0, T0_MAX]; beyond that the neglected orders are no
    longer far below integrator tolerance.
    """
    c = series_coefficients(point, lambda_hat)
    return PhaseState(t0, *_truncation(point.alpha, point.beta, c.a4, c.b3, t0))


def _truncation(a, b, a4, b3, t0: float) -> tuple:
    if not (0.0 < t0 <= T0_MAX):
        raise HandoffError(f"t0 must lie in (0, {T0_MAX}], got {t0}")
    t2 = t0 * t0
    return (1.0 - a * t2 + a4 * t2 * t2,
            -2.0 * a * t0 + 4.0 * a4 * t0 * t2,
            b * t0 + b3 * t0 * t2,
            b + 3.0 * b3 * t2)


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
