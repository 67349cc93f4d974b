"""Series expansion at the regular singular point t = 0 and its Picard certificate.

Regular solutions leave the origin as

    f(t)       = 1 - alpha t^2 + a4 t^4 + O(t^6)
    rho_hat(t) = beta t + b3 t^3 + O(t^5)

with a4 and b3 fixed by the field equations once (alpha, beta) are chosen.
initial_state evaluates the truncated series at a small handoff radius t0,
which is where the adaptive integrator takes over.

picard_verify reruns the same local solution as a fixed-point iteration in
the logarithmic variable s = log t, on the autonomous integral form of the
equations, and reports the sup-norm contraction history.  That gives an
independent certificate that the series handoff agrees with the actual
local solution, together with the contraction constants that guarantee
convergence on s <= -S.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractionDomainError, DomainError, HandoffError
from .model import PhaseState

__all__ = [
    "ShootPoint",
    "SeriesCoefficients",
    "PicardHistory",
    "DEFAULT_T0",
    "T0_MAX",
    "series_coefficients",
    "initial_state",
    "picard_verify",
]

DEFAULT_T0 = 1e-3
T0_MAX = 1e-2


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


def series_coefficients(point: ShootPoint, lambda_hat: float) -> SeriesCoefficients:
    """Next-order series coefficients forced by the field equations.

    Substituting the ansatz into the equations and matching the lowest
    surviving powers gives

        a4 = (3 alpha^2 + beta^2) / 10
        b3 = -beta (4 alpha + lambda_hat) / 10

    The arithmetic stays within the caller's number type, so exact
    rationals pass through unharmed.
    """
    if lambda_hat < 0:
        raise DomainError(f"lambda_hat must be >= 0, got {lambda_hat}")
    a, b = point.alpha, point.beta
    a4 = (3 * a * a + b * b) / 10
    b3 = -b * (4 * a + lambda_hat) / 10
    return SeriesCoefficients(a4=a4, b3=b3)


def initial_state(point: ShootPoint, lambda_hat: float, t0: float = DEFAULT_T0) -> PhaseState:
    """Evaluate the truncated origin series at the handoff radius t0.

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
