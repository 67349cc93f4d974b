"""Field equations, scaling, and the exact lambda = 0 reference solution.

The physical radial system for the gauge profile f(r) and Higgs profile
rho(r) is

    f'' = f (f^2 - 1) / r^2 + g0^2 rho^2 f
    rho'' = -(2/r) rho' + 2 f^2 rho / r^2 + lam (rho^2 - rho0^2) rho

with boundary conditions f(0) = 1, rho(0) = 0, f -> 0, rho -> rho0.
Rescaling t = g0 rho0 r and rho_hat = rho / rho0 removes g0 and rho0 and
leaves the single dimensionless coupling lambda_hat = lam / g0^2.  All
numerics in this package run in the rescaled frame; this module owns the
mapping in and out of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SingularPointError

__all__ = [
    "ModelParams",
    "ScaledParams",
    "PhaseState",
    "check_lambda_hat",
    "nondimensionalize",
    "rhs",
    "ps_exact",
    "energy_density",
]


def check_lambda_hat(lambda_hat):
    """The coupling as given, a Fraction too, if finite and >= 0, else DomainError."""
    if not (math.isfinite(lambda_hat) and lambda_hat >= 0):
        raise DomainError(f"lambda_hat must be finite and >= 0, got {lambda_hat}")
    return lambda_hat


@dataclass(frozen=True)
class ModelParams:
    """Physical couplings: quartic lam >= 0, gauge coupling g0 > 0, vev rho0 > 0."""

    lam: float
    g0: float
    rho0: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise DomainError(f"lam must be finite and >= 0, got {self.lam}")
        if not (math.isfinite(self.g0) and self.g0 > 0.0):
            raise DomainError(f"g0 must be finite and > 0, got {self.g0}")
        if not (math.isfinite(self.rho0) and self.rho0 > 0.0):
            raise DomainError(f"rho0 must be finite and > 0, got {self.rho0}")


@dataclass(frozen=True)
class ScaledParams:
    """Dimensionless frame: lambda_hat = lam/g0^2, r = r_scale * t, rho = rho_scale * rho_hat."""

    lambda_hat: float
    r_scale: float
    rho_scale: float

    def __post_init__(self):
        check_lambda_hat(self.lambda_hat)
        if not (self.r_scale > 0.0 and self.rho_scale > 0.0):
            raise DomainError("scales must be positive")

    def alpha_to_physical(self, alpha_hat: float) -> float:
        """Map the dimensionless quadratic gauge coefficient to the physical one."""
        s = 1.0 / self.r_scale
        return alpha_hat * s * s

    def beta_to_physical(self, beta_hat: float) -> float:
        """Map the dimensionless linear Higgs coefficient to the physical one."""
        return beta_hat * self.rho_scale / self.r_scale


@dataclass(frozen=True)
class PhaseState:
    """Phase point (t, f, f', rho_hat, rho_hat') of the first-order system."""

    t: float
    f: float
    fp: float
    rho: float
    rhop: float

    def __post_init__(self):
        for name in ("t", "f", "fp", "rho", "rhop"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"PhaseState.{name} must be finite")
        if self.t <= 0.0:
            raise DomainError(f"PhaseState.t must be positive, got {self.t}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.f, self.fp, self.rho, self.rhop)

    @property
    def asymptote(self) -> float:
        """The extrapolated Higgs asymptote b = rho + t rho' (see integrator.in_tube)."""
        return self.rho + self.t * self.rhop


def nondimensionalize(params: ModelParams) -> ScaledParams:
    """Rescale (lam, g0, rho0) to the one-parameter dimensionless frame."""
    return ScaledParams(
        lambda_hat=params.lam / (params.g0 * params.g0),
        r_scale=1.0 / (params.g0 * params.rho0),
        rho_scale=params.rho0,
    )


def _rhs(t: float, f: float, fp: float, rho: float, rhop: float,
         lambda_hat: float) -> tuple[float, float, float, float]:
    # Hot path: called ~10^6 times per solve, keep it scalar and branch-free.
    t2 = t * t
    ff = f * f
    fpp = f * ((ff - 1.0) / t2 + rho * rho)
    rpp = -2.0 * rhop / t + 2.0 * ff * rho / t2 + lambda_hat * (rho * rho - 1.0) * rho
    return fp, fpp, rhop, rpp


def rhs(t: float, state: PhaseState, lambda_hat: float) -> tuple[float, float, float, float]:
    """Derivative (f', f'', rho_hat', rho_hat'') of the dimensionless system.

    Raises SingularPointError at t <= 0 where the centrifugal terms blow up.
    """
    if t <= 0.0:
        raise SingularPointError(f"rhs is singular at t = {t}")
    check_lambda_hat(lambda_hat)
    return _rhs(t, state.f, state.fp, state.rho, state.rhop, lambda_hat)


# Closed form at lambda_hat = 0: f = t/sinh t, rho_hat = coth t - 1/t.
# Below this switchover the direct formulas lose digits to cancellation,
# so truncated power series (error < 1e-15 at t = 0.05) take over.
_PS_SWITCH = 0.05


def ps_exact(t: float) -> PhaseState:
    """Exact lambda_hat = 0 profile and its first derivatives at radius t > 0."""
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"ps_exact requires t > 0, got {t}")
    if t < _PS_SWITCH:
        t2 = t * t
        f = 1.0 + t2 * (-1.0 / 6.0 + t2 * (7.0 / 360.0 + t2 * (-31.0 / 15120.0 + t2 * (127.0 / 604800.0))))
        fp = t * (-1.0 / 3.0 + t2 * (7.0 / 90.0 + t2 * (-31.0 / 2520.0 + t2 * (127.0 / 75600.0))))
        rho = t * (1.0 / 3.0 + t2 * (-1.0 / 45.0 + t2 * (2.0 / 945.0 + t2 * (-1.0 / 4725.0))))
        rhop = 1.0 / 3.0 + t2 * (-1.0 / 15.0 + t2 * (2.0 / 189.0 + t2 * (-1.0 / 675.0)))
        return PhaseState(t=t, f=f, fp=fp, rho=rho, rhop=rhop)
    sh = math.sinh(t)
    ch = math.cosh(t)
    csch = 1.0 / sh
    coth = ch / sh
    f = t * csch
    fp = csch * (1.0 - t * coth)
    rho = coth - 1.0 / t
    rhop = 1.0 / (t * t) - csch * csch
    return PhaseState(t=t, f=f, fp=fp, rho=rho, rhop=rhop)


def energy_density(state: PhaseState, lambda_hat: float) -> float:
    """Radial energy density in the dimensionless frame.

    Integrating this over t in (0, inf) gives the mass in units of
    4 pi rho0 / g0; the lambda_hat = 0 profile integrates to exactly 1.
    """
    check_lambda_hat(lambda_hat)
    return _energy_density(state.t, state.f, state.fp, state.rho, state.rhop,
                           lambda_hat)


def _energy_density(t, f, fp, rho, rhop, lambda_hat):
    # Unchecked form of energy_density; takes floats or numpy arrays, so
    # the mass quadrature evaluates it on whole sample grids.
    t2 = t * t
    f2m1 = f * f - 1.0
    r2m1 = rho * rho - 1.0
    return (fp * fp + f2m1 * f2m1 / (2.0 * t2) + f * f * rho * rho
            + (t * rhop) ** 2 / 2.0 + 0.25 * lambda_hat * (t * r2m1) ** 2)
