"""Solved monopole profiles and their diagnostics.

A solved run is trusted up to its graft radius, where its far-field
decay fits are still clean; graft_tail continues it past there on the
fitted far-field model, as a GraftedProfile.  The diagnostics read that
profile (or plain sample arrays): independent finite-difference
residuals of the field equations, range/monotonicity audits, the mass
integral, and the l = 1 angular fluctuation probe.  Nothing here feeds
back into the shooting loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AuditDomainError, DomainError, FitDomainError,
                     SturmDomainError)
from .integrator import Trajectory
from .model import PhaseState, _energy_density

__all__ = [
    "DecayFit",
    "GraftedProfile",
    "AuditReport",
    "ProbeResult",
    "fit_decay",
    "far_field",
    "stable_fit_horizon",
    "graft_tail",
    "monotonicity_audit",
    "residual_norm",
    "mass_integral",
    "linearized_probe",
]

# Width of the window the far-field fits of a solved profile use.
FIT_SPAN = 2.0
# How far the reported profile runs past t_graft on its fitted far field.
REPORT_TAIL = 8.0
# Radii per block wherever a sample grid is walked (residual_norm, the
# CLI's profile writer): memory holds a few blocks, not the whole grid.
BLOCK = 4096


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit of a far-field decay law.

    The fitted model is amplitude * prefactor(t) * e^{-rate t}, where the
    prefactor ("1", "t", or "1/t") was divided out before taking logs.
    """

    rate: float
    amplitude: float
    prefactor: str
    window: tuple[float, float]
    max_log_residual: float


def fit_decay(traj: Trajectory, window, component: str) -> DecayFit:
    """Fit the decay of one field component of a run over a radial window.

    component "f" fits log f against t (log(f / t) when lambda_hat = 0,
    where the gauge tail carries a linear prefactor); "one_minus_rho"
    fits log((1 - rho) t), the Higgs gap with its 1/t prefactor removed.
    The 201 evenly spaced samples must be strictly positive.

    The line is the least-squares one in closed form, centred on the
    window's mean radius, from elementwise ufuncs and np.sum only, with
    no BLAS or LAPACK call: a process's first LAPACK least-squares solve
    faults in ~1 MB of OpenBLAS pages and workspace, and its last digits
    follow the machine's LAPACK build.  It matches that solve's line to
    ~1e-14 relative.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (traj.ts[0] <= lo < hi <= traj.t_end):
        raise FitDomainError(
            f"fit window [{lo}, {hi}] outside trajectory range "
            f"[{traj.ts[0]}, {traj.t_end}]")
    ts = np.linspace(lo, hi, 201)
    cols = traj.resample(ts)
    lam = traj.lambda_hat
    if component == "f":
        vals = cols[:, 0]
        prefactor = "1"
        if lam == 0.0:
            vals = vals / ts
            prefactor = "t"
    elif component == "one_minus_rho":
        vals = (1.0 - cols[:, 2]) * ts
        prefactor = "1/t"
    else:
        raise DomainError(f"unknown fit component {component!r}")
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        raise FitDomainError(
            f"{component} samples not strictly positive on [{lo}, {hi}]")
    y = np.log(vals)
    t_mean, y_mean = ts.mean(), y.mean()
    dt = ts - t_mean
    slope = np.sum(dt * (y - y_mean)) / np.sum(dt * dt)
    intercept = y_mean - slope * t_mean
    resid = y - (slope * ts + intercept)
    return DecayFit(rate=-float(slope), amplitude=float(math.exp(intercept)),
                    prefactor=prefactor, window=(lo, hi),
                    max_log_residual=float(np.max(np.abs(resid))))


def far_field(t, f_fit: DecayFit, higgs_fit: DecayFit, lambda_hat: float):
    """Far-field model (f, f', rho, rho') at radius t, a float or an array.

    Puts back the prefactors fit_decay divided out: the gauge field is
    A e^{-k t} (A t e^{-k t} when lambda_hat = 0) and the Higgs gap
    1 - rho is B e^{-k t} / t (the Coulomb gap B / t when lambda_hat = 0).
    """
    kf, af = f_fit.rate, f_fit.amplitude
    kh, bh = higgs_fit.rate, higgs_fit.amplitude
    ef = af * np.exp(-kf * t)
    if lambda_hat == 0.0:
        return ef * t, ef * (1.0 - kf * t), 1.0 - bh / t, bh / (t * t)
    gap = bh * np.exp(-kh * t) / t
    return ef, -kf * ef, 1.0 - gap, gap * (kh + 1.0 / t)


def stable_fit_horizon(traj: Trajectory) -> tuple[float, DecayFit, DecayFit]:
    """Largest radius at which both far-field fits are still clean, and the fits.

    Near the end of a separatrix run the samples are dominated by the
    exponentially amplified deviation (e^t in the gauge channel,
    e^{sqrt(2 lambda_hat) t} in the Higgs channel), which bends the
    log-linear fits.  Back off from the end in half-unit steps until the
    fits over the last FIT_SPAN have log residuals below 0.05 and rates
    of physical sign.  Returns that radius with the gauge and Higgs fits
    over the FIT_SPAN below it.  When nothing qualifies, the floor t = 6
    is returned with its fits; a run too short to reach the floor raises
    DomainError, and fit_decay's FitDomainError passes through.
    """
    floor, step, residual_cap = 6.0, 0.5, 0.05
    t_hi = min(traj.t_end, traj.controls.t_max)
    lam = traj.lambda_hat
    while t_hi >= floor:
        window = (t_hi - FIT_SPAN, t_hi)
        try:
            h_fit = fit_decay(traj, window, "one_minus_rho")
            f_fit = fit_decay(traj, window, "f")
        except FitDomainError:
            t_hi -= step
            continue
        h_ok = h_fit.max_log_residual < residual_cap and (
            lam == 0.0 or h_fit.rate > 0.0)
        f_ok = f_fit.max_log_residual < residual_cap and f_fit.rate > 0.0
        if h_ok and f_ok:
            return t_hi, f_fit, h_fit
        t_hi -= step
    if not (traj.ts[0] + FIT_SPAN < floor <= traj.t_end):
        raise DomainError(f"t_graft = {floor} outside usable range")
    window = (floor - FIT_SPAN, floor)
    return floor, fit_decay(traj, window, "f"), fit_decay(traj, window, "one_minus_rho")


@dataclass(frozen=True)
class GraftedProfile:
    """Numerical profile up to t_graft continued by its fitted far field.

    Beyond t_graft the fields follow far_field, with rates and amplitudes
    fitted on [t_graft - FIT_SPAN, t_graft]; mismatch_f and mismatch_rho
    are how far that model lies from the run at t_graft.
    """

    base: Trajectory
    t_graft: float
    t_report: float
    f_fit: DecayFit
    higgs_fit: DecayFit
    mismatch_f: float
    mismatch_rho: float

    def tail_state(self, t: float) -> PhaseState:
        return PhaseState(t, *far_field(t, self.f_fit, self.higgs_fit,
                                        self.base.lambda_hat))

    def state_at(self, t: float) -> PhaseState:
        if t > self.t_graft:
            return self.tail_state(t)
        return self.base.state_at(t)

    def table(self, ts) -> np.ndarray:
        """state_at at every radius of ts, in one batch.

        Returns an (n, 4) array of (f, f', rho, rho') rows aligned with ts.
        """
        ts = np.asarray(ts, dtype=float)
        rows = np.empty((len(ts), 4))
        core = ts <= self.t_graft
        rows[core] = self.base.resample(ts[core])
        rows[~core] = np.column_stack(far_field(
            ts[~core], self.f_fit, self.higgs_fit, self.base.lambda_hat))
        return rows


def graft_tail(traj: Trajectory) -> GraftedProfile:
    """Fit the far-field decay laws and continue the profile analytically.

    t_graft is the largest radius at which both log fits are still clean
    (stable_fit_horizon); near the separatrix the late samples are
    dominated by the amplified unstable mode and carry no signal.  The
    reported profile runs REPORT_TAIL past t_graft.
    """
    t_graft, f_fit, h_fit = stable_fit_horizon(traj)
    at = traj.state_at(t_graft)
    model = PhaseState(t_graft, *far_field(t_graft, f_fit, h_fit, traj.lambda_hat))
    return GraftedProfile(base=traj, t_graft=t_graft, t_report=t_graft + REPORT_TAIL,
                          f_fit=f_fit, higgs_fit=h_fit,
                          mismatch_f=abs(model.f - at.f),
                          mismatch_rho=abs(model.rho - at.rho))


@dataclass
class AuditReport:
    """Range and monotonicity verdicts with their worst-case margins."""

    f_in_01: bool
    fp_negative: bool
    rho_in_01: bool
    rhop_positive: bool
    worst_margins: dict
    window: tuple[float, float]

    @property
    def passes(self) -> bool:
        return (self.f_in_01 and self.fp_negative
                and self.rho_in_01 and self.rhop_positive)


def monotonicity_audit(profile) -> AuditReport:
    """Check 0 < f < 1, f' < 0, 0 < rho < 1, rho' > 0 on a fine grid.

    Accepts a plain sample table (ts, f, fp, rho, rhop) or a
    GraftedProfile, whose run is resampled through its dense output at
    spacing 5e-3 or finer from its first sample to t_graft.  A run that
    ended in an out-of-tube event or a blowup is not a solution candidate
    and is rejected with AuditDomainError rather than graded.
    """
    if isinstance(profile, tuple):
        ts, fs, fps, rhos, rhops = (np.asarray(c, dtype=float) for c in profile)
        window = (float(ts[0]), float(ts[-1]))
    else:
        traj, hi = profile.base, profile.t_graft
        if traj.ended == "blowup" or any(not ev.in_tube for ev in traj.f_events):
            raise AuditDomainError(
                "trajectory ended in a failure event, not a solution candidate")
        lo = traj.ts[0]
        if not (lo < hi <= traj.t_end):
            raise AuditDomainError(
                f"audit window [{lo}, {hi}] outside trajectory range")
        n = max(int(math.ceil((hi - lo) / 5e-3)) + 1, 2)
        ts = np.linspace(lo, hi, n)
        cols = traj.resample(ts)
        fs, fps, rhos, rhops = cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3]
        window = (lo, hi)
    margins = {
        "f_min": float(np.min(fs)),
        "one_minus_f_min": float(np.min(1.0 - fs)),
        "minus_fp_min": float(np.min(-fps)),
        "rho_min": float(np.min(rhos)),
        "one_minus_rho_min": float(np.min(1.0 - rhos)),
        "rhop_min": float(np.min(rhops)),
    }
    return AuditReport(
        f_in_01=margins["f_min"] > 0.0 and margins["one_minus_f_min"] > 0.0,
        fp_negative=margins["minus_fp_min"] > 0.0,
        rho_in_01=margins["rho_min"] > 0.0 and margins["one_minus_rho_min"] > 0.0,
        rhop_positive=margins["rhop_min"] > 0.0,
        worst_margins=margins, window=window)


def residual_norm(profile, lambda_hat: float | None = None) -> float:
    """Sup-norm of the field equations under central second differences.

    Only sampled values of (t, f, rho) enter; all derivatives are formed
    by O(h^2) finite differences, so the figure cross-checks the
    integrator instead of restating its own right-hand side.  Accepts a
    GraftedProfile at its run's lambda_hat (resampled at spacing 2.5e-4
    from t = 0.05, or from its first sample if later, to t_graft) or raw
    uniformly spaced arrays (ts, f, rho), which require lambda_hat.
    Either grid is walked in blocks of BLOCK radii, a GraftedProfile's
    resampled one block at a time, so memory does not grow with the
    grid; the maximum is the one the whole grid gives, bit for bit.
    """
    if isinstance(profile, tuple):
        ts, fs, rhos = (np.asarray(c, dtype=float) for c in profile)
        if lambda_hat is None:
            raise DomainError("lambda_hat is required with raw samples")
        n = len(ts)
        if n < 5:
            raise DomainError("need at least 5 samples for second differences")
        h = float(ts[1] - ts[0])
        if h <= 0.0:
            raise DomainError("raw samples must be uniformly spaced")
        blocks = ((ts[i:j], fs[i:j], rhos[i:j]) for i, j in _spans(n))
        return _residual_sup(blocks, h, float(lambda_hat))
    traj, hi = profile.base, profile.t_graft
    # The sup sits at the left edge, dominated by the O(h^2) truncation
    # of the 2 rho'/t term (rho''' ~ 6 b3 there), so the spacing sets
    # the figure, not the solver.  A quarter millistep keeps it well
    # under 1e-6 even at lambda_hat ~ 1 couplings while staying far
    # above the dense-output noise floor.
    h = 2.5e-4
    lo = max(0.05, traj.ts[0])
    if not (lo < hi <= traj.t_end):
        raise DomainError(f"residual window [{lo}, {hi}] outside trajectory")
    n = int(math.floor((hi - lo) / h)) + 1
    if n < 5:
        raise DomainError("need at least 5 samples for second differences")
    blocks = ((ts, cols[:, 0], cols[:, 2]) for ts in _grid_blocks(lo, h, n)
              for cols in (traj.resample(ts),))
    return _residual_sup(blocks, h, traj.lambda_hat)


def _spans(n: int):
    """(start, stop) of the blocks of at most BLOCK indices that cover range(n)."""
    for i in range(0, n, BLOCK):
        yield i, min(i + BLOCK, n)


def _grid_blocks(lo: float, h: float, n: int):
    """The radii lo + h k, k < n, of a uniform grid, in blocks of at most BLOCK.

    Each radius has the bits it has in lo + h * np.arange(n).
    """
    for i, j in _spans(n):
        yield lo + h * np.arange(i, j)


def _residual_sup(blocks, h: float, lam: float) -> float:
    """residual_norm's sup over one uniform grid, given as (ts, f, rho) blocks.

    The last two samples of each block are put in front of the next, so
    every interior sample is differenced once, with the neighbours it has
    in the whole grid.  Samples must lie h apart, to 1e-9 h.
    """
    sup_f, sup_r = [], []
    carry = None
    h2 = h * h
    for ts, fs, rhos in blocks:
        if carry is not None:
            ts, fs, rhos = (np.concatenate(pair) for pair in zip(carry, (ts, fs, rhos)))
        if np.max(np.abs(np.diff(ts) - h)) > 1e-9 * h:
            raise DomainError("raw samples must be uniformly spaced")
        t, f, r = ts[1:-1], fs[1:-1], rhos[1:-1]
        fpp = (fs[2:] - 2.0 * fs[1:-1] + fs[:-2]) / h2
        rpp = (rhos[2:] - 2.0 * rhos[1:-1] + rhos[:-2]) / h2
        rp = (rhos[2:] - rhos[:-2]) / (2.0 * h)
        res_f = fpp - f * (f * f - 1.0) / (t * t) - r * r * f
        res_r = rpp + 2.0 * rp / t - 2.0 * f * f * r / (t * t) - lam * (r * r - 1.0) * r
        sup_f.append(np.max(np.abs(res_f)))
        sup_r.append(np.max(np.abs(res_r)))
        carry = ts[-2:], fs[-2:], rhos[-2:]
    # np.max of the block maxima keeps a NaN, as np.max of the whole would
    return float(max(np.max(sup_f), np.max(sup_r)))


def _simpson(y, h: float) -> float:
    if len(y) % 2 == 0:
        raise DomainError("Simpson rule needs an odd sample count")
    return h / 3.0 * float(y[0] + y[-1]
                           + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2]))


def _odd_grid(lo: float, hi: float, target_h: float):
    n_int = max(int(math.ceil((hi - lo) / target_h)), 2)
    if n_int % 2:
        n_int += 1
    return np.linspace(lo, hi, n_int + 1), (hi - lo) / n_int


def mass_integral(grafted: GraftedProfile) -> float:
    """Dimensionless monopole mass: the energy density integrated outward.

    Simpson quadrature at spacing 2e-3 on the dense numerical profile up
    to the graft radius, then at spacing 5e-2 on the fitted tail model up
    to t_far = 400; beyond t_far the surviving Coulomb-like densities are added
    in closed form, (1 - f^2)^2 / (2 t^2) -> 1 / (2 t^2) plus, at
    lambda_hat = 0 only, B^2 / (2 t^2) from the power-law Higgs gradient.
    The region below the handoff radius contributes its series value
    c2 t0^3 / 3.
    """
    traj = grafted.base
    lam = traj.lambda_hat
    tg = grafted.t_graft
    t_far = 400.0
    if t_far <= tg:
        raise DomainError(f"t_far = {t_far} must exceed t_graft = {tg}")
    t0 = traj.ts[0]

    alpha = traj.alpha if traj.alpha is not None else 0.0
    beta = traj.beta if traj.beta is not None else 0.0
    head = (6.0 * alpha * alpha + 1.5 * beta * beta + 0.25 * lam) * t0 ** 3 / 3.0

    ts, h = _odd_grid(t0, tg, 2e-3)
    cols = traj.resample(ts)
    core = _simpson(_energy_density(ts, cols[:, 0], cols[:, 1], cols[:, 2],
                                    cols[:, 3], lam), h)

    ts, h = _odd_grid(tg, t_far, 5e-2)
    fs, fps, rhos, rhops = far_field(ts, grafted.f_fit, grafted.higgs_fit, lam)
    tail = _simpson(_energy_density(ts, fs, fps, rhos, rhops, lam), h)

    bh = grafted.higgs_fit.amplitude
    remainder = (1.0 + (bh * bh if lam == 0.0 else 0.0)) / (2.0 * t_far)
    return head + core + tail + remainder


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one angular fluctuation probe."""

    first_zero: float | None
    u_end: float
    mass_term: bool


def linearized_probe(profile=None, u_end: float = 8.0) -> ProbeResult:
    """Radial Sturm probe of the l = 1 angular fluctuation operator.

    Integrates Q'' = -(2/u) Q' - (1 - 2 p(u)^2 / u^2) Q outward on the
    regular branch Q ~ u, in RK4 steps of at most 1e-3 from u0 = 1e-3
    to u_end (refused if that takes more than 10^6 steps, an infinite
    u_end included), and reports the first node.  With the vacuum background
    p = 1 (profile None) the node is the first positive root of the
    spherical Bessel function j1, near u = 4.4934; any background
    with p < 1 somewhere pulls the node inward, so node(profile) <=
    node(vacuum) witnesses that the monopole is no stiffer than the
    vacuum.  A GraftedProfile enters through u = sqrt(lambda_hat) t, its
    natural mass units; at lambda_hat = 0 there is no mass scale, the
    mass term is dropped, and the regular branch has no node (first_zero
    is None).  p values outside (0, 1] raise SturmDomainError.
    """
    u0 = 1e-3
    if not u_end > u0:
        raise DomainError(f"need u_end > u0 = {u0}, got {u_end}")
    if not (u_end - u0) / 1e-3 <= 10**6:
        raise DomainError(f"u_end = {u_end} needs more than 10^6 steps of 1e-3")
    mass = 1.0
    if profile is None:
        def p_of(u):
            return 1.0
    elif callable(profile):
        p_of = profile
    else:
        traj = profile.base
        lam = traj.lambda_hat
        alpha = traj.alpha if traj.alpha is not None else 0.0
        scale = 1.0 if lam == 0.0 else 1.0 / math.sqrt(lam)
        if lam == 0.0:
            mass = 0.0
        t_lo = traj.ts[0]

        def p_of(u):
            t = u * scale
            if t < t_lo:
                return 1.0 - alpha * t * t  # series head below the handoff
            return profile.state_at(t).f

    def rhs(u, q, qp):
        p = p_of(u)
        if not (0.0 < p <= 1.0 + 1e-9):
            raise SturmDomainError(f"p(u) = {p} at u = {u} is outside (0, 1]")
        return qp, -(2.0 / u) * qp - (mass - 2.0 * p * p / (u * u)) * q

    n = max(int(math.ceil((u_end - u0) / 1e-3)), 1)
    h = (u_end - u0) / n
    u, q, qp = u0, u0, 1.0  # linear in Q: the slope does not move the node
    first_zero = None
    for _ in range(n):
        k1q, k1p = rhs(u, q, qp)
        k2q, k2p = rhs(u + 0.5 * h, q + 0.5 * h * k1q, qp + 0.5 * h * k1p)
        k3q, k3p = rhs(u + 0.5 * h, q + 0.5 * h * k2q, qp + 0.5 * h * k2p)
        k4q, k4p = rhs(u + h, q + h * k3q, qp + h * k3p)
        q1 = q + h / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        qp1 = qp + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        u1 = u + h
        if first_zero is None and q != 0.0 and (q > 0.0) != (q1 > 0.0):
            first_zero = _hermite_root(u, q, qp, u1, q1, qp1)
        u, q, qp = u1, q1, qp1
    return ProbeResult(first_zero=first_zero, u_end=u, mass_term=mass == 1.0)


def _hermite_root(ta, ya, da, tb, yb, db) -> float:
    """Root of the cubic Hermite interpolant on a sign-changing step."""
    h = tb - ta

    def val(s):
        s2, s3 = s * s, s * s * s
        return ((2.0 * s3 - 3.0 * s2 + 1.0) * ya + (s3 - 2.0 * s2 + s) * h * da
                + (-2.0 * s3 + 3.0 * s2) * yb + (s3 - s2) * h * db)

    lo, hi = 0.0, 1.0
    flo = val(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = val(mid)
        if fm == 0.0:
            return ta + mid * h
        if (flo > 0.0) == (fm > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return ta + 0.5 * (lo + hi) * h
