"""Adaptive integration of the radial system with event localization.

The stepper is an embedded Dormand-Prince 5(4) pair with the standard
quartic dense-output interpolant.  It is written out over the four phase
components rather than delegated to a library so that step acceptance,
event refinement, and termination are bit-reproducible for a given
control block, which the outer bisections rely on.

Event taxonomy (first-order system y = (f, f', rho, rho')):

  FPrimeZero   f' crosses 0 upward while 0 < f < 1   (gauge field turns back up)
  FZero        f crosses 0 with f' < 0               (gauge field overshoots)
  RhoPrimeZero rho' crosses 0 downward, 0 < rho < 1  (Higgs field stalls)
  RhoCrossVev  rho crosses 1 upward with rho' > 0    (Higgs field overshoots)
  RhoZero      rho crosses 0 downward                (Higgs field collapses)

f-channel events terminate the run; rho-channel events are recorded and
integration continues so the gauge fate is still observable.  An event
whose state lies inside the convergence tube (half-width TUBE around the
vacuum, see in_tube) is a sub-tolerance wiggle of a separatrix-hugging
trajectory: it is logged but neither terminates nor classifies.

extend continues a finished run to a later horizon.  t_max enters a run
only where it clips a step, so a longer run repeats this one exactly up
to its first clipped step; the run records that point and extend resumes
there, giving the same samples, events and verdict as integrate would.
"""
from __future__ import annotations

import bisect as _bisect
import enum
import math
from dataclasses import dataclass, field, replace

from .errors import DomainError, IntegrityError, NoEventError, StiffnessError
from .model import PhaseState, _rhs

__all__ = [
    "IntegratorControls",
    "TUBE",
    "EVENT_TOL",
    "OutcomeTag",
    "ClassifyMode",
    "Event",
    "Outcome",
    "Trajectory",
    "integrate",
    "extend",
    "refine_event",
    "classify",
    "in_tube",
]


# Half-width of the convergence tube: the bound on |f|, |f'|, rho', the
# extrapolated vev gap |rho + t rho' - 1| and the overshoot rho - 1.
TUBE = 1e-2
# Width to which refine_event bisects a crossing.
EVENT_TOL = 1e-10
# A run blows up once |f| or rho exceeds _BLOWUP_BOUND or |f'| or |rho'|
# exceeds _BLOWUP_SLOPE.
_BLOWUP_BOUND = 2.0
_BLOWUP_SLOPE = 1e3


@dataclass(frozen=True)
class IntegratorControls:
    """Tolerances, horizon, step cap and series handoff radius of one run."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    t_max: float = 12.0
    max_step: float = 0.25
    t0: float = 1e-3

    def __post_init__(self):
        if not all(map(math.isfinite, (self.rel_tol, self.abs_tol, self.t_max,
                                       self.max_step, self.t0))):
            raise DomainError(f"integrator controls must be finite, got {self}")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise DomainError("tolerances must be positive")
        if not (0 < self.t0 < self.t_max):
            raise DomainError(f"need 0 < t0 < t_max, got the handoff t0 = {self.t0} "
                              f"and t_max = {self.t_max}")
        if self.max_step <= 0:
            raise DomainError("max_step must be positive")


class OutcomeTag(enum.Enum):
    FPRIME_ZERO = "FPrimeZero"
    F_ZERO = "FZero"
    RHO_PRIME_ZERO = "RhoPrimeZero"
    RHO_CROSS_VEV = "RhoCrossVev"
    RHO_ZERO = "RhoZero"
    CONVERGED = "Converged"
    HORIZON = "Horizon"
    BLOWUP = "Blowup"


class ClassifyMode(enum.Enum):
    F_FATE = "FFate"
    RHO_FATE = "RhoFate"


@dataclass(frozen=True)
class Event:
    """A refined zero crossing: tag, location, state, and tube flag."""

    tag: OutcomeTag
    t: float
    state: PhaseState
    in_tube: bool = False


@dataclass(frozen=True)
class Outcome:
    """Classification verdict for one trajectory under one fate mode."""

    tag: OutcomeTag
    t_event: float | None = None
    state: PhaseState | None = None
    detail: str = ""


# Dormand-Prince 5(4) tableau.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)
# Dense-output coefficients: row s, column j gives the contribution of
# stage s to the theta^{j+1} term of the quartic interpolant.
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


class DenseSegment:
    """Quartic interpolant over one accepted step [t, t + h]."""

    __slots__ = ("t", "h", "y0", "_k", "_q")

    def __init__(self, t: float, h: float, y0: tuple, k: tuple):
        self.t = t
        self.h = h
        self.y0 = y0
        self._k = k
        self._q = None

    def _coeffs(self):
        # Built lazily: most segments are never interpolated.
        if self._q is None:
            k = self._k
            self._q = tuple(
                tuple(sum(k[s][i] * _P[s][j] for s in range(7)) for j in range(4))
                for i in range(4))
        return self._q

    @property
    def t_end(self) -> float:
        return self.t + self.h

    def eval(self, t: float) -> tuple[float, float, float, float]:
        q = self._coeffs()
        th = (t - self.t) / self.h
        y0, h = self.y0, self.h
        return tuple(
            y0[i] + h * th * (q[i][0] + th * (q[i][1] + th * (q[i][2] + th * q[i][3])))
            for i in range(4))


@dataclass
class Trajectory:
    """Sampled solution, dense interpolants, and the event log of one run."""

    t0: float
    lambda_hat: float
    controls: IntegratorControls
    ts: list[float] = field(default_factory=list)
    ys: list[tuple] = field(default_factory=list)
    segments: list[DenseSegment] = field(default_factory=list)
    f_events: list[Event] = field(default_factory=list)
    rho_events: list[Event] = field(default_factory=list)
    ended: str = ""            # "event" | "t_max" | "blowup" | "immediate"
    blowup_channel: str = ""   # "f" | "rho" | "slope" | "nonfinite"
    alpha: float | None = None
    beta: float | None = None
    # Where a run to a later horizon leaves this one (see extend): the
    # segment, f-event and rho-event counts, the FSAL stage and the
    # unclipped step at the first horizon clip.  None while no clip has
    # fired; the stage is None when the horizon capped the first step.
    _resume: tuple | None = field(default=None, repr=False)

    @property
    def t_end(self) -> float:
        return self.ts[-1]

    @property
    def n_steps(self) -> int:
        return len(self.segments)

    def last_state(self) -> PhaseState:
        return PhaseState(self.ts[-1], *self.ys[-1])

    def terminal_f_event(self) -> Event | None:
        for ev in self.f_events:
            if not ev.in_tube:
                return ev
        return None

    def state_at(self, t: float) -> PhaseState:
        """Dense-output state anywhere inside the sampled range."""
        if not self.segments:
            raise DomainError("trajectory stores no dense segments")
        if not (self.ts[0] <= t <= self.ts[-1]):
            raise DomainError(
                f"t = {t} outside trajectory range [{self.ts[0]}, {self.ts[-1]}]")
        i = _bisect.bisect_right(self.ts, t) - 1
        i = min(max(i, 0), len(self.segments) - 1)
        return PhaseState(t, *self.segments[i].eval(t))

    def resample(self, ts):
        """Dense-output samples at an increasing sequence of radii.

        Returns a list of (f, f', rho, rho') tuples aligned with ts.
        """
        out = []
        i = 0
        last = len(self.segments) - 1
        for t in ts:
            if not (self.ts[0] <= t <= self.ts[-1]):
                raise DomainError(f"resample point {t} outside trajectory range")
            while i < last and self.segments[i].t_end < t:
                i += 1
            out.append(self.segments[i].eval(t))
        return out


def in_tube(state: PhaseState) -> bool:
    """Convergence-tube membership test, every bound at half-width TUBE.

    The gauge field must be small and flat.  The Higgs field is tested
    through its extrapolated asymptote b = rho + t rho', which removes the
    slow 1/t Coulomb approach present at lambda_hat = 0: the pointwise gap
    |rho - 1| stays at 1/t there no matter how converged the trajectory is,
    while b reaches the vacuum to integrator accuracy.
    """
    b = state.rho + state.t * state.rhop
    return (abs(state.f) < TUBE
            and abs(state.fp) < TUBE
            and 0.0 <= state.rhop < TUBE
            and abs(b - 1.0) < TUBE
            and 0.0 < state.rho <= 1.0 + TUBE)


def refine_event(interpolant, t_lo: float, t_hi: float, predicate,
                 event_tol: float = EVENT_TOL):
    """Bisect a bracketed sign change of predicate(interpolant(t)).

    Returns (t_event, interpolant(t_event)).  Raises NoEventError when the
    endpoints do not straddle a sign change (tangential contact).
    """
    if not (t_hi > t_lo):
        raise DomainError("refine_event needs t_hi > t_lo")
    g_lo = predicate(interpolant(t_lo))
    g_hi = predicate(interpolant(t_hi))
    if g_lo == 0.0:
        return t_lo, interpolant(t_lo)
    if g_hi == 0.0:
        return t_hi, interpolant(t_hi)
    if (g_lo < 0.0) == (g_hi < 0.0):
        raise NoEventError(
            f"no sign change on [{t_lo}, {t_hi}]: endpoints {g_lo}, {g_hi}")
    while t_hi - t_lo > event_tol:
        t_mid = 0.5 * (t_lo + t_hi)
        if t_mid <= t_lo or t_mid >= t_hi:
            break  # spacing below float resolution
        g_mid = predicate(interpolant(t_mid))
        if g_mid == 0.0:
            return t_mid, interpolant(t_mid)
        if (g_lo < 0.0) != (g_mid < 0.0):
            t_hi = t_mid
        else:
            t_lo, g_lo = t_mid, g_mid
    t_ev = 0.5 * (t_lo + t_hi)
    return t_ev, interpolant(t_ev)


def _select_initial_step(t0, y0, k1, rel_tol, abs_tol, max_step, span):
    # Hairer-style heuristic: try an Euler step sized from y and y',
    # then correct with a second derivative estimate.
    scale = [abs_tol + rel_tol * abs(v) for v in y0]
    d0 = math.sqrt(sum((y0[i] / scale[i]) ** 2 for i in range(4)) / 4)
    d1 = math.sqrt(sum((k1[i] / scale[i]) ** 2 for i in range(4)) / 4)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    return max(min(h0, max_step), 1e-12)


def integrate(start: PhaseState, lambda_hat: float,
              controls: IntegratorControls) -> Trajectory:
    """Advance from start until a terminal event, blowup, or controls.t_max.

    Accepted steps land in the trajectory's sample/segment lists; each
    accepted step is scanned for sign changes of the five event functions
    and crossings are bisected on the dense interpolant to within
    EVENT_TOL.  Simultaneous gauge events inside one EVENT_TOL violate the
    uniqueness of the (f, f') = (0, 0) contact point and raise
    IntegrityError.
    """
    if lambda_hat < 0.0:
        raise DomainError(f"lambda_hat must be >= 0, got {lambda_hat}")
    if start.t >= controls.t_max:
        raise DomainError(f"start.t = {start.t} must lie below t_max = {controls.t_max}")
    y0 = start.as_tuple()
    traj = Trajectory(t0=start.t, lambda_hat=lambda_hat, controls=controls,
                      ts=[start.t], ys=[y0])
    k1 = _rhs(start.t, *y0, lambda_hat)
    span = controls.t_max - start.t
    h = _select_initial_step(start.t, y0, k1, controls.rel_tol, controls.abs_tol,
                             controls.max_step, span)
    if h >= span:
        # The horizon capped the first step: a longer run starts differently.
        traj._resume = (0, 0, 0, None, None)
    _advance(traj, k1, h)
    return traj


def extend(traj: Trajectory, controls: IntegratorControls) -> Trajectory:
    """The run integrate gives at the later horizon controls.t_max, reusing traj.

    controls may differ from traj.controls only by a t_max at least as
    large.  Before the first step that the horizon clips, t_max decides
    nothing, so a longer run is the same step for step up to there; the
    new run copies that prefix and continues with the saved unclipped
    step.  A run that never reached its horizon is returned with the new
    controls, and one whose first step was already clipped is integrated
    afresh.  traj itself is left unchanged.
    """
    if (controls.t_max < traj.controls.t_max
            or replace(traj.controls, t_max=controls.t_max) != controls):
        raise DomainError("extend only moves the horizon of a run outward")
    if traj._resume is None:
        return replace(traj, controls=controls)
    n, n_f, n_rho, k1, h = traj._resume
    if k1 is None:
        new = integrate(PhaseState(traj.t0, *traj.ys[0]), traj.lambda_hat, controls)
    else:
        new = Trajectory(t0=traj.t0, lambda_hat=traj.lambda_hat, controls=controls,
                         ts=traj.ts[:n + 1], ys=traj.ys[:n + 1],
                         segments=traj.segments[:n], f_events=traj.f_events[:n_f],
                         rho_events=traj.rho_events[:n_rho])
        _advance(new, k1, h)
    new.alpha, new.beta = traj.alpha, traj.beta
    return new


def _advance(traj: Trajectory, k1: tuple, h: float) -> None:
    """Step on from the last sample of traj, with FSAL stage k1 and trial step h."""
    t = traj.ts[-1]
    # The accepted state is one tuple shared by the sample list, the next
    # segment and the event scan; f, fp, rho, rhop are its components.
    y_acc = traj.ys[-1]
    f, fp, rho, rhop = y_acc

    lam = traj.lambda_hat
    controls = traj.controls
    rel, atol = controls.rel_tol, controls.abs_tol
    t_max, max_step = controls.t_max, controls.max_step
    bound, slope_bound = _BLOWUP_BOUND, _BLOWUP_SLOPE

    while t < t_max:
        if t + h >= t_max:
            if traj._resume is None:
                traj._resume = (len(traj.segments), len(traj.f_events),
                                len(traj.rho_events), k1, h)
            h = t_max - t
            if h <= 1e-13 * max(1.0, t):
                break  # horizon reached to float resolution
        k1f, k1fp, k1r, k1rp = k1
        y = (f + h * _A21 * k1f, fp + h * _A21 * k1fp,
             rho + h * _A21 * k1r, rhop + h * _A21 * k1rp)
        k2 = _rhs(t + _C2 * h, y[0], y[1], y[2], y[3], lam)
        y = (f + h * (_A31 * k1f + _A32 * k2[0]),
             fp + h * (_A31 * k1fp + _A32 * k2[1]),
             rho + h * (_A31 * k1r + _A32 * k2[2]),
             rhop + h * (_A31 * k1rp + _A32 * k2[3]))
        k3 = _rhs(t + _C3 * h, y[0], y[1], y[2], y[3], lam)
        y = (f + h * (_A41 * k1f + _A42 * k2[0] + _A43 * k3[0]),
             fp + h * (_A41 * k1fp + _A42 * k2[1] + _A43 * k3[1]),
             rho + h * (_A41 * k1r + _A42 * k2[2] + _A43 * k3[2]),
             rhop + h * (_A41 * k1rp + _A42 * k2[3] + _A43 * k3[3]))
        k4 = _rhs(t + _C4 * h, y[0], y[1], y[2], y[3], lam)
        y = (f + h * (_A51 * k1f + _A52 * k2[0] + _A53 * k3[0] + _A54 * k4[0]),
             fp + h * (_A51 * k1fp + _A52 * k2[1] + _A53 * k3[1] + _A54 * k4[1]),
             rho + h * (_A51 * k1r + _A52 * k2[2] + _A53 * k3[2] + _A54 * k4[2]),
             rhop + h * (_A51 * k1rp + _A52 * k2[3] + _A53 * k3[3] + _A54 * k4[3]))
        k5 = _rhs(t + _C5 * h, y[0], y[1], y[2], y[3], lam)
        y = (f + h * (_A61 * k1f + _A62 * k2[0] + _A63 * k3[0] + _A64 * k4[0] + _A65 * k5[0]),
             fp + h * (_A61 * k1fp + _A62 * k2[1] + _A63 * k3[1] + _A64 * k4[1] + _A65 * k5[1]),
             rho + h * (_A61 * k1r + _A62 * k2[2] + _A63 * k3[2] + _A64 * k4[2] + _A65 * k5[2]),
             rhop + h * (_A61 * k1rp + _A62 * k2[3] + _A63 * k3[3] + _A64 * k4[3] + _A65 * k5[3]))
        k6 = _rhs(t + h, y[0], y[1], y[2], y[3], lam)
        fn = f + h * (_B1 * k1f + _B3 * k3[0] + _B4 * k4[0] + _B5 * k5[0] + _B6 * k6[0])
        fpn = fp + h * (_B1 * k1fp + _B3 * k3[1] + _B4 * k4[1] + _B5 * k5[1] + _B6 * k6[1])
        rn = rho + h * (_B1 * k1r + _B3 * k3[2] + _B4 * k4[2] + _B5 * k5[2] + _B6 * k6[2])
        rpn = rhop + h * (_B1 * k1rp + _B3 * k3[3] + _B4 * k4[3] + _B5 * k5[3] + _B6 * k6[3])

        if not (math.isfinite(fn) and math.isfinite(fpn)
                and math.isfinite(rn) and math.isfinite(rpn)):
            traj.ended = "blowup"
            traj.blowup_channel = "nonfinite"
            return

        k7 = _rhs(t + h, fn, fpn, rn, rpn, lam)
        err = 0.0
        for i, (yo, yn) in enumerate(((f, fn), (fp, fpn), (rho, rn), (rhop, rpn))):
            e = h * (_E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i]
                     + _E5 * k5[i] + _E6 * k6[i] + _E7 * k7[i])
            sc = atol + rel * max(abs(yo), abs(yn))
            err += (e / sc) ** 2
        err = math.sqrt(err / 4.0)

        if err > 1.0:
            h *= max(0.2, min(1.0, 0.9 * err ** -0.2))
            if h < 1e-13 * max(1.0, t):
                raise StiffnessError(f"step size underflow at t = {t}")
            continue

        y_new = (fn, fpn, rn, rpn)
        seg = DenseSegment(t, h, y_acc, (k1, k2, k3, k4, k5, k6, k7))
        terminal = _scan_events(traj, seg, y_acc, y_new)
        traj.segments.append(seg)
        t += h
        f, fp, rho, rhop = y_acc = y_new
        traj.ts.append(t)
        traj.ys.append(y_acc)
        if terminal:
            traj.ended = "event"
            return
        if abs(fn) > bound or rn > bound or abs(fpn) > slope_bound or abs(rpn) > slope_bound:
            traj.ended = "blowup"
            traj.blowup_channel = ("rho" if rn > bound else
                                   "f" if abs(fn) > bound else "slope")
            return
        k1 = k7  # first-same-as-last
        fac = 10.0 if err == 0.0 else min(10.0, max(0.2, 0.9 * err ** -0.2))
        h = min(h * fac, max_step)

    traj.ended = "t_max"


def _scan_events(traj: Trajectory, seg: DenseSegment, ya: tuple, yb: tuple) -> bool:
    """Refine sign changes over one accepted step.  True if a terminal event fired."""
    found = []  # (t, kind, state)
    if ya[1] < 0.0 <= yb[1]:
        t_e, s = refine_event(seg.eval, seg.t, seg.t_end, lambda y: y[1])
        found.append((t_e, OutcomeTag.FPRIME_ZERO, s))
    if ya[0] > 0.0 >= yb[0]:
        t_e, s = refine_event(seg.eval, seg.t, seg.t_end, lambda y: y[0])
        found.append((t_e, OutcomeTag.F_ZERO, s))
    if ya[3] > 0.0 >= yb[3]:
        t_e, s = refine_event(seg.eval, seg.t, seg.t_end, lambda y: y[3])
        found.append((t_e, OutcomeTag.RHO_PRIME_ZERO, s))
    if ya[2] < 1.0 <= yb[2]:
        t_e, s = refine_event(seg.eval, seg.t, seg.t_end, lambda y: y[2] - 1.0)
        found.append((t_e, OutcomeTag.RHO_CROSS_VEV, s))
    if ya[2] > 0.0 >= yb[2]:
        t_e, s = refine_event(seg.eval, seg.t, seg.t_end, lambda y: y[2])
        found.append((t_e, OutcomeTag.RHO_ZERO, s))
    if not found:
        return False

    f_times = [t for t, kind, _ in found
               if kind in (OutcomeTag.FPRIME_ZERO, OutcomeTag.F_ZERO)]
    if len(f_times) == 2 and abs(f_times[0] - f_times[1]) <= EVENT_TOL:
        raise IntegrityError(
            f"simultaneous f = 0 and f' = 0 near t = {f_times[0]}: "
            "the gauge channel cannot vanish to second order")

    found.sort(key=lambda item: item[0])
    for t_e, kind, y_e in found:
        state = PhaseState(t_e, *y_e)
        tube = in_tube(state)
        ev = Event(tag=kind, t=t_e, state=state, in_tube=tube)
        if kind is OutcomeTag.FPRIME_ZERO:
            if not (0.0 < state.f < 1.0):
                continue  # guard: only a turn inside the physical window counts
            traj.f_events.append(ev)
            if not tube:
                return True
        elif kind is OutcomeTag.F_ZERO:
            if not (state.fp < 0.0):
                continue
            traj.f_events.append(ev)
            if not tube:
                return True
        elif kind is OutcomeTag.RHO_PRIME_ZERO:
            if not (0.0 < state.rho < 1.0):
                continue
            traj.rho_events.append(ev)
        else:
            traj.rho_events.append(ev)
    return False


def classify(traj: Trajectory, mode: ClassifyMode) -> Outcome:
    """Map a finished trajectory to its outcome under the requested fate.

    FFate reads the gauge channel: the first out-of-tube f event, else
    blowup, else the tube test at the final state (Converged/Horizon).
    RhoFate reads the Higgs channel the same way.  An in-tube event is
    ignored unless the trajectory later leaves the tube on the same side
    the event pointed to, in which case it was the first visible sign of
    a genuine escape and is promoted to the verdict.
    """
    if not traj.ended:
        raise DomainError("classify needs a finished trajectory")
    events = traj.f_events if mode is ClassifyMode.F_FATE else traj.rho_events
    for ev in events:
        if not ev.in_tube:
            return Outcome(tag=ev.tag, t_event=ev.t, state=ev.state)
    last = traj.last_state()
    promoted = _promote_tube_event(events, last, mode)
    if promoted is not None:
        return Outcome(tag=promoted.tag, t_event=promoted.t, state=promoted.state,
                       detail="promoted tube event")
    if traj.ended == "blowup":
        return Outcome(tag=OutcomeTag.BLOWUP, t_event=traj.t_end,
                       state=last, detail=traj.blowup_channel)
    if in_tube(last):
        return Outcome(tag=OutcomeTag.CONVERGED, t_event=None, state=last)
    return Outcome(tag=OutcomeTag.HORIZON, t_event=None, state=last)


def _promote_tube_event(events, last: PhaseState,
                        mode: ClassifyMode) -> Event | None:
    # An in-tube wiggle followed by a same-side tube exit is a real escape.
    if not events:
        return None
    if mode is ClassifyMode.F_FATE:
        if last.f >= TUBE:
            want = OutcomeTag.FPRIME_ZERO
        elif last.f <= -TUBE:
            want = OutcomeTag.F_ZERO
        else:
            return None
    else:
        b = last.rho + last.t * last.rhop
        if b <= 1.0 - TUBE:
            want = (OutcomeTag.RHO_PRIME_ZERO, OutcomeTag.RHO_ZERO)
        elif b >= 1.0 + TUBE:
            want = OutcomeTag.RHO_CROSS_VEV
        else:
            return None
    for ev in events:
        if ev.tag is want or (isinstance(want, tuple) and ev.tag in want):
            return ev
    return None
