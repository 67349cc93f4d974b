"""Adaptive integration of the radial system with event localization.

The stepper is Dormand and Prince's DOP853 (Hairer, Norsett & Wanner,
Solving ODEs I, II.10): an eighth-order step whose size is set by
Hairer's error estimate, the fifth-order one damped where the
third-order one is large.  Its seventh-order dense output
(dense_output.DenseSegment) costs three more right-hand side calls per
step, so a step builds it only when it is first read: to refine a gauge
event the step's end values bracket, to refine a Higgs one when the
run's rho_events are read, or for state_at and resample.  The
stepper is written out over the four phase components rather than
delegated to a library so that step acceptance, event refinement, and
termination are bit-reproducible for a given control block, which the
outer bisections rely on.

The thirteen stages are inlined in _advance with exactly model._rhs's
operations in its order; model._rhs stays the one reference for the
field equations, and a test pins every stored stage to it with ==.  The
interpolant's coefficients are written out over the tableau's nonzero
weights in the same way.  The event scan runs only on a step where one
of the five sign tests fires, and refine_event bisects each crossing on
the one component that changes sign, of the step's interpolant or of
the series, against the event's level.  A gauge crossing is bisected at
once, a Higgs one on the first read of Trajectory.rho_events.  resample
evaluates an array of radii in one batch, with the interpolant's
arithmetic applied elementwise in the same order.

Event taxonomy (y = (f, f', rho, rho')), held once in _EVENTS: each event's
crossing, the window its state must lie in to count, and the side of the
separatrix it puts a run on (-1 below, +1 above; see Outcome.side):

  FPrimeZero   f' rises to 0    0 < f <= 1   -1  (gauge field turns back up)
  FZero        f falls to 0     f' < 0       +1  (gauge field overshoots)
  RhoPrimeZero rho' falls to 0  0 < rho < 1  -1  (Higgs field stalls)
  RhoCrossVev  rho rises to 1   none         +1  (Higgs field overshoots)
  RhoZero      rho falls to 0   none         -1  (Higgs field collapses)

f-channel events terminate the run; rho-channel events are recorded and
integration continues so the gauge fate is still observable.  They are
recorded as crossings, each with its step; only reading rho_events
refines them, keeps those inside their windows and before the gauge
event that ends the run, if one does, and caches the events.  A sweep
reads the Higgs fate only of a point whose gauge fate is Converged or
Horizon, so most of its runs never bisect a Higgs crossing; a solve's
searches read it of many.  An event whose state lies inside the
convergence tube (half-width TUBE around the vacuum, see in_tube) is a
sub-tolerance wiggle of a separatrix-hugging trajectory: it is logged
and does not terminate; classify reads it only when the run later
leaves the tube on its side, or blows up in rho with f still in the
tube.

integrate_series starts every shot, on the origin series: from
min(t0, reach) to the series' reach the run is read off the series, on
pieces that end on the multiples of origin_series._PIECE, so their ends
do not depend on t0.  The series carries those ends and its states
there (OriginSeries.span); the run applies t0 and t_max, starting from
the state at min(t0, reach) and cutting the span at a horizon inside
it.  Each piece end gets the five sign tests and the blowup bounds of a
step, and a crossing is bisected on the series itself.  DOP853 takes
over at the reach, past the 1/t^2 layer at the origin, where it would
otherwise hold every step near h ~ 0.1 t and leave its largest error.
state_at and resample read the span off the series; n_steps counts
DOP853 steps only.

continued_fate reads the gauge verdict of a probe still undecided at
its horizon at a later one: its first gauge event, in the tube or not;
no Higgs fate is continued.  t_max enters a run only where it clips a
step, so a longer run repeats this one exactly up to its first clipped
step, the first one included; the run records that point, and the
continuation starts there from one sample and stops at its first gauge
event.  An event found before that point is the verdict as it stands.
"""
from __future__ import annotations

import bisect as _bisect
import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import model
from .dense_output import DenseSegment, _horner
from .errors import DomainError, IntegrityError, NoEventError, StiffnessError
from .model import PhaseState
from .origin_series import DEFAULT_T0, OriginSeries, check_t0

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
    "integrate_series",
    "continued_fate",
    "refine_event",
    "classify",
    "in_tube",
]


# Half-width of the convergence tube: the bound on |f|, |f'|, rho', the
# extrapolated vev gap |rho + t rho' - 1| and the overshoot rho - 1.
TUBE = 1e-2
# A run blows up once |f| or rho exceeds _BLOWUP_BOUND or |f'| or |rho'|
# exceeds _BLOWUP_SLOPE.
_BLOWUP_BOUND = 2.0
_BLOWUP_SLOPE = 1e3


@dataclass(frozen=True)
class IntegratorControls:
    """Tolerances, horizon, step cap and start radius of one run.

    t0, where the samples begin, is set by library callers only; it must
    pass origin_series.check_t0, so no record holds a t0 a shot refuses.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    t_max: float = 12.0
    max_step: float = 0.25
    t0: float = DEFAULT_T0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.rel_tol, self.abs_tol, self.t_max,
                                       self.max_step, self.t0))):
            raise DomainError(f"integrator controls must be finite, got {self}")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise DomainError("tolerances must be positive")
        if not (0 < self.t0 < self.t_max):
            raise DomainError(f"need 0 < t0 < t_max, got the handoff t0 = {self.t0} "
                              f"and t_max = {self.t_max}")
        check_t0(self.t0)
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

    @property
    def side(self) -> int:
        """Its event's side (see _EVENTS); 0 for Converged, Horizon and Blowup."""
        return _EVENTS[self.tag].side if self.tag in _EVENTS else 0


class _EventRow(NamedTuple):
    """Component i of y (i < 2: the gauge channel) crosses level, rising or
    falling; the crossing counts where lo < field < hi, window = (field, lo, hi)."""

    i: int
    level: float
    rising: bool
    window: tuple | None
    side: int

    def crosses(self, ya: tuple, yb: tuple) -> bool:
        a, b, level = ya[self.i], yb[self.i], self.level
        return a < level <= b if self.rising else a > level >= b


# The event table (see the module docstring), in _scan_events' order.
_EVENTS = {
    # f <= 1: a turn near the origin, where f rounds to 1.0, still counts
    OutcomeTag.FPRIME_ZERO: _EventRow(1, 0.0, True, ("f", 0.0, math.nextafter(1.0, 2.0)), -1),
    OutcomeTag.F_ZERO: _EventRow(0, 0.0, False, ("fp", -math.inf, 0.0), 1),
    OutcomeTag.RHO_PRIME_ZERO: _EventRow(3, 0.0, False, ("rho", 0.0, 1.0), -1),
    OutcomeTag.RHO_CROSS_VEV: _EventRow(2, 1.0, True, None, 1),
    OutcomeTag.RHO_ZERO: _EventRow(2, 0.0, False, None, -1),
}


# DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.10): the
# eighth-order weights _B, the fifth- and third-order error weights _E5_
# and _E3_, and _As_j, the weight of stage j in stage s, counted from 1.
# Stages 12 and 13 sit at t + h; stage 13 is the next step's first.
_C2, _C3, _C4, _C5, _C6, _C7 = (
    0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25)
_C8, _C9, _C10, _C11 = 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571
_A2_1 = 0.05260015195876773
_A3_1, _A3_2 = 0.0197250569845379, 0.0591751709536137
_A4_1, _A4_3 = 0.02958758547680685, 0.08876275643042054
_A5_1, _A5_3, _A5_4 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
_A6_1, _A6_4, _A6_5 = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242
_A7_1, _A7_4, _A7_5, _A7_6 = (
    0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125)
_A8_1, _A8_4, _A8_5, _A8_6, _A8_7 = (
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328,
    -0.015319437748624402, 0.008273789163814023)
_A9_1, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8 = (
    0.6241109587160757, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996)
_A10_1, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9 = (
    0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627)
_A11_1, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10 = (
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196)
_A12_1, _A12_4, _A12_5, _A12_6, _A12_7, _A12_8, _A12_9, _A12_10, _A12_11 = (
    2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
    0.6433927460157636)
_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12 = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_E5_1, _E5_6, _E5_7, _E5_8, _E5_9, _E5_10, _E5_11, _E5_12 = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294)
_E3_1, _E3_6, _E3_7, _E3_8, _E3_9, _E3_10, _E3_11, _E3_12 = (
    -0.18980075407240762, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082)
@dataclass
class Trajectory:
    """Sampled solution, dense interpolants, and the event log of one run.

    A run started on the origin series keeps it: its first _span samples
    after ts[0] are the ends of the series pieces, and segments[j] is the
    DOP853 step from ts[_span + j] to the next sample.  A run whose series
    overflows holds no sample (see integrate_series).

    f_events are refined as the run steps.  rho_events is read lazily:
    the run records each step's Higgs crossings, and the first read
    bisects them (see _scan_events), so a run whose Higgs fate is never
    read never pays for them.
    """

    lambda_hat: float
    controls: IntegratorControls
    ts: list[float] = field(default_factory=list)
    ys: list[tuple] = field(default_factory=list)
    segments: list[DenseSegment] = field(default_factory=list)
    f_events: list[Event] = field(default_factory=list)
    ended: str = ""            # "event" | "t_max" | "blowup" | "immediate"
    blowup_channel: str = ""   # "f" | "rho" | "slope" | "nonfinite"
    alpha: float | None = None
    beta: float | None = None
    series: OriginSeries | None = field(default=None, repr=False)
    _span: int = field(default=0, repr=False)
    # Where a run to a later horizon leaves this one (see continued_fate):
    # the segment and f-event counts, the FSAL stage and the unclipped
    # step at the first horizon clip.  None while no clip has fired; the
    # stage is None when the horizon ended the run inside its series span.
    _resume: tuple | None = field(default=None, repr=False)
    # Whether every f event ends the run, in the tube or not (continued_fate's).
    _to_gauge_event: bool = field(default=False, repr=False)
    # The Higgs crossings to refine, one (step, rows) per step that has
    # any (see _scan_events).
    _rho_pending: list = field(default_factory=list, repr=False, compare=False)

    @cached_property
    def rho_events(self) -> list[Event]:
        """The Higgs events, refined on the first read of a finished run.

        Each pending crossing is refined and windowed as _scan_events does
        a gauge row's; those at or after the gauge event that ends the
        run, which can lie only in its last step, are dropped.
        """
        cutoff = self.f_events[-1].t if self.ended == "event" else math.inf
        return [ev for seg, rows in self._rho_pending
                for ev in _counted(_refined(seg, rows)) if ev.t < cutoff]

    @property
    def t_end(self) -> float:
        return self.ts[-1]

    @property
    def n_steps(self) -> int:
        return len(self.segments)

    def last_state(self) -> PhaseState:
        return PhaseState(self.ts[-1], *self.ys[-1])

    def state_at(self, t: float) -> PhaseState:
        """Dense-output state anywhere inside the sampled range.

        Read off the series up to the end of the series span, past it off
        the first segment that ends at or after t, as resample reads it, so
        a radius on a step boundary comes from the step it ends.
        """
        if self.series is None and not self.segments:
            raise DomainError("trajectory stores no dense segments")
        if not (self.ts[0] <= t <= self.ts[-1]):
            raise DomainError(
                f"t = {t} outside trajectory range [{self.ts[0]}, {self.ts[-1]}]")
        k = self._span
        if self.series is not None and t <= self.ts[k]:
            return PhaseState(t, *self.series.state(t))
        i = max(_bisect.bisect_left(self.ts, t) - 1 - k, 0)
        return PhaseState(t, *self.segments[i].eval(t))

    def resample(self, ts) -> np.ndarray:
        """Dense-output samples at a sequence of radii, in one batch.

        Returns an (n, 4) array of (f, f', rho, rho') rows aligned with
        ts, each what state_at gives at its radius: OriginSeries.table on
        the series span, and past it the arithmetic of DenseSegment.eval,
        one numpy operation per step of it.
        """
        ts = np.asarray(ts, dtype=float)
        if self.series is None and not self.segments:
            raise DomainError("trajectory stores no dense segments")
        inside = (ts >= self.ts[0]) & (ts <= self.ts[-1])
        if not inside.all():
            raise DomainError(f"dense-output point {ts[~inside][0]} outside trajectory "
                              f"range [{self.ts[0]}, {self.ts[-1]}]")
        out = np.empty((len(ts), 4))
        k = self._span
        dense = np.ones(len(ts), dtype=bool)
        if self.series is not None:
            dense = ts > self.ts[k]
            out[~dense] = self.series.table(ts[~dense])
            if not dense.any():
                return out
            ts = ts[dense]
        used, pos = np.unique(np.searchsorted(self.ts[k + 1:], ts), return_inverse=True)
        segs = [self.segments[i] for i in used]
        q = np.array([s._coeffs() for s in segs]).reshape(len(segs), 4, 7)
        y0 = np.array([s.y0 for s in segs]).reshape(len(segs), 4)
        x = (ts - np.array([s.t for s in segs])[pos]) / np.array([s.h for s in segs])[pos]
        u = 1.0 - x
        for i in range(4):
            out[dense, i] = _horner(y0[pos, i], q[pos, i].T, x, u)
        return out


def in_tube(state: PhaseState) -> bool:
    """Convergence-tube membership test, every bound at half-width TUBE.

    The gauge field must be small and flat.  The Higgs field is tested
    through its extrapolated asymptote b = rho + t rho', which removes the
    slow 1/t Coulomb approach present at lambda_hat = 0: the pointwise gap
    |rho - 1| stays at 1/t there no matter how converged the trajectory is,
    while b reaches the vacuum to integrator accuracy.
    """
    b = state.asymptote
    return (abs(state.f) < TUBE
            and abs(state.fp) < TUBE
            and 0.0 <= state.rhop < TUBE
            and abs(b - 1.0) < TUBE
            and 0.0 < state.rho <= 1.0 + TUBE)


# Width to which refine_event bisects a crossing.
EVENT_TOL = 1e-10


def refine_event(value, t_lo: float, t_hi: float, level: float = 0.0) -> float:
    """Bisect a bracketed crossing of level by value(t) to EVENT_TOL.

    Returns t_event.  Raises NoEventError when value - level does not
    change sign between the endpoints (tangential contact).
    """
    if not (t_hi > t_lo):
        raise DomainError("refine_event needs t_hi > t_lo")
    g_lo = value(t_lo) - level
    g_hi = value(t_hi) - level
    if g_lo == 0.0:
        return t_lo
    if g_hi == 0.0:
        return t_hi
    below = g_lo < 0.0
    if below == (g_hi < 0.0):
        raise NoEventError(
            f"no sign change on [{t_lo}, {t_hi}]: endpoints {g_lo}, {g_hi}")
    while t_hi - t_lo > EVENT_TOL:
        t_mid = 0.5 * (t_lo + t_hi)
        if t_mid <= t_lo or t_mid >= t_hi:
            break  # spacing below float resolution
        g_mid = value(t_mid) - level
        if g_mid == 0.0:
            return t_mid
        if below != (g_mid < 0.0):
            t_hi = t_mid
        else:
            t_lo = t_mid
    return 0.5 * (t_lo + t_hi)


def _select_initial_step(y0, k1, controls: IntegratorControls) -> float:
    # The first half of Hairer's heuristic: an Euler-sized step, 1% of
    # |y| / |y'| in tolerance-scaled RMS norms.  It takes no trial step
    # and no second-derivative estimate, and its bits fix every shot's,
    # so it stays as it is.  The horizon does not enter: _advance clips
    # the step.
    atol, rel = controls.abs_tol, controls.rel_tol
    f, fp, rho, rhop = y0
    sf, sfp, sr, srp = (atol + rel * abs(f), atol + rel * abs(fp), atol + rel * abs(rho),
                        atol + rel * abs(rhop))
    # v * v, not v ** 2: a square past the float range is inf, not an
    # OverflowError, and a state that large ends the run as a blowup.
    # Each norm adds its squares left to right: sum() compensates float
    # sums from Python 3.12 on, which would move every shot's first step.
    a, b, c, d = f / sf, fp / sfp, rho / sr, rhop / srp
    d0 = math.sqrt((((a * a + b * b) + c * c) + d * d) / 4)
    a, b, c, d = k1[0] / sf, k1[1] / sfp, k1[2] / sr, k1[3] / srp
    d1 = math.sqrt((((a * a + b * b) + c * c) + d * d) / 4)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    return max(min(h0, controls.max_step), 1e-12)


def integrate(start: PhaseState, lambda_hat: float,
              controls: IntegratorControls) -> Trajectory:
    """Advance from start until a terminal event, blowup, or controls.t_max.

    A start that breaks a blowup bound is the run's one sample.  Accepted
    steps land in the trajectory's sample/segment lists; each accepted
    step is scanned for sign changes of the five event functions and
    crossings are bisected on the dense interpolant to within EVENT_TOL,
    the Higgs ones when the trajectory's rho_events are first read.
    Simultaneous gauge events inside one EVENT_TOL violate the uniqueness
    of the (f, f') = (0, 0) contact point and raise IntegrityError.
    """
    model.check_lambda_hat(lambda_hat)
    if start.t >= controls.t_max:
        raise DomainError(f"start.t = {start.t} must lie below t_max = {controls.t_max}")
    y0 = start.as_tuple()
    traj = Trajectory(lambda_hat=lambda_hat, controls=controls, ts=[start.t], ys=[y0])
    if not _ends_in_blowup(traj, y0):
        k1 = model._rhs(start.t, *y0, lambda_hat)
        _advance(traj, k1, _select_initial_step(y0, k1, controls))
    return traj


def integrate_series(series: OriginSeries, controls: IntegratorControls) -> Trajectory:
    """The run of the series' (alpha, beta): the series up to its reach, then DOP853.

    Samples start at t_s = min(controls.t0, reach), so a series that does
    not reach t0 starts the run at its reach, and follow the series span
    (OriginSeries.span): the ends below t_max, then t_max where the reach
    lies beyond it.  Each piece end gets a step's five sign tests, with
    any crossing bisected on the series, and every sample, the first too,
    the blowup bounds.  Past the span DOP853 steps on as integrate does.

    When f' is already non-negative at t_s (alpha > 0 tiny next to beta^2
    t_s^2), f turned below t_s: the run holds only that turn, at the
    radius sqrt(alpha / (2 a4)) where the two-term truncation turns, with
    the series state there and f' = 0, and ends "immediate".  A series
    whose reach is 0 (a coefficient overflowed, for alpha of ~1e14 or beta
    of ~1e13 and more) has no finite state: the run ends at t0 as a
    blowup of channel "nonfinite", as a step to a non-finite state ends
    one, and holds no sample; classify reads it as Blowup at t0.
    """
    t0, t_max = controls.t0, controls.t_max
    lam, alpha, beta = series.lambda_hat, series.alpha, series.beta
    if series.reach == 0.0:
        return Trajectory(lambda_hat=lam, controls=controls, ended="blowup",
                          blowup_channel="nonfinite", alpha=alpha, beta=beta)
    t = min(t0, series.reach)
    y = series.state(t)
    if alpha > 0.0 and y[1] >= 0.0:
        t_c = math.sqrt(alpha / (2.0 * series.coefficients().a4))
        f, _, rho, rhop = series.state(t_c)
        state = PhaseState(t_c, f, 0.0, rho, rhop)
        return Trajectory(lambda_hat=lam, controls=controls, ts=[t_c],
                          ys=[state.as_tuple()], ended="immediate", alpha=alpha, beta=beta,
                          f_events=[Event(tag=OutcomeTag.FPRIME_ZERO, t=t_c, state=state)])
    traj = Trajectory(lambda_hat=lam, controls=controls, ts=[t], ys=[y],
                      alpha=alpha, beta=beta, series=series)
    if _ends_in_blowup(traj, y):
        return traj
    # a run that starts at the reach has no piece left to read
    ends, rows = series.span() if t < series.reach else ((), ())
    if series.reach > t_max:
        n = _bisect.bisect_left(ends, t_max)
        ends, rows = (*ends[:n], t_max), (*rows[:n], series.state(t_max))
    for t_next, y_next in zip(ends, rows):
        terminal = (_sign_change(y, y_next)
                    and _scan_events(traj, _SeriesPiece(series, t, t_next), y, y_next))
        traj.ts.append(t_next)
        traj.ys.append(y_next)
        traj._span += 1
        t, y = t_next, y_next
        if terminal:
            traj.ended = "event"
            return traj
        if _ends_in_blowup(traj, y):
            return traj
    if t >= t_max:
        # The horizon ended the run inside the span: a longer run reads on.
        traj.ended = "t_max"
        traj._resume = (0, 0, None, None)
        return traj
    k1 = model._rhs(t, *y, lam)
    _advance(traj, k1, _select_initial_step(y, k1, controls))
    return traj


class _SeriesPiece:
    """One piece [t, t_end] of a series span, read as _scan_events reads a step."""

    __slots__ = ("t", "t_end", "component", "eval")

    def __init__(self, series: OriginSeries, t: float, t_end: float):
        self.t, self.t_end = t, t_end
        self.component, self.eval = series.component, series.state


def continued_fate(traj: Trajectory, t_max: float) -> Outcome:
    """FFate of traj continued to the later horizon t_max, read at its first gauge event.

    traj must be a run its horizon ended.  Before the first step that the
    horizon clips, t_max decides nothing, so a longer run is the same step
    for step up to there: an f event traj found before that clip is the
    verdict.  Otherwise the run continues from the clipped step's start,
    with the saved FSAL stage and unclipped step, into a run of one
    sample that ends at its first f event, in the tube or not; one that
    the horizon ended inside its series span is run afresh on its series.
    The verdict is that run's first f event, with detail "first gauge
    event" when it lies in the tube, or else its plain FFate.  Each is the
    verdict of the run integrate gives at t_max, read at its first gauge
    event.  traj itself is left unchanged.
    """
    if traj.ended != "t_max" or t_max < traj.controls.t_max:
        raise DomainError("continued_fate continues a run its horizon ended to a later "
                          f"horizon: got a run ended by {traj.ended!r} and t_max = {t_max} "
                          f"after {traj.controls.t_max}")
    n, n_f, k1, h = traj._resume
    controls = replace(traj.controls, t_max=t_max)
    if n_f:
        run = traj
    elif k1 is None:
        run = integrate_series(traj.series, controls)
    else:
        m = traj._span + n
        run = Trajectory(lambda_hat=traj.lambda_hat, controls=controls, ts=[traj.ts[m]],
                         ys=[traj.ys[m]], _to_gauge_event=True)
        _advance(run, k1, h)
    if not run.f_events:
        return classify(run, ClassifyMode.F_FATE)
    ev = run.f_events[0]
    return Outcome(tag=ev.tag, t_event=ev.t, state=ev.state,
                   detail="first gauge event" if ev.in_tube else "")


def _sign_change(ya: tuple, yb: tuple) -> bool:
    """Whether a row of _EVENTS crosses; written out, since every step asks."""
    f, fp, rho, rhop = ya
    fn, fpn, rn, rpn = yb
    return (fp < 0.0 <= fpn or f > 0.0 >= fn or rhop > 0.0 >= rpn
            or rho < 1.0 <= rn or rho > 0.0 >= rn)


def _ends_in_blowup(traj: Trajectory, y: tuple) -> bool:
    """Whether sample y of traj breaks a blowup bound, which then ends traj there."""
    f, fp, rho, rhop = y
    if abs(f) > _BLOWUP_BOUND or rho > _BLOWUP_BOUND or abs(fp) > _BLOWUP_SLOPE \
            or abs(rhop) > _BLOWUP_SLOPE:
        traj.ended, traj.blowup_channel = "blowup", (
            "rho" if rho > _BLOWUP_BOUND else "f" if abs(f) > _BLOWUP_BOUND else "slope")
        return True
    return False


def _advance(traj: Trajectory, k1: tuple, h: float) -> None:
    """Step on from the last sample of traj, with FSAL stage k1 and trial step h.

    The stages are written out inline.  A stage's f and rho derivatives
    are its own f' and rho' values, so only f'' and rho'' are computed,
    with exactly model._rhs's operations in its order (rho * rho, which
    _rhs computes twice, once per stage), which keeps every step
    bit-identical to calling _rhs.
    """
    t = traj.ts[-1]
    # The accepted state is one tuple shared by the sample list, the next
    # segment and the event scan; f, fp, rho, rhop are its components.
    y_acc = traj.ys[-1]
    f, fp, rho, rhop = y_acc
    k1f, k1fp, k1r, k1rp = k1

    lam = traj.lambda_hat
    controls = traj.controls
    rel, atol = controls.rel_tol, controls.abs_tol
    t_max, max_step = controls.t_max, controls.max_step
    isfinite = math.isfinite
    add_t, add_y, add_seg = traj.ts.append, traj.ys.append, traj.segments.append

    while t < t_max:
        if t + h >= t_max:
            if traj._resume is None:
                traj._resume = (len(traj.segments), len(traj.f_events),
                                (k1f, k1fp, k1r, k1rp), h)
            h = t_max - t
            if h <= 1e-13 * max(1.0, t):
                break  # horizon reached to float resolution
        # Stage j at time s and state (g, kjf, r, kjr): kjf and kjr are
        # the derivatives of f and rho, kjfp and kjrp those of f' and rho'.
        s = t + _C2 * h
        g = f + h * (_A2_1 * k1f)
        k2f = fp + h * (_A2_1 * k1fp)
        r = rho + h * (_A2_1 * k1r)
        k2r = rhop + h * (_A2_1 * k1rp)
        s2 = s * s
        gg = g * g
        rr = r * r
        k2fp = g * ((gg - 1.0) / s2 + rr)
        k2rp = -2.0 * k2r / s + 2.0 * gg * r / s2 + lam * (rr - 1.0) * r

        s = t + _C3 * h
        g = f + h * (_A3_1 * k1f + _A3_2 * k2f)
        k3f = fp + h * (_A3_1 * k1fp + _A3_2 * k2fp)
        r = rho + h * (_A3_1 * k1r + _A3_2 * k2r)
        k3r = rhop + h * (_A3_1 * k1rp + _A3_2 * k2rp)
        s2 = s * s
        gg = g * g
        rr = r * r
        k3fp = g * ((gg - 1.0) / s2 + rr)
        k3rp = -2.0 * k3r / s + 2.0 * gg * r / s2 + lam * (rr - 1.0) * r

        s = t + _C4 * h
        g = f + h * (_A4_1 * k1f + _A4_3 * k3f)
        k4f = fp + h * (_A4_1 * k1fp + _A4_3 * k3fp)
        r = rho + h * (_A4_1 * k1r + _A4_3 * k3r)
        k4r = rhop + h * (_A4_1 * k1rp + _A4_3 * k3rp)
        s2 = s * s
        gg = g * g
        rr = r * r
        k4fp = g * ((gg - 1.0) / s2 + rr)
        k4rp = -2.0 * k4r / s + 2.0 * gg * r / s2 + lam * (rr - 1.0) * r

        s = t + _C5 * h
        g = f + h * (_A5_1 * k1f + _A5_3 * k3f + _A5_4 * k4f)
        k5f = fp + h * (_A5_1 * k1fp + _A5_3 * k3fp + _A5_4 * k4fp)
        r = rho + h * (_A5_1 * k1r + _A5_3 * k3r + _A5_4 * k4r)
        k5r = rhop + h * (_A5_1 * k1rp + _A5_3 * k3rp + _A5_4 * k4rp)
        s2 = s * s
        gg = g * g
        rr = r * r
        k5fp = g * ((gg - 1.0) / s2 + rr)
        k5rp = -2.0 * k5r / s + 2.0 * gg * r / s2 + lam * (rr - 1.0) * r

        s = t + _C6 * h
        g = f + h * (_A6_1 * k1f + _A6_4 * k4f + _A6_5 * k5f)
        k6f = fp + h * (_A6_1 * k1fp + _A6_4 * k4fp + _A6_5 * k5fp)
        r = rho + h * (_A6_1 * k1r + _A6_4 * k4r + _A6_5 * k5r)
        k6r = rhop + h * (_A6_1 * k1rp + _A6_4 * k4rp + _A6_5 * k5rp)
        s2 = s * s
        gg = g * g
        rr = r * r
        k6fp = g * ((gg - 1.0) / s2 + rr)
        k6rp = -2.0 * k6r / s + 2.0 * gg * r / s2 + lam * (rr - 1.0) * r

        s = t + _C7 * h
        g = f + h * (_A7_1 * k1f + _A7_4 * k4f + _A7_5 * k5f + _A7_6 * k6f)
        k7f = fp + h * (_A7_1 * k1fp + _A7_4 * k4fp + _A7_5 * k5fp + _A7_6 * k6fp)
        r = rho + h * (_A7_1 * k1r + _A7_4 * k4r + _A7_5 * k5r + _A7_6 * k6r)
        k7r = rhop + h * (_A7_1 * k1rp + _A7_4 * k4rp + _A7_5 * k5rp + _A7_6 * k6rp)
        s2 = s * s
        gg = g * g
        rr = r * r
        k7fp = g * ((gg - 1.0) / s2 + rr)
        k7rp = -2.0 * k7r / s + 2.0 * gg * r / s2 + lam * (rr - 1.0) * r

        s = t + _C8 * h
        g = f + h * (_A8_1 * k1f + _A8_4 * k4f + _A8_5 * k5f + _A8_6 * k6f + _A8_7 * k7f)
        k8f = fp + h * (_A8_1 * k1fp + _A8_4 * k4fp + _A8_5 * k5fp + _A8_6 * k6fp
                        + _A8_7 * k7fp)
        r = rho + h * (_A8_1 * k1r + _A8_4 * k4r + _A8_5 * k5r + _A8_6 * k6r + _A8_7 * k7r)
        k8r = rhop + h * (_A8_1 * k1rp + _A8_4 * k4rp + _A8_5 * k5rp + _A8_6 * k6rp
                          + _A8_7 * k7rp)
        s2 = s * s
        gg = g * g
        rr = r * r
        k8fp = g * ((gg - 1.0) / s2 + rr)
        k8rp = -2.0 * k8r / s + 2.0 * gg * r / s2 + lam * (rr - 1.0) * r

        s = t + _C9 * h
        g = f + h * (_A9_1 * k1f + _A9_4 * k4f + _A9_5 * k5f + _A9_6 * k6f + _A9_7 * k7f
                     + _A9_8 * k8f)
        k9f = fp + h * (_A9_1 * k1fp + _A9_4 * k4fp + _A9_5 * k5fp + _A9_6 * k6fp
                        + _A9_7 * k7fp + _A9_8 * k8fp)
        r = rho + h * (_A9_1 * k1r + _A9_4 * k4r + _A9_5 * k5r + _A9_6 * k6r + _A9_7 * k7r
                       + _A9_8 * k8r)
        k9r = rhop + h * (_A9_1 * k1rp + _A9_4 * k4rp + _A9_5 * k5rp + _A9_6 * k6rp
                          + _A9_7 * k7rp + _A9_8 * k8rp)
        s2 = s * s
        gg = g * g
        rr = r * r
        k9fp = g * ((gg - 1.0) / s2 + rr)
        k9rp = -2.0 * k9r / s + 2.0 * gg * r / s2 + lam * (rr - 1.0) * r

        s = t + _C10 * h
        g = f + h * (_A10_1 * k1f + _A10_4 * k4f + _A10_5 * k5f + _A10_6 * k6f
                     + _A10_7 * k7f + _A10_8 * k8f + _A10_9 * k9f)
        k10f = fp + h * (_A10_1 * k1fp + _A10_4 * k4fp + _A10_5 * k5fp + _A10_6 * k6fp
                         + _A10_7 * k7fp + _A10_8 * k8fp + _A10_9 * k9fp)
        r = rho + h * (_A10_1 * k1r + _A10_4 * k4r + _A10_5 * k5r + _A10_6 * k6r
                       + _A10_7 * k7r + _A10_8 * k8r + _A10_9 * k9r)
        k10r = rhop + h * (_A10_1 * k1rp + _A10_4 * k4rp + _A10_5 * k5rp + _A10_6 * k6rp
                           + _A10_7 * k7rp + _A10_8 * k8rp + _A10_9 * k9rp)
        s2 = s * s
        gg = g * g
        rr = r * r
        k10fp = g * ((gg - 1.0) / s2 + rr)
        k10rp = -2.0 * k10r / s + 2.0 * gg * r / s2 + lam * (rr - 1.0) * r

        s = t + _C11 * h
        g = f + h * (_A11_1 * k1f + _A11_4 * k4f + _A11_5 * k5f + _A11_6 * k6f
                     + _A11_7 * k7f + _A11_8 * k8f + _A11_9 * k9f + _A11_10 * k10f)
        k11f = fp + h * (_A11_1 * k1fp + _A11_4 * k4fp + _A11_5 * k5fp + _A11_6 * k6fp
                         + _A11_7 * k7fp + _A11_8 * k8fp + _A11_9 * k9fp + _A11_10 * k10fp)
        r = rho + h * (_A11_1 * k1r + _A11_4 * k4r + _A11_5 * k5r + _A11_6 * k6r
                       + _A11_7 * k7r + _A11_8 * k8r + _A11_9 * k9r + _A11_10 * k10r)
        k11r = rhop + h * (_A11_1 * k1rp + _A11_4 * k4rp + _A11_5 * k5rp + _A11_6 * k6rp
                           + _A11_7 * k7rp + _A11_8 * k8rp + _A11_9 * k9rp
                           + _A11_10 * k10rp)
        s2 = s * s
        gg = g * g
        rr = r * r
        k11fp = g * ((gg - 1.0) / s2 + rr)
        k11rp = -2.0 * k11r / s + 2.0 * gg * r / s2 + lam * (rr - 1.0) * r

        s = t + h
        g = f + h * (_A12_1 * k1f + _A12_4 * k4f + _A12_5 * k5f + _A12_6 * k6f
                     + _A12_7 * k7f + _A12_8 * k8f + _A12_9 * k9f + _A12_10 * k10f
                     + _A12_11 * k11f)
        k12f = fp + h * (_A12_1 * k1fp + _A12_4 * k4fp + _A12_5 * k5fp + _A12_6 * k6fp
                         + _A12_7 * k7fp + _A12_8 * k8fp + _A12_9 * k9fp + _A12_10 * k10fp
                         + _A12_11 * k11fp)
        r = rho + h * (_A12_1 * k1r + _A12_4 * k4r + _A12_5 * k5r + _A12_6 * k6r
                       + _A12_7 * k7r + _A12_8 * k8r + _A12_9 * k9r + _A12_10 * k10r
                       + _A12_11 * k11r)
        k12r = rhop + h * (_A12_1 * k1rp + _A12_4 * k4rp + _A12_5 * k5rp + _A12_6 * k6rp
                           + _A12_7 * k7rp + _A12_8 * k8rp + _A12_9 * k9rp + _A12_10 * k10rp
                           + _A12_11 * k11rp)
        s2 = s * s
        gg = g * g
        rr = r * r
        k12fp = g * ((gg - 1.0) / s2 + rr)
        k12rp = -2.0 * k12r / s + 2.0 * gg * r / s2 + lam * (rr - 1.0) * r

        fn = f + h * (_B1 * k1f + _B6 * k6f + _B7 * k7f + _B8 * k8f + _B9 * k9f
                      + _B10 * k10f + _B11 * k11f + _B12 * k12f)
        fpn = fp + h * (_B1 * k1fp + _B6 * k6fp + _B7 * k7fp + _B8 * k8fp + _B9 * k9fp
                        + _B10 * k10fp + _B11 * k11fp + _B12 * k12fp)
        rn = rho + h * (_B1 * k1r + _B6 * k6r + _B7 * k7r + _B8 * k8r + _B9 * k9r
                        + _B10 * k10r + _B11 * k11r + _B12 * k12r)
        rpn = rhop + h * (_B1 * k1rp + _B6 * k6rp + _B7 * k7rp + _B8 * k8rp + _B9 * k9rp
                          + _B10 * k10rp + _B11 * k11rp + _B12 * k12rp)

        if not (isfinite(fn) and isfinite(fpn) and isfinite(rn) and isfinite(rpn)):
            traj.ended = "blowup"
            traj.blowup_channel = "nonfinite"
            return

        # Hairer's error norm: the rms of the fifth-order estimate e5 times
        # |e5| / |(e5, e3 / 10)|, a factor near 1 unless the third-order
        # estimate e3 is more than ten times larger.  a and b are the
        # scaled fifth- and third-order estimates of each component, over
        # the scales atol + rel * max(|y|, |y_new|), each max(u, v) written
        # as the comparison that gives its value, v if v > u else u.
        u, v = abs(f), abs(fn)
        sf = atol + rel * (v if v > u else u)
        u, v = abs(fp), abs(fpn)
        sfp = atol + rel * (v if v > u else u)
        u, v = abs(rho), abs(rn)
        sr = atol + rel * (v if v > u else u)
        u, v = abs(rhop), abs(rpn)
        srp = atol + rel * (v if v > u else u)
        af = (_E5_1 * k1f + _E5_6 * k6f + _E5_7 * k7f + _E5_8 * k8f
              + _E5_9 * k9f + _E5_10 * k10f + _E5_11 * k11f + _E5_12 * k12f) / sf
        afp = (_E5_1 * k1fp + _E5_6 * k6fp + _E5_7 * k7fp + _E5_8 * k8fp
               + _E5_9 * k9fp + _E5_10 * k10fp + _E5_11 * k11fp + _E5_12 * k12fp) / sfp
        ar = (_E5_1 * k1r + _E5_6 * k6r + _E5_7 * k7r + _E5_8 * k8r
              + _E5_9 * k9r + _E5_10 * k10r + _E5_11 * k11r + _E5_12 * k12r) / sr
        arp = (_E5_1 * k1rp + _E5_6 * k6rp + _E5_7 * k7rp + _E5_8 * k8rp
               + _E5_9 * k9rp + _E5_10 * k10rp + _E5_11 * k11rp + _E5_12 * k12rp) / srp
        bf = (_E3_1 * k1f + _E3_6 * k6f + _E3_7 * k7f + _E3_8 * k8f
              + _E3_9 * k9f + _E3_10 * k10f + _E3_11 * k11f + _E3_12 * k12f) / sf
        bfp = (_E3_1 * k1fp + _E3_6 * k6fp + _E3_7 * k7fp + _E3_8 * k8fp
               + _E3_9 * k9fp + _E3_10 * k10fp + _E3_11 * k11fp + _E3_12 * k12fp) / sfp
        br = (_E3_1 * k1r + _E3_6 * k6r + _E3_7 * k7r + _E3_8 * k8r
              + _E3_9 * k9r + _E3_10 * k10r + _E3_11 * k11r + _E3_12 * k12r) / sr
        brp = (_E3_1 * k1rp + _E3_6 * k6rp + _E3_7 * k7rp + _E3_8 * k8rp
               + _E3_9 * k9rp + _E3_10 * k10rp + _E3_11 * k11rp + _E3_12 * k12rp) / srp
        e5 = af ** 2 + afp ** 2 + ar ** 2 + arp ** 2
        e3 = bf ** 2 + bfp ** 2 + br ** 2 + brp ** 2
        err = 0.0 if e5 == 0.0 else h * e5 / math.sqrt((e5 + 0.01 * e3) * 4.0)

        if err > 1.0:
            h *= max(0.2, min(1.0, 0.9 * err ** -0.125))
            if h < 1e-13 * max(1.0, t):
                raise StiffnessError(f"step size underflow at t = {t}")
            continue

        # stage 13, the next step's first, at the accepted state
        s = t + h
        s2 = s * s
        gg = fn * fn
        rr = rn * rn
        k13fp = fn * ((gg - 1.0) / s2 + rr)
        k13rp = -2.0 * rpn / s + 2.0 * gg * rn / s2 + lam * (rr - 1.0) * rn
        y_new = (fn, fpn, rn, rpn)
        seg = DenseSegment(t, h, y_acc, y_new, (
            (k1f, k2f, k3f, k4f, k5f, k6f, k7f, k8f, k9f, k10f, k11f, k12f, fpn),
            (k1fp, k2fp, k3fp, k4fp, k5fp, k6fp, k7fp, k8fp, k9fp, k10fp, k11fp, k12fp, k13fp),
            (k1r, k2r, k3r, k4r, k5r, k6r, k7r, k8r, k9r, k10r, k11r, k12r, rpn),
            (k1rp, k2rp, k3rp, k4rp, k5rp, k6rp, k7rp, k8rp, k9rp, k10rp, k11rp, k12rp, k13rp),
        ), lam)
        # most steps change no event function's sign
        terminal = _sign_change(y_acc, y_new) and _scan_events(traj, seg, y_acc, y_new)
        add_seg(seg)
        t += h
        f, fp, rho, rhop = y_acc = y_new
        add_t(t)
        add_y(y_acc)
        if terminal:
            traj.ended = "event"
            return
        if _ends_in_blowup(traj, y_acc):
            return
        k1f, k1fp, k1r, k1rp = fpn, k13fp, rpn, k13rp  # first-same-as-last
        # h = min(h * fac, max_step) for fac = min(10.0, max(0.2, 0.9 * err
        # ** -0.125)), or 10.0 at err = 0.0, by the comparisons that give
        # each max's and min's value
        if err == 0.0:
            fac = 10.0
        else:
            fac = 0.9 * err ** -0.125
            fac = fac if fac > 0.2 else 0.2
            fac = fac if fac < 10.0 else 10.0
        h *= fac
        h = max_step if max_step < h else h

    traj.ended = "t_max"


def _scan_events(traj: Trajectory, seg, ya: tuple, yb: tuple) -> bool:
    """Refine the gauge crossings over one accepted step or series piece.

    Called only where _sign_change fired, so at least one row of _EVENTS
    crosses.  True if a terminal event fired.  Each gauge crossing is
    bisected on the one component of seg (a DenseSegment or a
    _SeriesPiece) whose sign changes, and the full state is read once at
    the refined time.  The Higgs rows that cross are only recorded, with
    seg; reading traj.rho_events refines them the same way and keeps those
    strictly before the terminal gauge event, which is what a scan that
    refined and time-sorted every row, gauge rows first, would have logged.
    """
    gauge, higgs = [], []
    for tag, row in _EVENTS.items():
        if row.crosses(ya, yb):
            (gauge if row.i < 2 else higgs).append((tag, row))
    terminal = False
    if gauge:
        found = _refined(seg, gauge)
        if len(found) == 2 and abs(found[0][0] - found[1][0]) <= EVENT_TOL:
            raise IntegrityError(
                f"simultaneous f = 0 and f' = 0 near t = {found[0][0]}: "
                "the gauge channel cannot vanish to second order")
        for ev in _counted(found):
            traj.f_events.append(ev)
            if not ev.in_tube or traj._to_gauge_event:
                terminal = True
                break
    if higgs:
        traj._rho_pending.append((seg, higgs))
    return terminal


def _refined(seg, rows: list) -> list:
    """(t, tag, row, state) of each (tag, row) crossing over seg, in time order."""
    found = []
    for tag, row in rows:
        t_e = refine_event(seg.component(row.i), seg.t, seg.t_end, row.level)
        found.append((t_e, tag, row, PhaseState(t_e, *seg.eval(t_e))))
    found.sort(key=lambda item: item[0])
    return found


def _counted(found: list):
    """The events of _refined's crossings, each one inside its row's window."""
    for t_e, tag, row, state in found:
        if row.window is not None:
            name, lo, hi = row.window
            if not lo < getattr(state, name) < hi:
                continue  # only a crossing inside its physical window counts
        yield Event(tag=tag, t=t_e, state=state, in_tube=in_tube(state))


def classify(traj: Trajectory, mode: ClassifyMode) -> Outcome:
    """Map a finished trajectory to its outcome under the requested fate.

    FFate reads the gauge channel: the first out-of-tube f event, else
    blowup, else the tube test at the final state (Converged/Horizon).
    RhoFate reads the Higgs channel the same way.  An in-tube event is
    ignored unless the trajectory later leaves the tube on the same side
    the event pointed to, in which case it was the first visible sign of
    a genuine escape and is promoted to the verdict.  So is the last
    in-tube gauge event of a run whose rho blows up while f is still in
    the tube: the growing rho^2 f term of f'' then pushes f further in
    the direction of its own sign, so the side that event pointed to
    holds.  A run with no sample, whose series overflows, is Blowup at
    t0 in either mode.
    """
    if not traj.ended:
        raise DomainError("classify needs a finished trajectory")
    if not traj.ts:
        # a run whose series overflows (see integrate_series)
        return Outcome(tag=OutcomeTag.BLOWUP, t_event=traj.controls.t0,
                       detail=traj.blowup_channel)
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
        if (mode is ClassifyMode.F_FATE and events and traj.blowup_channel == "rho"
                and abs(last.f) < TUBE):
            ev = events[-1]
            return Outcome(tag=ev.tag, t_event=ev.t, state=ev.state,
                           detail="tube event before rho blowup")
        return Outcome(tag=OutcomeTag.BLOWUP, t_event=traj.t_end,
                       state=last, detail=traj.blowup_channel)
    if in_tube(last):
        return Outcome(tag=OutcomeTag.CONVERGED, t_event=None, state=last)
    return Outcome(tag=OutcomeTag.HORIZON, t_event=None, state=last)


def _promote_tube_event(events, last: PhaseState, mode: ClassifyMode) -> Event | None:
    # An in-tube wiggle followed by a tube exit on its side is a real escape.
    if mode is ClassifyMode.F_FATE:
        side = -1 if last.f >= TUBE else 1 if last.f <= -TUBE else 0
    else:
        b = last.asymptote
        side = -1 if b <= 1.0 - TUBE else 1 if b >= 1.0 + TUBE else 0
    return next((ev for ev in events if _EVENTS[ev.tag].side == side), None)
