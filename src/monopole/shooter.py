"""Two-parameter topological shooting for the monopole boundary value problem.

The boundary value problem is solved as two nested one-dimensional
bracket searches on the origin data (alpha, beta).  Each shot is a Probe
(its side of the separatrix and, when measured, signed distance), and a
Bracket is two end Probes: two finders return one, and one loop, _narrow,
narrows its ends by ITP steps on their distances, bisection fallback:

  inner   at fixed beta, the gauge channel dichotomy (f' turns up versus
          f crosses zero) brackets and narrows alpha to the separatrix
          alpha*(beta); the distance is -/+exp(-2 t_event);
  outer   the Higgs fate of the alpha*(beta) trajectory (stalling versus
          overshooting the vacuum) narrows beta; the distance is the vev
          gap b - 1 that the linear Higgs tail reaches at the horizon,
          read at the end of the run or, when a Higgs event decided the
          side and the horizon tells the Higgs tail's two modes apart
          (_modes_split), shortly before that event.

An outer probe's inner search starts from a pair centred on the secant
prediction of alpha*(beta) through the last two inner answers, and it
stops before tol_alpha once the Higgs side is settled: both end runs
meet the same Higgs event well before their gauge events, and so does
the midpoint run.  Only the side of an outer probe is read, so a wider
alpha bracket costs nothing there; the final inner solve at beta* is
narrowed to tol_alpha.

Near the double separatrix every numerical trajectory eventually peels
off, since the gauge deviation grows like e^t and, for lambda_hat > 0,
the Higgs deviation like e^{sqrt(2 lambda_hat) t}.  Two consequences
shape the code: a gauge probe still undecided at the horizon is
continued once, to 4x t_max, up to its first gauge event, which the
exponential separation makes the verdict (a Higgs fate is read at the
plain horizon, off the vev gap when no Higgs event decided it); and the
solver finishes with a polish pass at profile-grade tolerance, reporting
a profile that demonstrably entered the tube; analysis.graft_tail
continues that run past its graft radius and the diagnostics read it there.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from . import analysis
from .errors import BracketingError, DomainError, IntegrityError, MonopoleError
from .integrator import (ClassifyMode, IntegratorControls, Outcome, OutcomeTag,
                         Trajectory, classify, extend, integrate_series)
from .model import PhaseState, check_lambda_hat
from .origin_series import (OriginSeries, ShootPoint, check_t0, expand_batch,
                            expand_series)

__all__ = [
    "Probe",
    "Bracket",
    "AlphaResult",
    "SolveReport",
    "OutcomeGrid",
    "shoot",
    "bracket_alpha",
    "bisect_alpha",
    "bisect_beta",
    "sweep",
]

_ALPHA_FLOOR = 1e-12
_ALPHA_CEIL = 1e12
_BETA_FLOOR = 1e-12
_BETA_CEIL = 1e12
# Starting points of the bracket searches: the lambda_hat = 0 answer.
_ALPHA_SEED = 1.0 / 6.0
_BETA_SEED = 1.0 / 3.0
# Multiple of t_max an undecided gauge probe is continued to (_gauge_fate).
_ESCALATION = 4
# The predicted inner pair (see _Continuation): its half-width in
# multiples of the last prediction's miss and of tol_alpha, and its tries.
_MISS_MARGIN = 4.0
_TOL_MARGIN = 64.0
_PAIR_TRIES = 3
# How much a centred pair that does not straddle widens per try.
_WIDEN = 8.0
# How long before its gauge event an end run's Higgs event must come for
# an inner solve to stop early (see _settled_side).
_SETTLE_LEAD = 0.5
# Largest share e^{-2k t_max} of the growing Higgs mode that the decaying
# one may keep at the horizon for the horizon to tell them apart (see
# _modes_split); at t_max = 12 this needs lambda_hat > 0.0184.
_MODE_SPLIT = 0.01
# Fewest points a sweep expands lane-wise at once (expand_batch): fewer
# lanes cost more per point than the scalar recurrence.
_SWEEP_BATCH = 128


def shoot(point: ShootPoint | OriginSeries, lambda_hat: float,
          controls: IntegratorControls) -> Trajectory:
    """The run of (alpha, beta): the origin series to its reach, then DOP853.

    point is the ShootPoint, or the series that expand_series or
    expand_batch gave for it at lambda_hat, which carries alpha and beta;
    a series of another lambda_hat is a domain error, and so is a handoff
    radius controls.t0 that check_t0 refuses.  integrator.integrate_series
    runs it: it starts on the series at min(t0, reach) and hands over to
    the adaptive integrator at the reach, so no run depends on t0 past
    where its samples begin.  It also reads an immediate turn of f below
    that start, and ends a series whose coefficients overflow as a
    non-finite blowup at t0.
    """
    if not isinstance(point, OriginSeries):
        series = expand_series(point, lambda_hat)
    elif point.lambda_hat != lambda_hat:
        raise DomainError(f"the series of lambda_hat = {point.lambda_hat} cannot "
                          f"start a run at lambda_hat = {lambda_hat}")
    else:
        series = point
    check_t0(controls.t0)
    return integrate_series(series, controls)


def _gauge_fate(point: ShootPoint, lambda_hat: float,
                controls: IntegratorControls) -> tuple[Outcome, Trajectory]:
    """FFate, continuing an undecided run, and the run over the plain horizon.

    An undecided run, including one still inside the tube at the
    horizon, is continued once, to _ESCALATION times t_max, and ends at
    its first gauge event, in the tube or not: the e^t growth of the
    gauge deviation brings any offset above the integration noise floor
    to one there.  That event is the verdict.  Near the separatrix
    f'' = f ((f^2 - 1)/t^2 + rho^2) has the sign of f once rho^2 >
    (1 - f^2)/t^2, so past its first gauge event f runs away on that
    event's side, and no later event or tube exit can choose the other.
    A continuation that meets no gauge event is classified at the longer
    horizon.  The run returned is the shot at controls.t_max, which
    extend leaves as it was.
    """
    run = shoot(point, lambda_hat, controls)
    out = classify(run, ClassifyMode.F_FATE)
    if out.tag in (OutcomeTag.HORIZON, OutcomeTag.CONVERGED):
        far = replace(controls, t_max=controls.t_max * _ESCALATION)
        out = classify(extend(run, far), ClassifyMode.F_FATE)
    return out, run


def _higgs_distance(state: PhaseState, lambda_hat: float, t_max: float) -> float:
    """The vev gap that the linear Higgs tail through state reaches at t_max.

    With k = sqrt(2 lambda_hat), the linearized tail u = t (1 - rho) is
    B e^{-kt} + C e^{kt}, and the extrapolated vev gap b - 1 = rho +
    t rho' - 1 is -u'.  Returns that gap at t_max over cosh(k t_max),
    which reads the same at every radius of the tail: -2kC, the
    growing-mode amplitude, offset by the decaying mode as the gap at
    t_max sees it (2kB e^{-2k t_max}), over 1 + e^{-2k t_max}.  At
    state.t = t_max it is the gap there over cosh(kt), and at
    lambda_hat = 0 the vev gap b - 1, bit for bit.
    """
    k = math.sqrt(2.0 * lambda_hat)
    t = state.t
    gap = state.asymptote - 1.0
    ku = k * t * (state.rho - 1.0)
    return (((gap + ku) * math.exp(-k * t) + (gap - ku) * math.exp(k * (t - 2.0 * t_max)))
            / (1.0 + math.exp(-2.0 * k * t_max)))


def _modes_split(lambda_hat: float, t_max: float) -> bool:
    """Whether the outer distances may steer the beta search past the seed.

    True at lambda_hat = 0, where the tail u = B + C t has b - 1 = -C
    with no decaying part, and where the horizon tells the two modes of
    the massive tail apart, e^{-2k t_max} < _MODE_SPLIT.  Below that
    Higgs mass the Higgs side is not monotone in beta: steps sized by
    the distances can jump from one of its sign changes to another, so
    event-decided probes carry no distance and the expansion keeps its
    4x steps, as the midpoint search did.
    """
    return lambda_hat == 0.0 or \
        math.exp(-2.0 * math.sqrt(2.0 * lambda_hat) * t_max) < _MODE_SPLIT


def _event_distance(run: Trajectory, out: Outcome, lambda_hat: float) -> float:
    """_higgs_distance to run's horizon, _SETTLE_LEAD before its Higgs event out.

    The radius is clipped into the run, which ends by its horizon.
    """
    t = min(max(out.t_event - _SETTLE_LEAD, run.ts[0]), run.t_end)
    return _higgs_distance(run.state_at(t), lambda_hat, run.controls.t_max)


@dataclass(frozen=True)
class Probe:
    """What one probe of a bracket search measured at parameter value x.

    side is -1 below the separatrix, +1 above it and 0 for a probe that
    lands on neither side; distance is the signed distance to the
    separatrix when the probe measured one, else None; outcome is the
    classifier verdict that decided the side.  run is the trajectory of a
    gauge probe over the plain horizon, else None.
    """

    x: float
    side: int
    distance: float | None
    outcome: Outcome | None
    run: Trajectory | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Bracket:
    """End Probes on opposite sides of a separatrix: lo below it, hi above."""

    lo: Probe
    hi: Probe

    @property
    def width(self) -> float:
        return self.hi.x - self.lo.x

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if not (hi.x > lo.x > 0.0 and (lo.side, hi.side) == (-1, 1)):
            raise DomainError(f"bracket needs hi > lo > 0 on sides (-1, 1), got "
                              f"[{lo.x}, {hi.x}] on sides ({lo.side}, {hi.side})")


@dataclass
class AlphaResult:
    """Inner bisection verdict at one beta."""

    alpha_star: float
    bracket: Bracket
    trajectory: Trajectory          # run at alpha_star over the plain horizon
    resolved: str = "bisection"     # | "settled" | "rho_blowup" | "tube" | "horizon"


def _expand_bracket(probe, seed: float, floor: float, ceil: float,
                    name: str, sized: bool = False) -> tuple[Probe, Probe]:
    """Geometric search from seed for end Probes on opposite sides.

    probe(x) returns the Probe at x; side-0 probes are skipped.  Probes go
    up by 4x from seed until one lands above, then down by 4x from seed
    until one lands below; upper probes met on the way down tighten the
    bracket from above.  With sized, the seed Probe's distance d is on
    the scale of x, and the first step toward the other side goes to
    seed - 4 d instead when that is the shorter step.  Only beta's
    distance, a vev gap, is on that scale; alpha's, -/+exp(-2 t_event),
    is not, so bracket_alpha keeps the plain 4x steps.  Leaving
    [floor, ceil] raises BracketingError carrying the outcome tag of
    every probed point.
    """
    if not (floor <= seed <= ceil):
        raise DomainError(f"{name} seed {seed} outside [{floor}, {ceil}]")
    probed: dict[float, OutcomeTag] = {}
    ends: dict[int, Probe] = {}

    def take(x: float) -> Probe:
        p = probe(x)
        probed[x] = p.outcome.tag
        if p.side:
            ends[p.side] = p
        return p

    d = take(seed).distance
    for side, factor, limit, way in ((1, 4.0, ceil, "upper side found up"),
                                     (-1, 0.25, floor, "lower side found down")):
        x = seed * factor
        if sized and d is not None and min(seed, x) < seed - 4.0 * d < max(seed, x):
            x = seed - 4.0 * d
        while side not in ends:
            if not floor <= x <= ceil:
                raise BracketingError(f"no {way} to {name} = {limit}", probed)
            take(x)
            x *= factor
    return ends[-1], ends[1]


def _centred_bracket(probe, center: float, w: float, tries: int,
                     floor: float) -> tuple[Probe, Probe] | None:
    """End Probes at center -/+ w on opposite sides, or None.

    Each try probes max(center - w, floor) and, only when that lands
    below, center + w; a failed try widens w by _WIDEN.
    """
    for _ in range(tries):
        lo = probe(max(center - w, floor))
        if lo.side < 0:
            hi = probe(center + w)
            if hi.side > 0:
                return lo, hi
        w *= _WIDEN
    return None


def _itp_point(lo: float, hi: float, d_lo: float | None, d_hi: float | None,
               w0: float, tol: float, j: int) -> float:
    """Next probe of a (-1, +1) bracket from the distances at its ends.

    d_lo < 0 <= d_hi are the signed distances measured at lo and hi.  ITP
    (Oliveira & Takahashi, ACM TOMS 47(1), 2021) with kappa1 = 0.2/w0,
    kappa2 = 2 and n0 = 1, where w0 is the width the search started from
    and j the number of probes made since: the regula falsi point, shifted
    toward the midpoint by kappa1 w^2 and kept within the distance of the
    midpoint that still narrows the bracket to tol in ceil(log2(w0/tol)) + 1
    probes (less a few ulps, so that rounding cannot cost an extra probe).
    The midpoint is returned when an end has no distance, tol is within
    a few ulps of the ends, or the point would leave (lo, hi).
    """
    mid = 0.5 * (lo + hi)
    tol_safe = tol - 4.0 * math.ulp(max(abs(lo), abs(hi)))
    if d_lo is None or d_hi is None or not d_lo < 0.0 <= d_hi or tol_safe <= 0.0:
        return mid
    w = hi - lo
    x_f = (d_hi * lo - d_lo * hi) / (d_hi - d_lo)
    sigma = 1.0 if mid >= x_f else -1.0
    delta = 0.2 / w0 * w * w
    x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
    n_max = math.ceil(math.log2(w0 / tol)) + 1
    r = max(0.5 * tol_safe * 2.0 ** (n_max - j) - 0.5 * w, 0.0)
    x = x_t if abs(x_t - mid) <= r else mid - sigma * r
    return x if lo < x < hi else mid


def _narrow(probe, lo: Probe, hi: Probe, tol: float,
            settled=None) -> tuple[Probe, Probe, Probe | None]:
    """Narrow the (-1, +1) bracket of end Probes lo, hi down to tol.

    Each step probes the ITP point of the ends' distances and the Probe
    replaces the end on its side.  A side-0 Probe stops the search and is
    returned third, None otherwise.  settled(lo, hi), when given, is
    asked before each step; a true answer ends the search early, with
    the bracket still wider than tol.
    """
    w0 = hi.x - lo.x
    n = 0
    while hi.x - lo.x > tol and not (settled is not None and settled(lo, hi)):
        x = _itp_point(lo.x, hi.x, lo.distance, hi.distance, w0, tol, n)
        if x <= lo.x or x >= hi.x:
            break  # float resolution
        n += 1
        p = probe(x)
        if p.side < 0:
            lo = p
        elif p.side > 0:
            hi = p
        else:
            return lo, hi, p
    return lo, hi, None


def _gauge_probe(beta: float, lambda_hat: float, controls: IntegratorControls):
    """Probe of alpha at fixed beta: the side of the gauge separatrix.

    FPrimeZero is below, FZero above, any other fate neither.  The
    distance is -/+exp(-2 t_event): t_event ~ -1/2 ln|alpha - alpha*| + c,
    so it is about linear in alpha near the separatrix.
    """
    def probe(a: float) -> Probe:
        out, run = _gauge_fate(ShootPoint(alpha=a, beta=beta), lambda_hat, controls)
        side = out.side
        return Probe(a, side, side * math.exp(-2.0 * out.t_event) if side else None,
                     out, run)
    return probe


def bracket_alpha(beta: float, lambda_hat: float, controls: IntegratorControls,
                  seed: float = _ALPHA_SEED) -> Bracket:
    """Expand geometrically from seed until the gauge dichotomy straddles.

    Probes that neither turn up nor cross (Higgs-channel blowups in the
    large-beta regime) cannot be assigned a side and are skipped.  Failure
    to find both sides within [1e-12, 1e12] raises BracketingError carrying
    every probed outcome.
    """
    if not (beta > 0.0):
        raise DomainError(f"bracket_alpha needs beta > 0, got {beta}")
    return Bracket(*_expand_bracket(_gauge_probe(beta, lambda_hat, controls),
                                    seed, _ALPHA_FLOOR, _ALPHA_CEIL, "alpha"))


def bisect_alpha(bracket: Bracket, beta: float, lambda_hat: float,
                 controls: IntegratorControls, tol_alpha: float = 1e-8) -> AlphaResult:
    """Narrow the gauge dichotomy down to tol_alpha with _narrow.

    The bracket's end Probes seed the loop; each probe is an ITP step on
    the ends' signed distances -/+exp(-2 t_event) (FPrimeZero below, FZero
    above), with bisection fallback; the answer is the final midpoint.

    A probe whose run ends in a Higgs-channel blowup with the gauge field
    still undecided is accepted as the working separatrix: for
    lambda_hat > 0 the Higgs deviation grows faster than the gauge
    deviation, so close enough to the separatrix the rho channel always
    explodes first and caps the achievable alpha resolution.  A run whose
    f already turned up or crossed zero inside the tube before the rho
    blowup is not undecided: classify reads its side from that event, and
    it narrows the bracket like any other probe.  A probe whose run,
    continued to 4x t_max, meets no gauge event and ends in the tube or
    at that horizon is accepted too.  A gauge-channel blowup inside a
    valid bracket contradicts the bracket endpoints and raises
    IntegrityError.
    """
    if not (math.isfinite(tol_alpha) and tol_alpha > 0.0):
        raise DomainError(f"tol_alpha must be positive and finite, got {tol_alpha}")
    return _bisect_alpha(bracket, beta, lambda_hat, controls, tol_alpha, settle=False)


def _settled_side(lo: Probe, hi: Probe) -> int:
    """The Higgs side that both end runs reach well before their gauge events.

    Each end's run over the plain horizon must meet a decisive RhoFate
    event (RhoPrimeZero or RhoZero below, RhoCrossVev above) at least
    _SETTLE_LEAD before its own gauge event, and the two sides must
    agree; 0 otherwise.  Up to their gauge events the runs of the alphas
    between the ends stay between the two end runs, so the run at
    alpha*(beta) meets a Higgs event on the same side.
    """
    sides = []
    for p in (lo, hi):
        out = classify(p.run, ClassifyMode.RHO_FATE)
        if not out.side or out.t_event > p.outcome.t_event - _SETTLE_LEAD:
            return 0
        sides.append(out.side)
    return sides[0] if sides[0] == sides[1] else 0


def _bisect_alpha(bracket: Bracket, beta: float, lambda_hat: float,
                  controls: IntegratorControls, tol_alpha: float,
                  settle: bool) -> AlphaResult:
    """bisect_alpha, which with settle may stop once the Higgs side is settled.

    With settle, _narrow stops as soon as _settled_side(lo, hi) names a
    side.  The midpoint is then probed: when its run meets a decisive
    Higgs event on that side, it is the answer ("settled"); otherwise it
    narrows the bracket like any probe and the search goes on to
    tol_alpha.
    """
    probe = _gauge_probe(beta, lambda_hat, controls)
    lo, hi, stop = _narrow(probe, bracket.lo, bracket.hi, tol_alpha,
                           _settled_side if settle else None)
    side = (_settled_side(lo, hi)
            if settle and stop is None and hi.x - lo.x > tol_alpha else 0)
    if side:
        mid = probe(0.5 * (lo.x + hi.x))
        out = classify(mid.run, ClassifyMode.RHO_FATE)
        if mid.side and out.side == side:
            return AlphaResult(alpha_star=mid.x, bracket=Bracket(lo, hi),
                               trajectory=mid.run, resolved="settled")
        if mid.side < 0:
            lo = mid
        elif mid.side > 0:
            hi = mid
        else:
            stop = mid
        if stop is None:
            lo, hi, stop = _narrow(probe, lo, hi, tol_alpha)
    if stop is None:
        alpha_star, resolved = 0.5 * (lo.x + hi.x), "bisection"
        final = shoot(ShootPoint(alpha=alpha_star, beta=beta), lambda_hat, controls)
    else:
        out = stop.outcome
        if out.tag is OutcomeTag.BLOWUP and out.detail != "rho":
            raise IntegrityError(
                f"gauge-channel blowup ({out.detail}) at alpha = {stop.x} inside "
                f"bracket [{lo.x}, {hi.x}]: endpoints cannot both be valid")
        # the stop probe has already shot alpha* over the plain horizon
        alpha_star, final = stop.x, stop.run
        resolved = {OutcomeTag.BLOWUP: "rho_blowup",
                    OutcomeTag.CONVERGED: "tube"}.get(out.tag, "horizon")
    return AlphaResult(alpha_star=alpha_star, bracket=Bracket(lo, hi),
                       trajectory=final, resolved=resolved)


@dataclass
class _Continuation:
    """alpha*(beta) along the separatrix, predicted from earlier inner solves.

    answers holds the last two (beta, alpha*); miss is how far the last
    prediction fell from its answer (None until one was made) and slack
    the width of the last inner bracket.
    """

    answers: list = field(default_factory=list)
    miss: float | None = None
    slack: float = 0.0

    def predict(self, beta: float) -> float:
        """Secant through the last two answers at beta.

        The last alpha* stands in with fewer than two answers, two equal
        betas or a prediction <= 0.
        """
        b1, a1 = self.answers[-1]
        if len(self.answers) > 1:
            b0, a0 = self.answers[-2]
            if b1 != b0:
                guess = a1 + (a1 - a0) * (beta - b1) / (b1 - b0)
                if guess > 0.0:
                    return guess
        return a1


def _alpha_at(beta: float, lambda_hat: float, controls: IntegratorControls,
              tol_alpha: float, track: _Continuation, settle: bool) -> AlphaResult:
    """Inner solve at beta, bracketed around track's predicted alpha*.

    The pair center -/+ max(_MISS_MARGIN miss, _TOL_MARGIN tol_alpha,
    2 slack) is tried first, _PAIR_TRIES times, widening by _WIDEN;
    before the first miss is known, or when no pair straddles, the
    bracket is expanded from the prediction (from the lambda_hat = 0
    answer before the first solve).  With settle the search may stop
    early, once the Higgs side is settled (see _bisect_alpha).  The
    answer goes into track.
    """
    center, ends = _ALPHA_SEED, None
    if track.answers:
        center = track.predict(beta)
        if track.miss is not None:
            margin = max(_MISS_MARGIN * track.miss, _TOL_MARGIN * tol_alpha,
                         2.0 * track.slack)
            if center - margin > 0.0:
                ends = _centred_bracket(_gauge_probe(beta, lambda_hat, controls),
                                        center, margin, _PAIR_TRIES, _ALPHA_FLOOR)
    bracket = (bracket_alpha(beta, lambda_hat, controls, seed=center)
               if ends is None else Bracket(*ends))
    ar = _bisect_alpha(bracket, beta, lambda_hat, controls, tol_alpha, settle)
    if track.answers:
        track.miss = abs(ar.alpha_star - center)
    track.answers = [*track.answers[-1:], (beta, ar.alpha_star)]
    track.slack = max(ar.bracket.width, tol_alpha)
    return ar


def _outer_side(ar: AlphaResult, out: Outcome,
                lambda_hat: float) -> tuple[int, float | None]:
    """Side and signed distance of the outer probe whose inner solve is ar.

    out is the Higgs fate of ar.trajectory, the run of ar's answer over
    the plain horizon.  A decisive Higgs event gives the side, and the
    distance is _higgs_distance at the plain horizon, read _SETTLE_LEAD
    before that event.  A settled inner solve's alpha is the midpoint of
    a bracket wider than tol_alpha, so there the distance is read on both
    end runs instead and interpolated linearly to the regula falsi alpha
    of their gauge distances.  An event distance is kept only where
    _modes_split and when its sign agrees with the side, else None.
    With no decisive event (the lambda_hat = 0 regime, a run in the tube
    or still undecided at the horizon, or one cut short by a blowup) the
    side is the sign of the extrapolated vev gap at the end of the run,
    and the distance that gap over cosh(k t_end), _higgs_distance there:
    the gap itself at lambda_hat = 0.
    """
    traj = ar.trajectory
    if not out.side:
        gap = traj.last_state().asymptote - 1.0
        e = math.exp(-math.sqrt(2.0 * lambda_hat) * traj.t_end)
        return (-1 if gap < 0.0 else 1), 2.0 * gap * e / (1.0 + e * e)
    if not _modes_split(lambda_hat, traj.controls.t_max):
        return out.side, None
    if ar.resolved == "settled":
        lo, hi = ar.bracket.lo, ar.bracket.hi
        h_lo, h_hi = (_event_distance(p.run, classify(p.run, ClassifyMode.RHO_FATE),
                                      lambda_hat) for p in (lo, hi))
        d = (hi.distance * h_lo - lo.distance * h_hi) / (hi.distance - lo.distance)
    else:
        d = _event_distance(traj, out, lambda_hat)
    return out.side, (d if (d < 0.0) == (out.side < 0) else None)


@dataclass
class SolveReport:
    """Everything the outer bisection learned, in the dimensionless frame."""

    lambda_hat: float
    alpha_star_hat: float
    beta_star_hat: float
    alpha_bracket: Bracket
    beta_bracket: Bracket
    converged: bool
    profile: "analysis.GraftedProfile | None"
    audit: "analysis.AuditReport | None"
    residual_norm: float | None
    energy: float | None
    outcome_log: list = field(default_factory=list)
    alpha_resolved: str = "bisection"
    controls: IntegratorControls | None = None

    @property
    def n_beta_evaluations(self) -> int:
        return len(self.outcome_log)


# Bracket widths, alpha and beta alike, of bisect_beta's stage one and polish.
_STAGE_ONE_TOL = 1e-8
_POLISH_TOL = 1e-11


def bisect_beta(lambda_hat: float, controls: IntegratorControls | None = None) -> SolveReport:
    """Outer bracket search in beta over the Higgs fate of alpha*(beta).

    Stalling outcomes (RhoPrimeZero, RhoZero, or an extrapolated
    asymptote below the vacuum) mean beta is too small; overshooting
    outcomes (RhoCrossVev or an asymptote above) mean too large.  Every
    probe reads its signed distance off runs it already holds (see
    _outer_side): the vev gap that the linear Higgs tail reaches at the
    horizon, on one scale whether or not a Higgs event decided the side.
    The bracket is expanded from the lambda_hat = 0 answer, with a first
    step of four times the seed's distance, and each _narrow probe is an
    ITP step on the distances, with bisection fallback where an end has
    none (a distance whose sign disagrees with its side is dropped).
    Where the horizon cannot tell the Higgs tail's two modes apart
    (not _modes_split: 0 < lambda_hat < 0.0184 at t_max = 12) only
    probes with no Higgs event carry a distance and the expansion keeps
    its 4x steps.  Tube-converged probes are recorded as candidates and
    the search continues to its bracket width, so the answer carries a
    genuine two-sided bracket.  Each probe's inner solve starts from the
    alpha* predicted by the earlier ones and may stop once the Higgs side
    is settled (see _alpha_at).

    Stage one narrows both parameters to _STAGE_ONE_TOL at the controls'
    tolerances, then the solve polishes: it re-brackets the answer with a
    widening centred pair at profile-grade tolerance (rel_tol <= 1e-12,
    abs_tol <= 1e-14) and narrows both parameters to _POLISH_TOL, near the
    deviation-noise floor.  The reported profile is the last inner solve's
    run; its seventh-order dense output keeps the interpolation noise that
    downstream finite differences see well below the residual target.
    """
    check_lambda_hat(lambda_hat)
    if controls is None:
        controls = IntegratorControls()

    log: list = []
    track = _Continuation()
    candidate = None

    def probe(beta: float, c: IntegratorControls, tol_a: float) -> Probe:
        """Side -1 when alpha*(beta) stalls below the vacuum, +1 when it overshoots.

        The side and the distance are _outer_side's.
        """
        nonlocal candidate
        ar = _alpha_at(beta, lambda_hat, c, tol_a, track, settle=True)
        out = classify(ar.trajectory, ClassifyMode.RHO_FATE)
        side, distance = _outer_side(ar, out, lambda_hat)
        if out.tag is OutcomeTag.CONVERGED:
            candidate = (beta, ar)
        log.append((beta, ar.alpha_star, out.tag.value, "A" if side < 0 else "B"))
        return Probe(beta, side, distance, out)

    # Stage one: the controls' integration tolerances.
    lo, hi = _expand_bracket(lambda b: probe(b, controls, _STAGE_ONE_TOL),
                             _BETA_SEED, _BETA_FLOOR, _BETA_CEIL, "beta",
                             sized=_modes_split(lambda_hat, controls.t_max))
    lo, hi, _ = _narrow(lambda b: probe(b, controls, _STAGE_ONE_TOL),
                        lo, hi, _STAGE_ONE_TOL)

    # Stage two: profile-grade polish around the stage-one answer.
    pcontrols = replace(controls,
                        rel_tol=min(controls.rel_tol, 1e-12),
                        abs_tol=min(controls.abs_tol, 1e-14))
    # Re-bracket the stage-one answer at 8x its width, 8x wider per try.
    w = max(hi.x - lo.x, _STAGE_ONE_TOL)
    center = 0.5 * (lo.x + hi.x)
    ends = _centred_bracket(lambda b: probe(b, pcontrols, _POLISH_TOL),
                            center, 8.0 * w, 12, _BETA_FLOOR)
    if ends is None:
        raise BracketingError(
            f"could not re-bracket beta near {center} at polish tolerance")
    lo, hi, _ = _narrow(lambda b: probe(b, pcontrols, _POLISH_TOL), *ends, _POLISH_TOL)
    beta_bracket = Bracket(lo, hi)

    beta_star = 0.5 * (lo.x + hi.x)
    ar_star = _alpha_at(beta_star, lambda_hat, pcontrols, _POLISH_TOL, track,
                        settle=False)

    def in_tube(traj: Trajectory) -> bool:
        return (classify(traj, ClassifyMode.F_FATE).tag is OutcomeTag.CONVERGED
                and classify(traj, ClassifyMode.RHO_FATE).tag is OutcomeTag.CONVERGED)

    profile_traj = ar_star.trajectory
    converged = in_tube(profile_traj)
    if not converged and candidate is not None:
        cand_beta, cand_ar = candidate
        cand_traj = cand_ar.trajectory
        if cand_traj.controls != pcontrols:
            cand_traj = shoot(ShootPoint(alpha=cand_ar.alpha_star, beta=cand_beta),
                              lambda_hat, pcontrols)
        if in_tube(cand_traj):
            beta_star, ar_star = cand_beta, cand_ar
            profile_traj, converged = cand_traj, True

    # Diagnostics are only meaningful for a tube-bound profile; an
    # unconverged solve reports its parameter estimates and no numbers.
    profile = audit = residual = energy = None
    if converged:
        try:
            profile = analysis.graft_tail(profile_traj)
            audit = analysis.monotonicity_audit(profile)
            residual = analysis.residual_norm(profile)
            energy = analysis.mass_integral(profile)
        except MonopoleError:
            profile = audit = residual = energy = None
            converged = False

    return SolveReport(
        lambda_hat=lambda_hat, alpha_star_hat=ar_star.alpha_star,
        beta_star_hat=beta_star, alpha_bracket=ar_star.bracket,
        beta_bracket=beta_bracket, converged=converged, profile=profile,
        audit=audit, residual_norm=residual, energy=energy,
        outcome_log=log, alpha_resolved=ar_star.resolved, controls=controls)


def sweep(alphas, betas, lambda_hat: float,
          controls: IntegratorControls | None = None,
          workers: int = 1) -> "OutcomeGrid":
    """Classify every (alpha, beta) pair on the grid, gauge fate first.

    Every alpha and beta, and the handoff radius, is checked before
    anything runs.  The origin series are expanded lane-wise
    (expand_batch) in batches of whole rows (fixed alpha) holding at least
    _SWEEP_BATCH points, or the whole grid, together with the states of
    their runs' series spans, and each point is shot from its series.
    workers > 1 distributes each batch's rows over at most one process
    per row; a batch holds at least one row per process.  Output ordering
    is row-major by alpha then beta regardless of worker count.
    """
    alphas = [float(a) for a in alphas]
    betas = [float(b) for b in betas]
    if not alphas or not betas:
        raise DomainError("sweep needs non-empty grids")
    check_lambda_hat(lambda_hat)
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    if controls is None:
        controls = IntegratorControls()
    # refused as a ShootPoint and shoot refuse them, before any expansion
    # or shot
    for a in alphas:
        ShootPoint(alpha=a, beta=0.0)
    for b in betas:
        ShootPoint(alpha=0.0, beta=b)
    check_t0(controls.t0)
    # the pool starts all its processes at once, so at most one per row;
    # a batch is whole rows, at least one per process, so that every
    # process has a row in each batch
    workers = min(workers, len(alphas))
    n_rows, n = max(-(-_SWEEP_BATCH // len(betas)), workers), len(betas)
    rows = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = pool.map if pool else map
        for lo in range(0, len(alphas), n_rows):
            block = alphas[lo:lo + n_rows]
            batch = expand_batch([a for a in block for _ in betas], betas * len(block),
                                 lambda_hat, controls.t0, controls.t_max)
            rows += run(_sweep_row, [(batch[j:j + n], lambda_hat, controls)
                                     for j in range(0, len(batch), n)])
    tags = [[cell[0] for cell in row] for row in rows]
    t_events = [[cell[1] for cell in row] for row in rows]
    return OutcomeGrid(alphas=alphas, betas=betas, tags=tags, t_events=t_events,
                       lambda_hat=lambda_hat)


def _sweep_row(arg):
    row_series, lambda_hat, controls = arg
    row = []
    for series in row_series:
        traj = shoot(series, lambda_hat, controls)
        out = classify(traj, ClassifyMode.F_FATE)
        if out.tag in (OutcomeTag.CONVERGED, OutcomeTag.HORIZON):
            rho_out = classify(traj, ClassifyMode.RHO_FATE)
            if rho_out.tag is not OutcomeTag.HORIZON:
                out = rho_out
        row.append((out.tag.value, out.t_event))
    return row


@dataclass
class OutcomeGrid:
    """Row-major outcome table of a parameter sweep."""

    alphas: list[float]
    betas: list[float]
    tags: list[list[str]]
    t_events: list[list[float | None]]
    lambda_hat: float

    def rows(self):
        """Yield (alpha, beta, tag, t_event) in row-major order."""
        for i, a in enumerate(self.alphas):
            for j, b in enumerate(self.betas):
                yield a, b, self.tags[i][j], self.t_events[i][j]
