"""The seventh-order dense output of a DOP853 step.

DenseSegment keeps an accepted step's thirteen stages and builds its
interpolant (Hairer, Norsett & Wanner, Solving ODEs I, II.10) only when
it is first read, at the cost of three more right-hand side calls.  The
three extra stages and the four D rows of the interpolant's higher
coefficients are written out over their rows' nonzero weights, in the
rows' order, as integrator._advance writes out a step's stages; a test
pins them to the sums over whole rows with ==.  The stages call
model._rhs through the module, as the integrator does, so the field
equations have one entry point to patch.

This is a module of its own, not part of integrator, only for memory:
an interpreter that compiles the package from source (as under
PYTHONDONTWRITEBYTECODE=1) peaks at the compile of its largest module,
and integrator with these written-out sums in it would be that module,
~0.5 MB above this split at import.
"""
from __future__ import annotations

from . import model


# The three extra stages of the seventh-order interpolant: their nodes,
# their rows over stages 1-13 (and the extra stages before them), and
# the D rows of the interpolant's four higher coefficients over all 16.
_C_EXTRA = (0.1, 0.2, 0.7777777777777778)
_A_EXTRA = (
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932,
     0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)
# The nonzero weights of those rows, named as the stages' are: _As_j for
# the extra stages s = 14, 15, 16 and _Dr_j for the D rows r = 1..4.
_C14, _C15, _C16 = _C_EXTRA
_A14_1, _A14_7, _A14_8, _A14_9, _A14_10, _A14_11, _A14_12, _A14_13 = (
    w for w in _A_EXTRA[0] if w)
_A15_1, _A15_6, _A15_7, _A15_8, _A15_11, _A15_12, _A15_13, _A15_14 = (
    w for w in _A_EXTRA[1] if w)
_A16_1, _A16_6, _A16_7, _A16_8, _A16_9, _A16_13, _A16_14, _A16_15 = (
    w for w in _A_EXTRA[2] if w)
(_D1_1, _D1_6, _D1_7, _D1_8, _D1_9, _D1_10, _D1_11, _D1_12, _D1_13, _D1_14, _D1_15,
 _D1_16) = (w for w in _D[0] if w)
(_D2_1, _D2_6, _D2_7, _D2_8, _D2_9, _D2_10, _D2_11, _D2_12, _D2_13, _D2_14, _D2_15,
 _D2_16) = (w for w in _D[1] if w)
(_D3_1, _D3_6, _D3_7, _D3_8, _D3_9, _D3_10, _D3_11, _D3_12, _D3_13, _D3_14, _D3_15,
 _D3_16) = (w for w in _D[2] if w)
(_D4_1, _D4_6, _D4_7, _D4_8, _D4_9, _D4_10, _D4_11, _D4_12, _D4_13, _D4_14, _D4_15,
 _D4_16) = (w for w in _D[3] if w)


class DenseSegment:
    """Seventh-order DOP853 interpolant over one accepted step [t, t + h].

    The segment keeps the step's thirteen stages, as four columns of
    thirteen derivatives (of f, f', rho and rho'), and builds the
    interpolant on its first read, at the cost of three more right-hand
    side calls: only steps whose end values bracket an event, and
    state_at or resample, ever pay for it.
    """

    __slots__ = ("t", "h", "y0", "y1", "lambda_hat", "_k", "_q")

    def __init__(self, t: float, h: float, y0: tuple, y1: tuple, k: tuple,
                 lambda_hat: float):
        self.t = t
        self.h = h
        self.y0 = y0
        self.y1 = y1
        self.lambda_hat = lambda_hat
        self._k = k
        self._q = None

    def _coeffs(self):
        # The extra stages and the D rows are written out over their rows'
        # nonzero weights, in the rows' order; the first three coefficients
        # match the end values and the end slopes (stages 1 and 13).
        if self._q is None:
            t, h, y0, k, lam = self.t, self.h, self.y0, self._k, self.lambda_hat
            k14 = model._rhs(t + _C14 * h, *[
                y + h * (_A14_1 * k1 + _A14_7 * k7 + _A14_8 * k8 + _A14_9 * k9
                         + _A14_10 * k10 + _A14_11 * k11 + _A14_12 * k12 + _A14_13 * k13)
                for y, (k1, _, _, _, _, _, k7, k8, k9, k10, k11, k12, k13) in zip(y0, k)], lam)
            k15 = model._rhs(t + _C15 * h, *[
                y + h * (_A15_1 * k1 + _A15_6 * k6 + _A15_7 * k7 + _A15_8 * k8
                         + _A15_11 * k11 + _A15_12 * k12 + _A15_13 * k13 + _A15_14 * k14)
                for y, (k1, _, _, _, _, k6, k7, k8, _, _, k11, k12, k13), k14
                in zip(y0, k, k14)], lam)
            k16 = model._rhs(t + _C16 * h, *[
                y + h * (_A16_1 * k1 + _A16_6 * k6 + _A16_7 * k7 + _A16_8 * k8
                         + _A16_9 * k9 + _A16_13 * k13 + _A16_14 * k14 + _A16_15 * k15)
                for y, (k1, _, _, _, _, k6, k7, k8, k9, _, _, _, k13), k14, k15
                in zip(y0, k, k14, k15)], lam)
            q = []
            for ya, yb, (k1, _, _, _, _, k6, k7, k8, k9, k10, k11, k12, k13), k14, k15, k16 \
                    in zip(y0, self.y1, k, k14, k15, k16):
                dy = yb - ya
                q.append((
                    dy, h * k1 - dy, 2.0 * dy - h * (k13 + k1),
                    h * (_D1_1 * k1 + _D1_6 * k6 + _D1_7 * k7 + _D1_8 * k8 + _D1_9 * k9
                         + _D1_10 * k10 + _D1_11 * k11 + _D1_12 * k12 + _D1_13 * k13
                         + _D1_14 * k14 + _D1_15 * k15 + _D1_16 * k16),
                    h * (_D2_1 * k1 + _D2_6 * k6 + _D2_7 * k7 + _D2_8 * k8 + _D2_9 * k9
                         + _D2_10 * k10 + _D2_11 * k11 + _D2_12 * k12 + _D2_13 * k13
                         + _D2_14 * k14 + _D2_15 * k15 + _D2_16 * k16),
                    h * (_D3_1 * k1 + _D3_6 * k6 + _D3_7 * k7 + _D3_8 * k8 + _D3_9 * k9
                         + _D3_10 * k10 + _D3_11 * k11 + _D3_12 * k12 + _D3_13 * k13
                         + _D3_14 * k14 + _D3_15 * k15 + _D3_16 * k16),
                    h * (_D4_1 * k1 + _D4_6 * k6 + _D4_7 * k7 + _D4_8 * k8 + _D4_9 * k9
                         + _D4_10 * k10 + _D4_11 * k11 + _D4_12 * k12 + _D4_13 * k13
                         + _D4_14 * k14 + _D4_15 * k15 + _D4_16 * k16)))
            self._q, self._k = q, None
        return self._q

    @property
    def t_end(self) -> float:
        return self.t + self.h

    def eval(self, t: float) -> tuple[float, float, float, float]:
        a, b, c, d = self._coeffs()
        f, fp, rho, rhop = self.y0
        x = (t - self.t) / self.h
        u = 1.0 - x
        return (_horner(f, a, x, u), _horner(fp, b, x, u),
                _horner(rho, c, x, u), _horner(rhop, d, x, u))

    def component(self, i: int):
        """Component i of eval as a function of t alone, for event bisection."""
        (c0, c1, c2, c3, c4, c5, c6), y, t0, h = self._coeffs()[i], self.y0[i], self.t, self.h

        def value(t: float) -> float:
            # _horner written out
            x = (t - t0) / h
            u = 1.0 - x
            return y + x * (c0 + u * (c1 + x * (c2 + u * (c3 + x * (c4 + u * (c5 + x * c6))))))
        return value


def _horner(y, c, x, u):
    # One component of the interpolant at theta = x, with u = 1 - x; the
    # arguments are floats, or numpy arrays with one entry per radius.
    c0, c1, c2, c3, c4, c5, c6 = c
    return y + x * (c0 + u * (c1 + x * (c2 + u * (c3 + x * (c4 + u * (c5 + x * c6))))))
