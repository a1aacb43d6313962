"""The two-person zero-sum thermodynamic game of a mean-field model.

Payoff (to be minimized by the attractive player over c_-, maximized by
the repulsive player over c_+):

    payoff(c_-, c_+) = -c_+^2 + c_-^2 - P~(c_-, c_+),

with P~ the thermodynamic-limit pressure of the quadratic approximating
Hamiltonian.  The conventional and non-conventional pressures are the two
orderings of the optimizations,

    P_sharp = -min_{c_-} max_{c_+} payoff,
    P_flat  = -max_{c_+} min_{c_-} payoff,

which satisfy P_sharp <= P_flat always, with equality for purely
attractive or purely repulsive models.

Gauge fixing: the pairing term is U(1)-invariant, so c_- is restricted to
[0, inf) real; only Re c_+ enters the Hamiltonian while -|c_+|^2 penalizes
any imaginary part, so Im c_+ = 0.  The default search boxes c_- in [0,1]
and c_+ in [0,2] follow from the self-consistency below with |pair| <= 1/2
and 0 <= density <= 2, each scaled by sqrt(eta): they contain every
optimum only for eta_- <= 4 and eta_+ <= 1.  An optimum of either player
within 10 xtol of an upper box edge, or of a lower edge above 0, is flagged
(`DecisionResult.at_boundary`, `GameResult.boundary_flagged`), never
silently accepted; the origin that an eta = 0 axis fixes is not flagged.

Searches: both orderings are solved from the two best replies, r_+(c_-)
(`decision_rule`) and r_-(c_+), the lowest minimum over c_-; each is
computed once per strategy in one `solve_game` call.  The payoff and the
flat profile min_{c_-} payoff are concave in c_+ with the c_+ gap equation
below as slope (for the profile at r_-, by the envelope theorem), so maxima
over c_+ are bracketed roots; minima over c_- are grid searches, the guard
against first-order transitions, refined by bounded Brent.

Gap-equation normalization: with pair = <a^dag_up a^dag_down> and
density = <n_up + n_down> per site in the approximating model, the
residual uses the fixed points

    c_- = sqrt(eta_-) * pair,      c_+ = sqrt(eta_+) * density,

chosen so that the payoff gradient is exactly
(2 (c_- - sqrt(eta_-) pair), -2 (c_+ - sqrt(eta_+) density)); stationarity
of the payoff and residual zero are the same equations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import ConfigError, check_numbers, is_integer, is_number
from .lattice import MeanFieldParams
from .quasifree import QuadratureSpec, bz_gibbs_expectations, quasifree_pressure

__all__ = [
    "GamePoint",
    "GameResult",
    "GapSolution",
    "OptimizerSpec",
    "DecisionResult",
    "payoff",
    "decision_rule",
    "solve_game",
    "gap_residual",
    "solve_gap_fixed_point",
    "payoff_gradient_fd",
    "quasiconvexity_report",
]


@dataclass(frozen=True)
class GamePoint:
    """Gauge-fixed strategies: c_minus = |c_-| >= 0, c_plus = Re c_+."""

    c_minus: float
    c_plus: float

    def __post_init__(self):
        if self.c_minus < 0:
            raise ConfigError("c_minus is a gauge-fixed modulus, must be >= 0")
        if not (np.isfinite(self.c_minus) and np.isfinite(self.c_plus)):
            raise ConfigError("game point must be finite")


@dataclass(frozen=True)
class OptimizerSpec:
    c_minus_box: tuple = (0.0, 1.0)
    c_plus_box: tuple = (0.0, 2.0)
    grid_points: int = 33
    xtol: float = 1e-10
    degeneracy_window: float = 1e-6
    max_iter: int = 500
    tol_gap: float = 1e-9

    def __post_init__(self):
        for name in ("c_minus_box", "c_plus_box"):  # each box becomes a float pair
            box = getattr(self, name)
            if not (isinstance(box, (list, tuple)) and len(box) == 2
                    and all(map(is_number, box)) and 0 <= box[0] < box[1]):
                raise ConfigError(f"{name} must be a pair [lo, hi] of numbers, 0 <= lo < hi")
            object.__setattr__(self, name, (float(box[0]), float(box[1])))
        check_numbers(xtol=self.xtol, degeneracy_window=self.degeneracy_window,
                      tol_gap=self.tol_gap)
        if not (is_integer(self.grid_points) and self.grid_points >= 3):
            raise ConfigError("grid_points must be an integer >= 3")
        if not (is_integer(self.max_iter) and self.max_iter >= 1):
            raise ConfigError("max_iter must be an integer >= 1")
        if self.xtol <= 0 or self.tol_gap <= 0:
            raise ConfigError("tolerances must be positive")


class DecisionResult(NamedTuple):
    c_plus: float
    payoff_value: float
    at_boundary: bool


@dataclass(frozen=True)
class GameResult:
    p_sharp: float
    p_flat: float
    argmin_sharp: GamePoint
    argmax_flat: GamePoint
    gap_residual_sharp: float
    gap_residual_flat: float
    saddle_gap: float  # p_flat - p_sharp, >= 0 up to tolerance
    degenerate_minima: tuple = ()
    boundary_flagged: bool = False

    def as_dict(self):
        """Every field by name; a GamePoint becomes [c_minus, c_plus]."""
        def plain(value):
            if isinstance(value, GamePoint):
                return [value.c_minus, value.c_plus]
            return [plain(v) for v in value] if isinstance(value, tuple) else value

        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class GapSolution:
    c_minus: float
    c_plus: float
    residual: float
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# payoff and 1-d optimizers
# ---------------------------------------------------------------------------


def payoff(mf: MeanFieldParams, g: GamePoint, quad: QuadratureSpec | None = None) -> float:
    """-c_+^2 + c_-^2 - P~(c_-, c_+)."""
    return (-g.c_plus**2 + g.c_minus**2
            - quasifree_pressure(mf, g.c_minus, g.c_plus, quad))


def _pinned(x: float, box: tuple, opt: OptimizerSpec) -> bool:
    """Whether the optimum x lies within 10 xtol of a box edge above 0."""
    return any(abs(x - edge) <= 10 * opt.xtol for edge in box if edge > 0.0)


def _c_plus_maximum(slope: Callable[[float], float], mf: MeanFieldParams,
                    opt: OptimizerSpec) -> float:
    """Maximizer over the c_+ box of a concave function with decreasing slope.

    For eta_+ = 0 the repulsive strategy space degenerates to c_+ = 0.
    """
    if mf.eta_plus == 0.0:
        return 0.0
    lo, hi = opt.c_plus_box
    if slope(hi) >= 0.0:
        return hi
    if slope(lo) <= 0.0:
        return lo
    return float(brentq(slope, lo, hi, xtol=opt.xtol, maxiter=opt.max_iter, disp=False))


def _c_minus_minima(f: Callable[[float], float], mf: MeanFieldParams,
                    opt: OptimizerSpec):
    """All local minima (x, f(x)) of f over the c_- box, lowest first.

    A coarse grid, the guard against the multiple minima of first-order
    transitions, then bounded Brent around each grid minimum.  For
    eta_- = 0 the payoff is c_-^2 plus a function of c_+ alone, and its
    maximum over c_+ is c_-^2 plus a constant: the origin is the only
    minimum of both, and no search is needed.
    """
    if mf.eta_minus == 0.0:
        return [(0.0, f(0.0))]
    xs = np.linspace(*opt.c_minus_box, opt.grid_points)
    fs = np.array([f(x) for x in xs])
    candidates = []
    n = len(xs)
    for i in range(n):
        left = fs[i - 1] if i > 0 else math.inf
        right = fs[i + 1] if i < n - 1 else math.inf
        if fs[i] <= left and fs[i] <= right:
            a = xs[max(i - 1, 0)]
            b = xs[min(i + 1, n - 1)]
            r = minimize_scalar(f, bounds=(a, b), method="bounded",
                                options={"xatol": opt.xtol, "maxiter": opt.max_iter})
            x, fx = r.x, r.fun
            if fs[i] < fx:  # keep the grid point if refinement stalled
                x, fx = xs[i], fs[i]
            candidates.append((float(x), float(fx)))
    # dedupe near-identical refinements
    candidates.sort(key=lambda t: t[0])
    merged = []
    for x, fx in candidates:
        if merged and abs(x - merged[-1][0]) < 10 * opt.xtol:
            if fx < merged[-1][1]:
                merged[-1] = (x, fx)
        else:
            merged.append((x, fx))
    merged.sort(key=lambda t: t[1])
    return merged


# ---------------------------------------------------------------------------
# best replies and the game
# ---------------------------------------------------------------------------


def decision_rule(mf: MeanFieldParams, c_minus: float,
                  quad: QuadratureSpec | None = None,
                  opt: OptimizerSpec | None = None) -> DecisionResult:
    """r_+(c_-): the unique maximizer of the payoff over c_+ at fixed c_-.

    The payoff is strictly concave in c_+ (pressure convex in the linear
    coupling plus the -c_+^2 penalty), so its maximizer is the root of the
    decreasing slope sqrt(eta_+) density - c_+ of the c_+ gap equation.
    For eta_+ = 0 the repulsive strategy space degenerates and r_+ = 0.
    A maximizer pinned at a box edge is flagged, not silent.
    """
    opt = opt or OptimizerSpec()

    def slope(c_plus):
        return _gap_map(mf, GamePoint(c_minus, c_plus), quad)[1] - c_plus

    x = _c_plus_maximum(slope, mf, opt)
    value = payoff(mf, GamePoint(c_minus, x), quad)
    return DecisionResult(x, value, _pinned(x, opt.c_plus_box, opt))


def solve_game(mf: MeanFieldParams, quad: QuadratureSpec | None = None,
               opt: OptimizerSpec | None = None) -> GameResult:
    """Solve both orderings of the thermodynamic game from its best replies.

    r_+(c_-) = `decision_rule` and r_-(c_+), the lowest minimum of the
    payoff over c_-, are each cached per strategy for this call.
    p_sharp: minimum over c_- of the payoff at r_+ (all near-degenerate
    minima reported); p_flat: maximum over c_+ of the payoff at r_-, the
    root of its slope over the whole c_+ box.  That profile is concave even
    where r_- jumps between basins, and its slope is the c_+ gap equation
    at r_-.
    """
    opt = opt or OptimizerSpec()

    @functools.cache
    def reply_plus(c_minus):
        return decision_rule(mf, c_minus, quad, opt)

    @functools.cache
    def reply_minus(c_plus):
        return _c_minus_minima(lambda x: payoff(mf, GamePoint(x, c_plus), quad), mf, opt)[0]

    def flat_slope(c_plus):
        return _gap_map(mf, GamePoint(reply_minus(c_plus)[0], c_plus), quad)[1] - c_plus

    sharp = _c_minus_minima(lambda x: reply_plus(x).payoff_value, mf, opt)
    cm_sharp, sharp_val = sharp[0]
    argmin_sharp = GamePoint(cm_sharp, reply_plus(cm_sharp).c_plus)
    cp_flat = _c_plus_maximum(flat_slope, mf, opt)
    cm_flat, flat_val = reply_minus(cp_flat)
    argmax_flat = GamePoint(cm_flat, cp_flat)
    p_sharp, p_flat = -sharp_val, -flat_val
    return GameResult(
        p_sharp=p_sharp,
        p_flat=p_flat,
        argmin_sharp=argmin_sharp,
        argmax_flat=argmax_flat,
        gap_residual_sharp=gap_residual(mf, argmin_sharp, quad),
        gap_residual_flat=gap_residual(mf, argmax_flat, quad),
        saddle_gap=p_flat - p_sharp,
        degenerate_minima=tuple(GamePoint(x, reply_plus(x).c_plus) for x, fx in sharp[1:]
                                if fx - sharp_val <= opt.degeneracy_window),
        boundary_flagged=(reply_plus(cm_sharp).at_boundary
                          or _pinned(cp_flat, opt.c_plus_box, opt)
                          or any(_pinned(x, opt.c_minus_box, opt) for x in (cm_sharp, cm_flat))),
    )


# ---------------------------------------------------------------------------
# gap equations
# ---------------------------------------------------------------------------


def _gap_map(mf, g: GamePoint, quad):
    pair, density = bz_gibbs_expectations(mf, g.c_minus, g.c_plus, quad)
    rhs_minus = math.sqrt(mf.eta_minus) * float(np.real(pair))
    rhs_plus = math.sqrt(mf.eta_plus) * density
    return rhs_minus, rhs_plus


def gap_residual(mf: MeanFieldParams, g: GamePoint,
                 quad: QuadratureSpec | None = None) -> float:
    """Euclidean distance of (c_-, c_+) from its Gibbs-expectation update.

    Zero exactly at self-consistent (stationary) points of the payoff;
    equal to half the payoff gradient norm.
    """
    rhs_minus, rhs_plus = _gap_map(mf, g, quad)
    return math.hypot(g.c_minus - rhs_minus, g.c_plus - rhs_plus)


def solve_gap_fixed_point(mf: MeanFieldParams, start: GamePoint,
                          quad: QuadratureSpec | None = None,
                          damping: float = 1.0,
                          opt: OptimizerSpec | None = None) -> GapSolution:
    """Damped fixed-point iteration of the gap equations.

    g <- (1 - damping) g + damping * RHS(g) until the residual drops below
    tol_gap or max_iter is reached; non-convergence is reported through the
    flag, not an exception, and the best iterate seen is returned.
    """
    if not (0.0 < damping <= 1.0):
        raise ConfigError("damping must lie in (0, 1]")
    opt = opt or OptimizerSpec()
    g = start
    best = (math.inf, start, 0)
    for iteration in range(1, opt.max_iter + 1):
        rhs_minus, rhs_plus = _gap_map(mf, g, quad)
        residual = math.hypot(g.c_minus - rhs_minus, g.c_plus - rhs_plus)
        if residual < best[0]:
            best = (residual, g, iteration)
        if residual <= opt.tol_gap:
            return GapSolution(g.c_minus, g.c_plus, residual, iteration, True)
        g = GamePoint(
            max((1 - damping) * g.c_minus + damping * rhs_minus, 0.0),
            (1 - damping) * g.c_plus + damping * rhs_plus,
        )
    residual, g, iteration = best
    return GapSolution(g.c_minus, g.c_plus, residual, iteration, False)


def payoff_gradient_fd(mf: MeanFieldParams, g: GamePoint,
                       quad: QuadratureSpec | None = None,
                       step: float = 1e-5) -> tuple[float, float]:
    """Central finite-difference gradient of the payoff at g.

    The ungauged payoff is even in c_- (the pressure depends on |c_-|
    only), so below the step size the central stencil reflects through
    the origin; in particular the derivative at c_- = 0 is exactly zero.
    """
    def val(cm, cp):
        return payoff(mf, GamePoint(cm, cp), quad)

    d_minus = (val(g.c_minus + step, g.c_plus)
               - val(abs(g.c_minus - step), g.c_plus)) / (2 * step)
    d_plus = (val(g.c_minus, g.c_plus + step)
              - val(g.c_minus, g.c_plus - step)) / (2 * step)
    return float(d_minus), float(d_plus)


@dataclass(frozen=True)
class QuasiconvexityReport:
    quasi_convex: bool
    max_violation: float
    n_samples: int


def quasiconvexity_report(mf: MeanFieldParams, c_plus: float,
                          quad: QuadratureSpec | None = None,
                          n_samples: int = 101,
                          box: tuple = (0.0, 1.0),
                          tol: float = 1e-10) -> QuasiconvexityReport:
    """Sampled level-set convexity of payoff(., c_+) on the c_- interval.

    In one dimension, every sublevel set is an interval iff the sampled
    profile is unimodal (nonincreasing to its minimum, nondecreasing
    after).  Diagnostic only; equality of the two game values is never
    asserted from this.
    """
    xs = np.linspace(box[0], box[1], n_samples)
    fs = np.array([payoff(mf, GamePoint(x, c_plus), quad) for x in xs])
    m = int(np.argmin(fs))
    down = np.diff(fs[: m + 1])
    up = np.diff(fs[m:])
    violation = max(float(np.max(down, initial=0.0)), float(np.max(-up, initial=0.0)))
    return QuasiconvexityReport(bool(violation <= tol), violation, n_samples)
