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
any imaginary part, so Im c_+ = 0.  The strategy boxes follow from the
model (`strategy_boxes`): c_- in [0, sqrt(eta_-)/2] and c_+ in
[0, 2 sqrt(eta_+)].  In the approximating model |pair| < 1/2 and
0 < density < 2, so at the upper edge of either box the player's slope
(the gap equation below) points back into the box, whatever the other
strategy: the payoff rises in c_- there and falls in c_+.  So every
optimum of `decision_rule`, of the sharp search and of the flat search
lies in the boxes, and none is clipped by them.  On an eta = 0 axis the
box is the point 0.

Searches: both orderings are solved from the two best replies, r_+(c_-)
(`decision_rule`) and r_-(c_+), the lowest minimum over c_-; each is
computed once per strategy of a game.  The payoff and the
flat profile min_{c_-} payoff are concave in c_+ with the c_+ gap equation
below as slope (for the profile at r_-, by the envelope theorem), so maxima
over c_+ are bracketed roots.  So are minima over c_-: the c_- gap
equation is the slope of the payoff and, by the envelope theorem, of the
sharp profile payoff(c_-, r_+(c_-)).  On a grid, the guard against
first-order transitions, each minimum is a box end where that slope
points out of the box, or its root in a cell where it turns from - to +.
The c_- slope vanishes at c_- = 0 by symmetry, so a grid node at 0 is
probed at xtol.  The sharp search solves r_+ at the node 0 itself and
probes at (xtol, r_+(0)): r_+ is even in c_-, so the sign is the one at
(xtol, r_+(xtol)) unless that slope is O(xtol^2), and a minimum at the
origin reuses the grid's reply.
The flat root is bracketed first within xtol/2 of the sharp reply
c_+* = r_+(c_-*), where it lies at a saddle point, and otherwise searched
only on the side of c_+* that the slope's signs there give.  Each step of
that search solves the replies r_- of all its c_+ together, and the gap
map of its slope at the flat root gives `gap_residual_flat`.
Every grid (of all lanes at once), and every step of the roots of many
strategies at once, is one batched call of the zone kernel (`quasifree`).
Roots run to xtol; one still open after 500 steps raises `AccuracyError`.
The sharp profile's other local minima are reported as `other_minima`.
`gap`'s stationary point (`solve_gap_fixed_point`) is the lowest minimum
of the sharp search, which also keeps the gap residual there that both
`gap` and `game` report.
Each game is solved at most once per process: the sharp search and the
solved game are each kept in an `lru_cache` keyed by the value of the
model, quadrature and optimizer (all frozen; kernels hash by value, as
for `quasifree._bz_table`), so `game`, `gap` and the limit report of
`kac-sweep` share them, also across CLI calls on configurations parsed
apart.  A search or game that raises (e.g. `AccuracyError`) is not kept.

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
from dataclasses import dataclass, fields, replace
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .errors import AccuracyError, ConfigError, check_numbers, is_integer
from .lattice import MeanFieldParams
from .quasifree import (QuadratureSpec, ZoneTally, _plain, bz_gibbs_expectations,
                        quasifree_pressure)

__all__ = [
    "GamePoint",
    "GameResult",
    "GapSolution",
    "OptimizerSpec",
    "DecisionResult",
    "strategy_boxes",
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
    """Gauge-fixed strategies: c_minus = |c_-| >= 0, c_plus = Re c_+.

    Either may be an array of lanes; the two broadcast together.
    """

    c_minus: float
    c_plus: float

    def __post_init__(self):
        c_minus, c_plus = self.c_minus, self.c_plus
        if isinstance(c_minus, (int, float)) and isinstance(c_plus, (int, float)):
            negative, finite = c_minus < 0, math.isfinite(c_minus) and math.isfinite(c_plus)
        else:  # lanes
            c_minus, c_plus = np.asarray(c_minus), np.asarray(c_plus)
            negative = (c_minus < 0).any()
            finite = np.isfinite(c_minus).all() and np.isfinite(c_plus).all()
        if negative:
            raise ConfigError("c_minus is a gauge-fixed modulus, must be >= 0")
        if not finite:
            raise ConfigError("game point must be finite")


@dataclass(frozen=True)
class OptimizerSpec:
    grid_points: int = 33
    xtol: float = 1e-10
    tol_gap: float = 1e-9

    def __post_init__(self):
        check_numbers(xtol=self.xtol, tol_gap=self.tol_gap)
        if not (is_integer(self.grid_points) and self.grid_points >= 3):
            raise ConfigError("grid_points must be an integer >= 3")
        if self.xtol <= 0 or self.tol_gap <= 0:
            raise ConfigError("tolerances must be positive")


class DecisionResult(NamedTuple):
    c_plus: float
    payoff_value: float


@dataclass(frozen=True)
class GameResult:
    p_sharp: float
    p_flat: float
    argmin_sharp: GamePoint
    argmax_flat: GamePoint
    gap_residual_sharp: float
    gap_residual_flat: float
    saddle_gap: float  # p_flat - p_sharp, >= 0 up to tolerance
    other_minima: tuple = ()  # (GamePoint, payoff) of each other sharp minimum, lowest first
    payoff_evaluations: int = 0  # strategies whose payoff was computed
    kernel_calls: int = 0  # zone quadratures, each over any number of strategies
    refinement_margin: float = 0.0  # largest |fine - base| of the quadrature checks

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
    iterations: int  # zone-kernel calls of the search
    converged: bool  # residual <= tol_gap


# ---------------------------------------------------------------------------
# payoff and 1-d optimizers
# ---------------------------------------------------------------------------


def payoff(mf: MeanFieldParams, g: GamePoint, quad: QuadratureSpec | None = None,
           tally: ZoneTally | None = None):
    """-c_+^2 + c_-^2 - P~(c_-, c_+); an array for lanes of strategies."""
    return (-g.c_plus**2 + g.c_minus**2
            - quasifree_pressure(mf, g.c_minus, g.c_plus, quad, tally))


def strategy_boxes(mf: MeanFieldParams) -> tuple:
    """The boxes ((0, sqrt(eta_-)/2), (0, 2 sqrt(eta_+))) of c_- and c_+:
    the gap maps sqrt(eta_-) pair and sqrt(eta_+) density of every strategy
    lie inside them, so each holds every optimum of its player.  Rounding
    can still make a slope 0 at an upper edge (a density of exactly 2 where
    tanh rounds to 1); the searches then return that edge."""
    return (0.0, math.sqrt(mf.eta_minus) / 2), (0.0, 2.0 * math.sqrt(mf.eta_plus))


_MAX_STEPS = 500  # the cap of a root search


def _lane_roots(fn, x1, x2, f1, f2, lanes, opt: OptimizerSpec) -> np.ndarray:
    """Roots of fn in the brackets [x1, x2], lane by lane, by Chandrupatla's
    method (Adv. Eng. Softw. 28, 145 (1997)): inverse quadratic
    interpolation where it is safe, bisection otherwise.

    fn(x, lanes) evaluates the listed lanes at x in one call; f1 and f2,
    arrays of its values at the bracket ends, differ in sign.  A lane stops
    when its bracket is narrower than xtol + 4 eps |x| (brentq's rule) or
    fn hits 0; the live lanes are compressed only when one stops.  Each
    root is the bracket end of smaller |fn|, so fn was evaluated there.
    A lane still open after _MAX_STEPS evaluations raises `AccuracyError`
    with its bracket, so no root is ever a bracket end short of xtol.
    """
    roots = np.empty(np.shape(lanes))
    if not roots.size:
        return roots
    at = np.arange(roots.size)  # where each live lane's root goes
    x3 = f3 = None
    rel = 4 * np.finfo(float).eps
    for step in range(_MAX_STEPS + 1):
        a1, a2 = np.abs(f1), np.abs(f2)
        best = np.where(a1 < a2, x1, x2)
        dx = x2 - x1
        width = np.abs(dx)
        tol = opt.xtol + rel * np.abs(best)
        going = (width >= tol) & (np.minimum(a1, a2) != 0.0)
        if not going.all():
            roots[at] = best  # the last word for the lanes that stop
            if not going.any():
                return roots
            at, lanes, x1, x2, f1, f2, dx, width, tol = (
                v[going] for v in (at, lanes, x1, x2, f1, f2, dx, width, tol))
            if x3 is not None:
                x3, f3 = x3[going], f3[going]
        if step == _MAX_STEPS:
            bracket = sorted((x1[0].item(), x2[0].item()))  # the first open lane's
            raise AccuracyError(f"root search still open after {_MAX_STEPS} steps",
                                values={"bracket": bracket})
        if x3 is None:
            t = 0.5
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                d12, d32 = f1 - f2, f3 - f2
                xi = (x1 - x2) / (x3 - x2)
                phi = d12 / d32
                quadratic = (1 - np.sqrt(1 - xi) < phi) & (phi < np.sqrt(xi))
                t = np.where(quadratic, f1 / d12 * f3 / d32
                             - (x3 - x1) / dx * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            edge = 0.5 * tol / width
            t = np.minimum(np.maximum(t, edge), 1 - edge)
        x = x1 + t * dx
        f = fn(x, lanes)
        same = np.sign(f) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, f


def _c_plus_maximum(slope: Callable, mf: MeanFieldParams, opt: OptimizerSpec,
                    lanes: int, guess: float | None = None) -> np.ndarray:
    """Per lane, the maximizer over the c_+ box of a concave function.

    slope(c_plus, lanes), decreasing in c_plus, evaluates the listed lanes
    in one call.  Its root is first bracketed by [a, b]: the whole box or,
    given a guess, the part of the box within xtol/2 of it, where a sign
    change pins the root to xtol after two evaluations.  Otherwise the
    signs at a and b tell on which side the root lies, and the box edge on
    that side closes its bracket: a wrong guess costs at most one
    evaluation more than a search of the whole box, and never changes the
    answer.  An edge where the slope points out of the box is the
    maximizer.  For eta_+ = 0 the repulsive strategy space degenerates to
    c_+ = 0.
    """
    if mf.eta_plus == 0.0:
        return np.zeros(lanes)
    lo, hi = strategy_boxes(mf)[1]
    a, b = (lo, hi) if guess is None else np.clip(
        [guess - opt.xtol / 2, guess + opt.xtol / 2], lo, hi)
    each = np.arange(lanes)
    s = slope(np.repeat([b, a], lanes), np.tile(each, 2))
    x1, x2, f1, f2 = np.full(lanes, a), np.full(lanes, b), s[lanes:], s[:lanes]
    above = (f2 >= 0.0) & (x2 < hi)  # the root lies in [b, hi]
    below = (f2 < 0.0) & (f1 <= 0.0) & (x1 > lo)  # in [lo, a]
    side = above | below
    if side.any():
        f_edge = np.empty(lanes)
        f_edge[side] = slope(np.where(above, hi, lo)[side], each[side])
        x1[above], f1[above] = x2[above], f2[above]
        x2[above], f2[above] = hi, f_edge[above]
        x2[below], f2[below] = x1[below], f1[below]
        x1[below], f1[below] = lo, f_edge[below]
    x = np.where(f2 >= 0.0, x2, x1)  # an end, unless the slope changes sign inside
    inside = (f2 < 0.0) & (f1 > 0.0)
    x[inside] = _lane_roots(slope, x1[inside], x2[inside], f1[inside], f2[inside],
                            each[inside], opt)
    return x


def _lane_minima(value: Callable, slope: Callable, mf: MeanFieldParams, opt: OptimizerSpec,
                 lanes: int) -> list:
    """Per lane, all local minima (x, value) over the c_- box, lowest first.

    value(x, i) and slope(x, i, node) evaluate lane i[k] at c_- = x[k], for
    every k, in one call; slope is the derivative in c_-.  One slope grid
    over the box for all lanes, the guard against the multiple minima of
    first-order transitions, finds every minimum at the grid's resolution:
    a box end where the slope points out of the box, and the root of the
    slope in each grid cell where it turns from - to +.  No two of these
    coincide.  The roots of every cell of every lane are found together,
    and value is evaluated once, at all the minima.  The slope vanishes at
    c_- = 0 by symmetry, so a node at 0 is probed at x = xtol; node is the
    grid node (or root step) that x stands for, and a lane whose strategy
    depends on c_- (the sharp profile's r_+) takes it at the node.  For
    eta_- = 0 the payoff is c_-^2 plus a function of c_+ alone, and its
    maximum over c_+ is c_-^2 plus a constant: the origin is the only
    minimum of both, and no search is needed.
    """
    each = np.arange(lanes)
    if mf.eta_minus == 0.0:
        return [[(0.0, fx)] for fx in value(np.zeros(lanes), each).tolist()]
    xs = np.linspace(*strategy_boxes(mf)[0], opt.grid_points)
    probe = np.where(xs > 0.0, xs, opt.xtol)
    s = slope(np.tile(probe, lanes), np.repeat(each, xs.size),
              np.tile(xs, lanes)).reshape(lanes, xs.size)
    i, j = np.nonzero((s[:, :-1] < 0.0) & (s[:, 1:] >= 0.0))  # cells where the slope turns to +
    roots = _lane_roots(lambda x, k: slope(x, k, x), probe[j], probe[j + 1],
                        s[i, j], s[i, j + 1], i, opt)
    low, high = np.flatnonzero(s[:, 0] >= 0.0), np.flatnonzero(s[:, -1] < 0.0)  # ends pointing out
    lane = np.concatenate((low, i, high))
    order = np.argsort(lane, kind="stable")  # per lane: low end, roots by cell, high end
    lane = lane[order]
    x = np.concatenate((np.full(low.size, xs[0]), roots, np.full(high.size, xs[-1])))[order]
    fx = value(x, lane)
    order = np.lexsort((fx, lane))  # stable: equal values keep the order above
    minima = list(zip(x[order].tolist(), fx[order].tolist()))
    ends = np.cumsum(np.bincount(lane, minlength=lanes)).tolist()
    return [minima[start:end] for start, end in zip([0] + ends, ends)]


def _c_minus_minima(f: Callable, slope: Callable, mf: MeanFieldParams, opt: OptimizerSpec):
    """All local minima (x, f(x)) of f over the c_- box, lowest first: the
    one-lane case of `_lane_minima`.  f and slope = df/dc_- each evaluate
    an array of c_- in one call; slope is called at the probes (xtol for a
    node at 0) and at the root steps."""
    return _lane_minima(lambda x, _: f(x), lambda x, _, node: slope(x), mf, opt, 1)[0]


# ---------------------------------------------------------------------------
# best replies and the game
# ---------------------------------------------------------------------------


def decision_rule(mf: MeanFieldParams, c_minus, quad: QuadratureSpec | None = None,
                  opt: OptimizerSpec | None = None,
                  tally: ZoneTally | None = None) -> DecisionResult:
    """r_+(c_-): the unique maximizer of the payoff over c_+ at fixed c_-.

    The payoff is strictly concave in c_+ (pressure convex in the linear
    coupling plus the -c_+^2 penalty), so its maximizer is the root of the
    decreasing slope sqrt(eta_+) density - c_+ of the c_+ gap equation.
    For eta_+ = 0 the repulsive strategy space degenerates and r_+ = 0.
    An array of c_- is solved lane by lane, each step one batched call, and
    gives arrays.
    """
    opt = opt or OptimizerSpec()
    cm = np.asarray(c_minus, float)
    lanes = cm.ravel()

    def slope(c_plus, i):
        return _gap_map(mf, lanes[i], c_plus, quad, tally)[1] - c_plus

    x = _plain(_c_plus_maximum(slope, mf, opt, lanes.size).reshape(cm.shape))
    value = payoff(mf, GamePoint(_plain(cm), x), quad, tally)
    return DecisionResult(x, value)


class _SharpSearch(NamedTuple):
    minima: tuple  # the local minima (c_-, value) of the sharp profile, lowest first
    replies: MappingProxyType  # c_- -> the DecisionResult of r_+ at every c_- evaluated
    residual: float  # gap_residual at the lowest minimum (c_-, r_+(c_-))
    tally: ZoneTally  # the search's work; read it, never add to it


@functools.lru_cache(maxsize=64)
def _sharp_search(mf: MeanFieldParams, quad: QuadratureSpec, opt: OptimizerSpec) -> _SharpSearch:
    """The sharp search: the local minima of payoff(c_-, r_+(c_-)), with r_+
    computed once per c_-; the new c_- of one search step are solved
    together.  The profile's slope is the c_- gap equation at
    (c_-, r_+(c_-)) by the envelope theorem.  The grid's one
    `decision_rule` call solves r_+ at every node, c_- = 0 included, and
    the slope there is probed at (xtol, r_+(0)); a minimum at the origin
    reuses that reply, so a normal-phase game solves r_+ once.  The gap
    residual at the lowest minimum, which `solve_game` and
    `solve_gap_fixed_point` both report, is computed here, once.  Cached
    by value, as `_bz_table` is; a raised error is not kept.
    """
    tally = ZoneTally()
    replies = {}

    def reply_plus(xs):
        keys = np.asarray(xs, float).tolist()
        new = [x for x in dict.fromkeys(keys) if x not in replies]
        if new:
            r = decision_rule(mf, np.array(new), quad, opt, tally)
            replies.update(zip(new, map(DecisionResult, r.c_plus.tolist(),
                                        r.payoff_value.tolist())))
        return [replies[x] for x in keys]

    def sharp_value(xs, _):
        return np.array([r.payoff_value for r in reply_plus(xs)])

    def sharp_slope(xs, _, nodes):
        c_plus = np.array([r.c_plus for r in reply_plus(nodes)])
        return _minus_slope(mf, xs, c_plus, quad, tally)

    minima = tuple(_lane_minima(sharp_value, sharp_slope, mf, opt, 1)[0])
    c_minus = minima[0][0]
    residual = gap_residual(mf, GamePoint(c_minus, replies[c_minus].c_plus), quad, tally)
    return _SharpSearch(minima, MappingProxyType(replies), residual, tally)


def solve_game(mf: MeanFieldParams, quad: QuadratureSpec | None = None,
               opt: OptimizerSpec | None = None) -> GameResult:
    """Solve both orderings of the thermodynamic game from its best replies.

    r_+(c_-) = `decision_rule` and r_-(c_+), the lowest minimum of the
    payoff over c_-, are each computed once per strategy.
    p_sharp: minimum over c_- of the payoff at r_+ (`_sharp_search`; its
    other local minima are reported too); p_flat: maximum over c_+ of the
    payoff at r_-, the root of its slope.  That profile is concave even
    where r_- jumps between basins, and its slope is the c_+ gap equation
    at r_-.  Its root is bracketed first within xtol/2 of the sharp reply
    c_+* = r_+(c_-*): at a saddle point it lies there, and two replies
    r_-, solved in one pass, pin it.  Otherwise the slope's signs there
    give the side of c_+* on which the root lies, and only that side is
    searched, so the guess never changes the answer.

    A game is solved at most once per process: the result is cached by the
    value of (mf, quad, opt), with None resolved to the defaults, so equal
    models parsed apart share one entry and a repeated ask returns the
    same immutable `GameResult`, work counts included.  A raised error
    (e.g. `AccuracyError`) is not kept and is raised again on every ask.
    """
    return _solved_game(mf, quad or QuadratureSpec(), opt or OptimizerSpec())


@functools.lru_cache(maxsize=64)
def _solved_game(mf: MeanFieldParams, quad: QuadratureSpec, opt: OptimizerSpec) -> GameResult:
    search = _sharp_search(mf, quad, opt)
    tally = replace(search.tally)  # the game's work includes the search's
    flat = {}  # c_+ -> (r_-(c_+), the payoff there, the gap map there)

    def flat_slope(c_plus, _):
        minima = _lane_minima(
            lambda xs, i: payoff(mf, GamePoint(xs, c_plus[i]), quad, tally),
            lambda xs, i, _: _minus_slope(mf, xs, c_plus[i], quad, tally), mf, opt, c_plus.size)
        c_minus, value = np.array([lane[0] for lane in minima]).T
        rhs = np.array(_gap_map(mf, c_minus, c_plus, quad, tally))
        flat.update(zip(c_plus.tolist(), zip(c_minus.tolist(), value.tolist(), rhs.T.tolist())))
        return rhs[1] - c_plus

    (cm_sharp, sharp_val), *others = search.minima
    reply = search.replies[cm_sharp]
    argmin_sharp = GamePoint(cm_sharp, reply.c_plus)
    cp_flat = float(_c_plus_maximum(flat_slope, mf, opt, 1, guess=reply.c_plus)[0])
    if cp_flat not in flat:  # eta_+ = 0: the maximum needed no slope
        flat_slope(np.array([cp_flat]), None)
    cm_flat, flat_val, rhs_flat = flat[cp_flat]
    argmax_flat = GamePoint(cm_flat, cp_flat)
    p_sharp, p_flat = -sharp_val, -flat_val
    return GameResult(
        p_sharp=p_sharp,
        p_flat=p_flat,
        argmin_sharp=argmin_sharp,
        argmax_flat=argmax_flat,
        gap_residual_sharp=search.residual,
        gap_residual_flat=_residual(cm_flat, cp_flat, rhs_flat),  # the flat slope's own gap map
        saddle_gap=p_flat - p_sharp,
        other_minima=tuple((GamePoint(x, search.replies[x].c_plus), fx) for x, fx in others),
        payoff_evaluations=tally.pressure_lanes,
        kernel_calls=tally.kernel_calls,
        refinement_margin=tally.refinement_margin,
    )


# ---------------------------------------------------------------------------
# gap equations
# ---------------------------------------------------------------------------


def _gap_map(mf, c_minus, c_plus, quad, tally=None):
    """(sqrt(eta_-) pair, sqrt(eta_+) density) at arrays of strategies."""
    pair, density = bz_gibbs_expectations(mf, c_minus, c_plus, quad, tally)
    return math.sqrt(mf.eta_minus) * pair, math.sqrt(mf.eta_plus) * density


def _minus_slope(mf, c_minus, c_plus, quad, tally):
    """d payoff / d c_- = 2 (c_- - sqrt(eta_-) pair), the c_- gap equation,
    at arrays of strategies."""
    return 2.0 * (c_minus - _gap_map(mf, c_minus, c_plus, quad, tally)[0])


def _c_minus_slope(mf, g: GamePoint, quad, tally):
    """`_minus_slope` at the strategies of the game point g."""
    return _minus_slope(mf, g.c_minus, g.c_plus, quad, tally)


def _residual(c_minus, c_plus, rhs):
    """Distance of (c_-, c_+) from its gap map rhs = (rhs_-, rhs_+)."""
    return math.hypot(c_minus - rhs[0], c_plus - rhs[1])


def gap_residual(mf: MeanFieldParams, g: GamePoint,
                 quad: QuadratureSpec | None = None,
                 tally: ZoneTally | None = None) -> float:
    """Euclidean distance of (c_-, c_+) from its Gibbs-expectation update.

    Zero exactly at self-consistent (stationary) points of the payoff;
    equal to half the payoff gradient norm.
    """
    return _residual(g.c_minus, g.c_plus, _gap_map(mf, g.c_minus, g.c_plus, quad, tally))


def solve_gap_fixed_point(mf: MeanFieldParams, quad: QuadratureSpec | None = None,
                          opt: OptimizerSpec | None = None) -> GapSolution:
    """The gap equations' solution at the lowest minimum of the sharp search.

    c_minus and c_plus = r_+(c_minus) equal `solve_game`'s argmin_sharp bit
    for bit.
    The sharp search, its residual included, is the one `solve_game` runs
    and reads from the same per-process cache (keyed by value, errors not
    kept), so a gap after a game of the same model makes no zone-kernel
    call; iterations counts the search's calls, the residual's among them.
    """
    opt = opt or OptimizerSpec()
    search = _sharp_search(mf, quad or QuadratureSpec(), opt)
    c_minus = search.minima[0][0]
    return GapSolution(c_minus, search.replies[c_minus].c_plus, search.residual,
                       search.tally.kernel_calls, search.residual <= opt.tol_gap)


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
                          tol: float = 1e-10) -> QuasiconvexityReport:
    """Sampled level-set convexity of payoff(., c_+) on the game's c_- box.

    In one dimension, every sublevel set is an interval iff the sampled
    profile is unimodal (nonincreasing to its minimum, nondecreasing
    after).  Diagnostic only; equality of the two game values is never
    asserted from this.
    """
    xs = np.linspace(*strategy_boxes(mf)[0], n_samples)
    fs = payoff(mf, GamePoint(xs, c_plus), quad)
    m = int(np.argmin(fs))
    down = np.diff(fs[: m + 1])
    up = np.diff(fs[m:])
    violation = max(float(np.max(down, initial=0.0)), float(np.max(-up, initial=0.0)))
    return QuasiconvexityReport(bool(violation <= tol), violation, n_samples)
