"""Thermodynamic game: payoff, decision rule, min-max pressures, gap equations."""

import dataclasses
import json
import math
from types import MappingProxyType

import numpy as np
import pytest
from scipy.optimize import brentq

from kaclab import game, quasifree
from kaclab.config import parse_config
from kaclab.errors import AccuracyError, ConfigError
from kaclab.game import (
    GamePoint,
    OptimizerSpec,
    decision_rule,
    gap_residual,
    payoff,
    payoff_gradient_fd,
    quasiconvexity_report,
    solve_game,
    solve_gap_fixed_point,
    strategy_boxes,
)
from kaclab.lattice import HoppingKernel, MeanFieldParams, discrete_laplacian
from kaclab.quasifree import QuadratureSpec, bz_gibbs_expectations, quasifree_pressure

QUAD = QuadratureSpec()
OPT = OptimizerSpec()


def clear_game_caches():
    """Cold caches, so that the next solve of any model does all its work."""
    game._sharp_search.cache_clear()
    game._solved_game.cache_clear()


def zero_kernel():
    return HoppingKernel({(0,): 0.0}, 1)


def flat_attractive(beta=1.0, eta=1.0):
    return MeanFieldParams(beta=beta, hopping=zero_kernel(), eta_minus=eta)


# a flat band whose strategy boxes are c_- in [0, 1] and c_+ in [0, 2]
UNIT_BOXES = MeanFieldParams(beta=1.0, hopping=zero_kernel(), eta_minus=4.0, eta_plus=1.0)


# -- payoff -----------------------------------------------------------------------


def test_payoff_at_origin_is_minus_free_pressure():
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1), eta_plus=1.0)
    p_free = quasifree_pressure(mf, 0.0, 0.0, QUAD)
    assert payoff(mf, GamePoint(0.0, 0.0), QUAD) == pytest.approx(-p_free, rel=1e-14)


def test_payoff_minimized_at_origin_without_attraction():
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1), eta_plus=1.0)
    vals = [payoff(mf, GamePoint(cm, 0.3), QUAD) for cm in np.linspace(0, 1, 11)]
    assert np.argmin(vals) == 0


def test_payoff_strong_coupling_closed_form():
    # flat band, eta_- = 1, c_+ = 0: the integrand is k-independent, so the
    # payoff has the one-site closed form c^2 - (E + (2/b) log1p(e^{-bE}))
    beta = 1.0
    mf = flat_attractive(beta=beta)
    for cm in np.linspace(0.0, 1.0, 7):
        e = cm  # sqrt(eta_minus) * c_minus
        expected = cm**2 - (e + 2.0 / beta * math.log1p(math.exp(-beta * e)))
        assert payoff(mf, GamePoint(cm, 0.0), QUAD) == pytest.approx(expected, abs=1e-13)


# -- decision rule ------------------------------------------------------------------


def test_decision_rule_trivial_without_repulsion():
    res = decision_rule(flat_attractive(), 0.3, QUAD, OPT)
    assert res.c_plus == 0.0


def test_decision_rule_stationarity_by_finite_differences():
    mf = MeanFieldParams(beta=2.0, hopping=zero_kernel(), eta_plus=1.3)
    for cm in (0.0, 0.5):
        r = decision_rule(mf, cm, QUAD, OPT)
        step = 1e-5
        dp = (
            quasifree_pressure(mf, cm, r.c_plus + step, QUAD)
            - quasifree_pressure(mf, cm, r.c_plus - step, QUAD)
        ) / (2 * step)
        # stationarity of the payoff: 2 c_+ = -dP~/d(Re c_+)
        assert abs(2.0 * r.c_plus + dp) <= 1e-8


def test_decision_rule_is_continuous_on_a_grid():
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=1.0)
    grid = np.linspace(0.0, 0.5, 26)
    vals = [decision_rule(mf, cm, QUAD, OPT).c_plus for cm in grid]
    steps = np.abs(np.diff(vals))
    assert steps.max() <= 5e-2  # r_+ moves smoothly with c_-


def test_decision_rule_returns_the_unique_maximizer():
    mf = MeanFieldParams(beta=4.0, hopping=discrete_laplacian(1),
                         eta_plus=1.5, eta_minus=0.5)
    cm = 0.2
    r = decision_rule(mf, cm, QUAD, OPT)
    for delta in (1e-3, 1e-2):
        for sign in (+1, -1):
            probe = r.c_plus + sign * delta
            if 0.0 <= probe <= 2.0:
                assert r.payoff_value >= payoff(mf, GamePoint(cm, probe), QUAD)


def test_decision_rule_root_solves_the_c_plus_gap_equation():
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=1.0)
    for cm in (0.0, 0.2, 0.5, 0.9):
        r = decision_rule(mf, cm, QUAD, OPT)
        assert 0.0 < r.c_plus < strategy_boxes(mf)[1][1]
        density = bz_gibbs_expectations(mf, cm, r.c_plus, QUAD)[1]
        assert abs(r.c_plus - math.sqrt(mf.eta_plus) * density) <= 1e-10


# -- solve_game -----------------------------------------------------------------------


def test_game_trivial_model():
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1))
    res = solve_game(mf, QUAD, OPT)
    p_free = quasifree_pressure(mf, 0.0, 0.0, QUAD)
    assert res.p_sharp == pytest.approx(p_free, abs=1e-12)
    assert res.p_flat == pytest.approx(p_free, abs=1e-12)
    assert res.argmin_sharp == GamePoint(0.0, 0.0)
    assert res.argmax_flat == GamePoint(0.0, 0.0)


def test_game_purely_repulsive_equality():
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1), eta_plus=1.5)
    res = solve_game(mf, QUAD, OPT)
    assert abs(res.saddle_gap) <= 1e-10
    assert res.argmin_sharp.c_minus == 0.0
    assert res.gap_residual_sharp <= 1e-7


def test_game_strong_coupling_symmetry_breaking():
    beta = 20.0
    mf = flat_attractive(beta=beta)
    res = solve_game(mf, QUAD, OPT)
    # stationarity 2c = tanh(beta c / 2) has a positive root
    c_star = brentq(lambda c: 2 * c - math.tanh(beta * c / 2.0), 0.05, 1.0)
    assert res.argmin_sharp.c_minus == pytest.approx(c_star, abs=1e-6)
    assert res.argmin_sharp.c_minus > 0.0
    # broken minimum beats the normal state
    p_broken = payoff(mf, res.argmin_sharp, QUAD)
    p_normal = payoff(mf, GamePoint(0.0, 0.0), QUAD)
    assert p_broken < p_normal
    # stationarity residual through finite differences
    grad = payoff_gradient_fd(mf, res.argmin_sharp, QUAD)
    assert abs(grad[0]) <= 1e-8


def test_game_inequality_and_axis_equality_small_grid():
    lap = discrete_laplacian(1)
    for beta in (0.5, 2.0):
        for em, ep in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 0.5)]:
            mf = MeanFieldParams(beta=beta, hopping=lap, eta_plus=ep, eta_minus=em)
            res = solve_game(mf, QUAD, OPT)
            assert res.saddle_gap >= -1e-8
            if em == 0.0 or ep == 0.0:
                assert abs(res.saddle_gap) <= 1e-8
            assert res.gap_residual_sharp <= 1e-7
            assert res.gap_residual_flat <= 1e-7


def test_game_values_shift_identically_under_dispersion_shift():
    lap = discrete_laplacian(1)
    shifted = HoppingKernel({(0,): 2.0 + 0.7, (1,): -1.0, (-1,): -1.0}, 1)
    kw = dict(beta=2.0, eta_plus=1.0, eta_minus=1.0)
    base = solve_game(MeanFieldParams(hopping=lap, **kw), QUAD, OPT)
    moved = solve_game(MeanFieldParams(hopping=shifted, **kw), QUAD, OPT)
    d_sharp = moved.p_sharp - base.p_sharp
    d_flat = moved.p_flat - base.p_flat
    assert d_sharp == pytest.approx(d_flat, abs=1e-8)
    # the shifted model's optimizers are stationary in the shifted model
    assert moved.gap_residual_sharp <= 1e-7
    assert moved.gap_residual_flat <= 1e-7


def test_game_quadrature_budget(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(game, "quasifree_pressure", counted(quasifree_pressure))
    monkeypatch.setattr(game, "bz_gibbs_expectations", counted(bz_gibbs_expectations))
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=1.0)
    clear_game_caches()
    res = solve_game(mf, QUAD, OPT)
    # batched grids and slope roots: ~40 calls; one strategy per call and
    # bounded Brent took ~1,400
    assert 0 < len(calls) <= 150
    # a pressure call integrates at two resolutions, an expectation call at one
    assert res.kernel_calls == (2 * calls.count("quasifree_pressure")
                                + calls.count("bz_gibbs_expectations"))


@pytest.mark.parametrize("beta, eta_minus, kernel_calls", [(2.0, 1.0, 15), (8.0, 2.0, 88)],
                         ids=["normal_phase", "ordered"])
def test_kernel_calls_are_pinned(beta, eta_minus, kernel_calls):
    # 28 and 98 before the grid solved r_+ at c_- = 0 and the flat pass was batched
    mf = MeanFieldParams(beta=beta, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=eta_minus)
    clear_game_caches()
    assert solve_game(mf, QUAD, OPT).kernel_calls == kernel_calls


def test_game_counters_repeat_exactly():
    mf = MeanFieldParams(beta=8.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=2.0)
    solves = []
    for _ in range(2):
        clear_game_caches()  # solved twice, not read back
        solves.append(solve_game(mf, QUAD, OPT).as_dict())
    first, second = solves
    counters = ("payoff_evaluations", "kernel_calls", "refinement_margin")
    assert [first[c] for c in counters] == [second[c] for c in counters]
    assert first["payoff_evaluations"] > 0 and first["kernel_calls"] > 0
    assert 0.0 < first["refinement_margin"] <= QUAD.tol


# -- one solve per process and model --------------------------------------------------


def zone_calls(monkeypatch):
    """A list that grows by one on every zone-kernel call from now on."""
    calls = []
    zone = quasifree._zone

    def counted(*args, **kwargs):
        calls.append(1)
        return zone(*args, **kwargs)

    monkeypatch.setattr(quasifree, "_zone", counted)
    return calls


CACHED = MeanFieldParams(beta=3.0, hopping=discrete_laplacian(1), eta_plus=0.9, eta_minus=1.7)
CACHED_OPT = OptimizerSpec(grid_points=9)


def test_equal_models_parsed_apart_share_one_solved_game(tmp_path, monkeypatch):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"schema_version": 1, "dimension": 1,
                                "hopping": [[[0], 2.0], [[1], -1.0]], "beta": [3.0],
                                "eta": {"plus": 0.9, "minus": 1.7},
                                "optimizer": {"grid_points": 9}}))
    first, second = parse_config(str(path)), parse_config(str(path))
    assert first.hopping is not second.hopping and first.optimizer is not second.optimizer
    clear_game_caches()
    cold = solve_game(first.meanfield_params(3.0), first.quadrature, first.optimizer)
    calls = zone_calls(monkeypatch)
    warm = solve_game(second.meanfield_params(3.0), second.quadrature, second.optimizer)
    assert calls == []
    assert warm == cold
    assert cold.kernel_calls > 0  # the counts of the solve that did the work


def test_gap_after_a_game_makes_no_kernel_call(monkeypatch):
    clear_game_caches()
    cold = solve_gap_fixed_point(CACHED, QUAD, CACHED_OPT)
    clear_game_caches()
    solve_game(CACHED, QUAD, CACHED_OPT)
    calls = zone_calls(monkeypatch)
    warm = solve_gap_fixed_point(CACHED, QUAD, CACHED_OPT)
    assert len(calls) == 0  # the sharp search kept its residual
    assert dataclasses.asdict(warm) == dataclasses.asdict(cold)
    assert warm.iterations > 1


@pytest.mark.parametrize("spec, field, value", [
    ("mf", "beta", 3.5),
    ("mf", "eta_plus", 0.8),
    ("mf", "eta_minus", 1.6),
    ("mf", "hopping", HoppingKernel({(0,): 2.0, (1,): -0.9}, 1)),
    ("quad", "points_per_axis", 80),
    ("quad", "tol", 1e-7),
    ("opt", "grid_points", 11),
    ("opt", "xtol", 1e-11),
])
def test_a_changed_field_misses_the_cache(monkeypatch, spec, field, value):
    specs = {"mf": CACHED, "quad": QUAD, "opt": CACHED_OPT}
    clear_game_caches()
    solve_game(**specs)
    specs[spec] = dataclasses.replace(specs[spec], **{field: value})
    calls = zone_calls(monkeypatch)
    assert solve_gap_fixed_point(**specs).iterations == len(calls) > 1  # a sharp search
    searched = len(calls)
    solve_game(**specs)
    assert len(calls) > searched  # a flat search on top of the cached sharp one


@pytest.mark.parametrize("searched", [True, False], ids=["flat_search_fails", "sharp_search_fails"])
def test_an_accuracy_error_is_raised_on_every_ask(monkeypatch, searched):
    # at beta = 24, eta_- = 2 a 32-point zone rule fails its refinement
    # check in the sharp search, so gap fails too.  No model is known to fail
    # in the flat search alone, so there the zone kernel raises once the
    # sharp search is cached.
    mf = MeanFieldParams(beta=24.0, hopping=discrete_laplacian(1), eta_plus=1.0, eta_minus=2.0)
    quad = QuadratureSpec(points_per_axis=32)
    clear_game_caches()
    calls = zone_calls(monkeypatch)
    if searched:
        mf, quad = CACHED, QUAD
        solve_gap_fixed_point(mf, quad, OPT)

        def failing(*args, **kwargs):
            calls.append(1)
            raise AccuracyError("quadrature not converged", {"base": 0.0, "refined": 1.0})

        monkeypatch.setattr(quasifree, "_zone", failing)
    errors = []
    for _ in range(2):
        calls.clear()
        with pytest.raises(AccuracyError) as err:
            solve_game(mf, quad, OPT)
        assert calls  # solved again, not read back
        errors.append((str(err.value), err.value.values))
    assert errors[0] == errors[1]
    assert game._solved_game.cache_info().currsize == 0
    assert game._sharp_search.cache_info().currsize == searched
    if not searched:
        with pytest.raises(AccuracyError):
            solve_gap_fixed_point(mf, quad, OPT)


def test_edge_optimum_is_the_exact_origin():
    # the c_- slope vanishes at the origin and is positive just right of it,
    # so the minimum is c_- = 0 itself; derivative-free refinement stopped
    # at c_- ~ 6e-10 with a gap residual ~ 3e-10
    mf = MeanFieldParams(beta=7.0, hopping=discrete_laplacian(1),
                         eta_plus=0.2, eta_minus=0.9)
    res = solve_game(mf, QUAD, OPT)
    assert res.argmin_sharp.c_minus == 0.0
    assert res.gap_residual_sharp <= 1e-12


@pytest.mark.parametrize("beta, eta_plus, eta_minus, c_minus", [
    (8.0, 0.0, 1.67, 0.0056867),  # inside the first grid cell, 1/32 wide
    (8.0, 0.0, 1.675, 0.024883),
    (8.0, 1.0, 2.0, 0.087182),
    (4.0, 0.5, 3.0, 0.28281),
])
def test_c_minus_optima_are_roots_of_the_gap_equation(beta, eta_plus, eta_minus, c_minus):
    # a slope root solves the gap equations to rounding; bounded Brent on
    # the payoff stopped at residuals 1e-11 to 1e-9 on these models
    mf = MeanFieldParams(beta=beta, hopping=discrete_laplacian(1),
                         eta_plus=eta_plus, eta_minus=eta_minus)
    res = solve_game(mf, QUAD, OPT)
    assert res.argmin_sharp.c_minus == pytest.approx(c_minus, rel=1e-4)
    assert res.gap_residual_sharp <= 1e-12


def test_sharp_profile_slope_is_the_c_minus_gap_equation():
    # envelope theorem: the c_- derivative of payoff(c_-, r_+(c_-)) is the
    # partial derivative 2 (c_- - sqrt(eta_-) Re pair) at (c_-, r_+(c_-))
    mf = MeanFieldParams(beta=8.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=2.0)
    step = 1e-5
    for cm in (0.05, 0.2, 0.5):
        fd = (decision_rule(mf, cm + step, QUAD, OPT).payoff_value
              - decision_rule(mf, cm - step, QUAD, OPT).payoff_value) / (2 * step)
        reply = decision_rule(mf, cm, QUAD, OPT)
        slope = game._c_minus_slope(mf, GamePoint(cm, reply.c_plus), QUAD, None)
        assert slope == pytest.approx(fd, abs=1e-8)


def test_batched_decision_rule_equals_scalar_calls():
    mf = MeanFieldParams(beta=3.0, hopping=discrete_laplacian(1),
                         eta_plus=0.7, eta_minus=1.3)
    c_minus = np.linspace(0.0, 1.0, 9)
    lanes = decision_rule(mf, c_minus, QUAD, OPT)
    for j, cm in enumerate(c_minus):
        one = decision_rule(mf, cm, QUAD, OPT)
        # ulp-level kernel differences may steer the root solver, by far less than xtol
        assert abs(lanes.c_plus[j] - one.c_plus) <= 1e-12
        assert abs(lanes.payoff_value[j] - one.payoff_value) <= 1e-15


# P_sharp, P_flat of grid search plus bounded Brent, the solver before the
# slope roots and batched grids: (d, beta, eta_+, eta_-, P_sharp, P_flat)
PINNED = [
    (1, 2.0, 1.0, 0.0, 0.11907894708330499, 0.11907894708330499),
    (1, 8.0, 0.0, 3.0, 0.06143337216782316, 0.06143337216782316),
    (1, 8.0, 1.0, 2.0, 0.012323317873909584, 0.01232331787390956),
    (1, 4.0, 0.5, 3.0, 0.05050185251828969, 0.05050185251828972),
    (1, 2.0, 1.0, 1.0, 0.11907894708330499, 0.11907894708330499),
    (1, 0.5, 1.5, 0.5, 1.1161772488238648, 1.1161772488238648),
    (1, 6.0, 0.3, 1.2, 0.025156586043170545, 0.025156586043170545),
    (2, 2.0, 1.0, 1.0, 0.032409756429530895, 0.032409756429530895),
]


@pytest.mark.parametrize("d, beta, eta_plus, eta_minus, p_sharp, p_flat", PINNED)
def test_game_values_are_pinned(d, beta, eta_plus, eta_minus, p_sharp, p_flat):
    mf = MeanFieldParams(beta=beta, hopping=discrete_laplacian(d),
                         eta_plus=eta_plus, eta_minus=eta_minus)
    res = solve_game(mf, QUAD, OPT)
    assert abs(res.p_sharp - p_sharp) <= 1e-12
    assert abs(res.p_flat - p_flat) <= 1e-12


NNN = HoppingKernel({(0,): 2.5, (1,): -1.0, (-1,): -1.0, (2,): -0.25, (-2,): -0.25}, 1)
# P_flat of the flat search over the whole c_+ box [0, 2], before it started
# at the sharp reply: (kernel, beta, eta_+, eta_-, P_flat)
PINNED_FLAT = [
    ("lap", 0.5, 1.0, 0.5, 1.199366643886163),
    ("lap", 1.0, 0.25, 1.5, 0.44592220340318023),
    ("lap", 2.0, 1.0, 1.0, 0.11907894708330499),
    ("lap", 3.0, 0.5, 3.0, 0.07025219093205505),
    ("lap", 4.0, 0.25, 4.0, 0.11382830359093854),
    ("lap", 5.0, 1.0, 2.0, 0.02639903748180036),
    ("lap", 6.0, 0.5, 1.0, 0.02308443438100046),
    ("lap", 7.0, 1.0, 4.0, 0.07571777605766192),
    ("lap", 8.0, 1.0, 2.0, 0.01232331787390955),
    ("lap", 8.0, 0.5, 1.5, 0.014521480762447185),
    ("lap", 10.0, 0.25, 0.5, 0.011520311089914371),
    ("lap", 10.0, 1.0, 3.0, 0.031240634104184595),
    ("lap", 4.0, 0.0, 2.0, 0.05500080724228132),
    ("lap", 6.0, 1.0, 0.0, 0.019543740969888035),
    ("nnn", 0.5, 0.5, 2.0, 1.0977050828970725),
    ("nnn", 1.0, 1.0, 4.0, 0.29629198599637085),
    ("nnn", 1.0, 0.5, 1.0, 0.3224780654760751),
    ("nnn", 2.0, 0.25, 1.0, 0.10662883026745455),
    ("nnn", 3.0, 1.0, 1.5, 0.046908855617400325),
    ("nnn", 4.0, 0.5, 3.0, 0.033175965149410264),
    ("nnn", 5.0, 0.25, 2.0, 0.02522575992992619),
    ("nnn", 6.0, 1.0, 1.0, 0.015168198408525126),
    ("nnn", 6.0, 0.5, 1.5, 0.01740192062018034),
    ("nnn", 2.0, 0.0, 3.0, 0.11403004994401039),
    ("nnn", 5.0, 1.0, 0.0, 0.02041968734888247),
]


@pytest.mark.parametrize("kernel, beta, eta_plus, eta_minus, p_flat", PINNED_FLAT)
def test_flat_values_are_pinned(kernel, beta, eta_plus, eta_minus, p_flat):
    hopping = discrete_laplacian(1) if kernel == "lap" else NNN
    mf = MeanFieldParams(beta=beta, hopping=hopping, eta_plus=eta_plus, eta_minus=eta_minus)
    res = solve_game(mf, QUAD, OPT)
    assert abs(res.p_flat - p_flat) <= 1e-14


DIAGONAL = HoppingKernel({(0, 0): 4.8, (1, 0): -1.0, (0, 1): -1.0,
                          (1, 1): -0.2, (1, -1): -0.2}, 2)


@pytest.mark.parametrize("kernel, eta_plus, eta_minus", [
    (NNN, 0.0, 0.0),  # the free pressure
    (NNN, 0.5, 2.0),
    (DIAGONAL, 0.5, 2.0),
], ids=["nnn_free", "nnn", "diagonal_2d"])
def test_next_nearest_neighbour_games_solve_at_default_specs(kernel, eta_plus, eta_minus):
    # the zone integrand is smooth and periodic, so the midpoint rule meets
    # the refinement check at beta = 10, where Gauss-Legendre did not
    mf = MeanFieldParams(beta=10.0, hopping=kernel, eta_plus=eta_plus, eta_minus=eta_minus)
    res = solve_game(mf, QUAD, OPT)
    fine = solve_game(mf, QuadratureSpec(points_per_axis=4 * QUAD.resolve_points(kernel.d)), OPT)
    assert abs(res.p_sharp - fine.p_sharp) <= 1e-12
    assert abs(res.p_flat - fine.p_flat) <= 1e-12


def test_flat_value_is_the_profile_maximum_across_basin_jumps():
    # here the inner minimizer c_-* jumps between neighbouring c_+ grid
    # points, so the flat profile has a kink at its maximum
    mf = MeanFieldParams(beta=8.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=2.0)
    res = solve_game(mf, QUAD, OPT)
    profile = [game._c_minus_minima(
        lambda cm: payoff(mf, GamePoint(cm, cp), QUAD),
        lambda cm: game._c_minus_slope(mf, GamePoint(cm, cp), QUAD, None), mf, OPT)[0]
        for cp in np.linspace(*strategy_boxes(mf)[1], 201)]
    assert np.max(np.abs(np.diff([cm for cm, _ in profile]))) >= 0.05
    assert -res.p_flat >= max(value for _, value in profile) - 1e-12


def test_batched_c_minus_minima_equal_one_lane_searches():
    # the flat search's replies r_- of several c_+ in one pass, on both
    # sides of the ordering transition, against one search per c_+
    mf = MeanFieldParams(beta=8.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=2.0)
    c_plus = np.array([0.0, 0.03, 0.0659, 0.066, 0.07, 0.08, 0.5, 2.0])
    lanes = game._lane_minima(
        lambda cm, i: payoff(mf, GamePoint(cm, c_plus[i]), QUAD),
        lambda cm, i, _: game._minus_slope(mf, cm, c_plus[i], QUAD, None), mf, OPT, c_plus.size)
    assert len(lanes) == c_plus.size
    for cp, batched in zip(c_plus.tolist(), lanes):
        alone = game._c_minus_minima(
            lambda cm: payoff(mf, GamePoint(cm, cp), QUAD),
            lambda cm: game._c_minus_slope(mf, GamePoint(cm, cp), QUAD, None), mf, OPT)
        assert len(batched) == len(alone)
        for (x, value), (x1, value1) in zip(batched, alone):
            assert abs(x - x1) <= 1e-15 and abs(value - value1) <= 1e-15


def test_batched_c_minus_minima_keep_each_lanes_order():
    # tilted double wells: two minima in some lanes, one or a box end in others
    tilt = np.array([0.01, -0.01, 0.0, 0.2, -0.3, 0.01])

    def f(x, t):
        return (x - 0.2) ** 2 * (x - 0.7) ** 2 + t * x

    def slope(x, t):
        return 2 * (x - 0.2) * (x - 0.7) * (2 * x - 0.9) + t

    lanes = game._lane_minima(lambda x, i: f(x, tilt[i]), lambda x, i, _: slope(x, tilt[i]),
                              UNIT_BOXES, OPT, tilt.size)
    assert [len(lane) for lane in lanes] == [2, 2, 2, 1, 1, 2]
    for t, batched in zip(tilt.tolist(), lanes):
        assert batched == c_minus_minima(lambda x: f(x, t), lambda x: slope(x, t))


def c_minus_minima(f, slope):
    """The minima of a synthetic f with its slope over [0, 1], searched as
    the game searches c_-."""
    return game._c_minus_minima(f, slope, UNIT_BOXES, OPT)


def test_c_minus_minima_of_two_wells_lowest_first():
    # wells near 0.2 and 0.7, the first lower by the tilt
    def f(x):
        return (x - 0.2) ** 2 * (x - 0.7) ** 2 + 0.01 * x

    def slope(x):
        return 2 * (x - 0.2) * (x - 0.7) * (2 * x - 0.9) + 0.01

    (x1, f1), (x2, f2) = c_minus_minima(f, slope)
    assert f1 < f2
    for x, value, bracket in ((x1, f1, (0.1, 0.3)), (x2, f2, (0.6, 0.8))):
        assert abs(x - brentq(slope, *bracket, xtol=1e-15)) <= OPT.xtol
        assert value == f(x)


def test_other_minima_report_every_well_of_the_sharp_profile(monkeypatch):
    # a second well 1.0 above the lowest: every other local minimum is
    # reported with its reply r_+ and its payoff, whatever its height
    search = game._sharp_search(CACHED, QUAD, OPT)
    lowest = search.minima[0]
    well = (0.3, lowest[1] + 1.0)
    replies = MappingProxyType({**search.replies, 0.3: game.DecisionResult(0.7, well[1])})
    monkeypatch.setattr(game, "_sharp_search", lambda *specs: search._replace(
        minima=(lowest, well), replies=replies))
    game._solved_game.cache_clear()
    try:
        result = solve_game(CACHED, QUAD, OPT)
    finally:
        game._solved_game.cache_clear()  # the game of the stand-in search
    assert result.other_minima == ((GamePoint(0.3, 0.7), lowest[1] + 1.0),)
    assert result.as_dict()["other_minima"] == [[[0.3, 0.7], lowest[1] + 1.0]]
    assert (result.p_sharp, result.argmin_sharp.c_minus) == (-lowest[1], lowest[0])


def test_c_minus_minima_at_an_outward_slope_are_the_box_ends():
    # a concave f: the slope points out of the box at both ends and nowhere
    # turns from - to +
    def f(x):
        return -(x - 0.4) ** 2

    assert c_minus_minima(f, lambda x: -2 * (x - 0.4)) == [(1.0, f(1.0)), (0.0, f(0.0))]


def test_c_minus_minimum_where_the_slope_vanishes_at_a_node_is_found_once():
    # 0.5 is a node of the 33-point grid, the last of one cell and the first of the next
    assert 0.5 in np.linspace(*strategy_boxes(UNIT_BOXES)[0], OPT.grid_points)
    assert c_minus_minima(lambda x: (x - 0.5) ** 2, lambda x: 2 * (x - 0.5)) == [(0.5, 0.0)]


def c_plus_maximum(slope, guess, eta_plus=1.0):
    """The maximizer over the c_+ box ([0, 2] at eta_+ = 1) of a concave
    function of one lane, searched from a guess as the flat search is, and
    every c_+ at which its slope was evaluated."""
    evaluated = []

    def counted(x, lanes):
        evaluated.extend(x.tolist())
        return slope(x)

    mf = dataclasses.replace(UNIT_BOXES, eta_plus=eta_plus)
    return game._c_plus_maximum(counted, mf, OPT, 1, guess)[0], evaluated


def test_c_plus_maximum_at_the_guess_takes_two_slopes():
    x, evaluated = c_plus_maximum(lambda x: 0.7 - x, guess=0.7)
    assert abs(x - 0.7) <= OPT.xtol
    assert evaluated == pytest.approx([0.7 + OPT.xtol / 2, 0.7 - OPT.xtol / 2], abs=1e-16)


@pytest.mark.parametrize("guess, root, edge", [(0.3, 0.7, 2.0), (1.5, 0.7, 0.0),
                                               (None, 0.7, None)],
                         ids=["root_above_the_guess", "root_below_the_guess", "no_guess"])
def test_c_plus_maximum_searches_the_side_of_the_root(guess, root, edge):
    x, evaluated = c_plus_maximum(lambda x: np.tanh(root - x), guess)
    assert abs(x - root) <= OPT.xtol
    if guess is not None:  # that side's box edge closes the bracket; the other is never evaluated
        assert edge in evaluated and 2.0 - edge not in evaluated


@pytest.mark.parametrize("guess", [0.5, 2.0, None])
def test_c_plus_maximum_where_the_slope_points_out_of_the_box_is_its_edge(guess):
    up, _ = c_plus_maximum(lambda x: 3.0 - x, guess)  # slope >= 0 at hi
    down, _ = c_plus_maximum(lambda x: -1.0 - x, guess)  # slope <= 0 at lo
    assert (down, up) == strategy_boxes(UNIT_BOXES)[1] == (0.0, 2.0)


def test_c_plus_maximum_without_repulsion_is_zero():
    assert c_plus_maximum(lambda x: 0.7 - x, 0.7, eta_plus=0.0) == (0.0, [])


def test_game_solves_where_only_the_inner_grids_failed_the_refinement_check():
    # the c_- searches evaluate the payoff at their minima alone, not on a
    # grid at every c_+ of the flat search, where one lane fails the
    # refinement check at this beta and 40 points per axis
    mf = MeanFieldParams(beta=16.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=2.0)
    quad = QuadratureSpec(points_per_axis=40)
    res = solve_game(mf, quad, OPT)
    with pytest.raises(AccuracyError):  # the c_- grid at the box edge c_+ = 0
        payoff(mf, GamePoint(np.linspace(*strategy_boxes(mf)[0], OPT.grid_points), 0.0), quad)
    fine = solve_game(mf, QuadratureSpec(points_per_axis=512), OPT)
    assert abs(res.p_sharp - fine.p_sharp) <= quad.tol
    assert abs(res.p_flat - fine.p_flat) <= quad.tol


def test_game_solves_where_the_box_edge_fails_the_refinement_check():
    # the flat search starts at the sharp reply c_+* and never evaluates the
    # box edge c_+ = 0, whose payoff at c_- = 0 fails the refinement check
    mf = MeanFieldParams(beta=24.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=2.0)
    quad = QuadratureSpec(points_per_axis=48)
    res = solve_game(mf, quad, OPT)
    with pytest.raises(AccuracyError):
        payoff(mf, GamePoint(0.0, 0.0), quad)
    fine = solve_game(mf, QuadratureSpec(points_per_axis=4 * 48), OPT)
    assert abs(res.p_sharp - fine.p_sharp) <= 1e-12
    assert abs(res.p_flat - fine.p_flat) <= 1e-12
    assert abs(res.argmax_flat.c_plus - res.argmin_sharp.c_plus) <= OPT.xtol


def test_each_best_reply_is_computed_once(monkeypatch):
    seen = []

    def recorder(mf, c_minus, *args, **kwargs):
        seen.extend(np.atleast_1d(c_minus).tolist())
        return decision_rule(mf, c_minus, *args, **kwargs)

    monkeypatch.setattr(game, "decision_rule", recorder)
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=1.0)
    clear_game_caches()
    solve_game(mf, QUAD, OPT)
    assert seen
    assert len(seen) == len(set(seen))  # r_+ at the sharp argmin is reused, not recomputed


def test_a_normal_phase_game_calls_the_decision_rule_once(monkeypatch):
    # the grid's one call solves r_+ at the node c_- = 0 itself, so the
    # minimum at the origin reuses that reply: no second c_+ search
    seen = []

    def recorder(mf, c_minus, *args, **kwargs):
        seen.append(np.atleast_1d(c_minus).tolist())
        return decision_rule(mf, c_minus, *args, **kwargs)

    monkeypatch.setattr(game, "decision_rule", recorder)
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=1.0)
    clear_game_caches()
    res = solve_game(mf, QUAD, OPT)
    assert res.argmin_sharp.c_minus == 0.0
    assert len(seen) == 1
    assert 0.0 in seen[0] and OPT.xtol not in seen[0]


# -- gap equations --------------------------------------------------------------------


def test_gap_residual_trivial():
    mf = MeanFieldParams(beta=1.0, hopping=discrete_laplacian(1))
    assert gap_residual(mf, GamePoint(0.0, 0.0), QUAD) == 0.0


def test_gap_residual_zero_at_game_optimizer_positive_elsewhere():
    mf = MeanFieldParams(beta=8.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=2.0)
    res = solve_game(mf, QUAD, OPT)
    assert gap_residual(mf, res.argmin_sharp, QUAD) <= 1e-8
    assert gap_residual(mf, GamePoint(0.9, 1.7), QUAD) > 1e-3


def test_flat_residual_is_read_from_the_flat_slopes_gap_map(monkeypatch):
    # the flat slope evaluated the gap map at argmax_flat; only the sharp
    # residual is a call of its own
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return gap_residual(*args, **kwargs)

    monkeypatch.setattr(game, "gap_residual", counted)
    for beta, eta_minus in ((2.0, 1.0), (8.0, 2.0)):
        mf = MeanFieldParams(beta=beta, hopping=discrete_laplacian(1),
                             eta_plus=1.0, eta_minus=eta_minus)
        clear_game_caches()
        calls.clear()
        res = solve_game(mf, QUAD, OPT)
        assert calls == [res.argmin_sharp]
        assert abs(res.gap_residual_flat - gap_residual(mf, res.argmax_flat, QUAD)) <= 1e-15


def test_gap_residual_equals_half_gradient_norm():
    mf = MeanFieldParams(beta=3.0, hopping=discrete_laplacian(1),
                         eta_plus=0.8, eta_minus=1.4)
    for g in (GamePoint(0.2, 0.4), GamePoint(0.55, 0.1)):
        res = gap_residual(mf, g, QUAD)
        grad = payoff_gradient_fd(mf, g, QUAD, step=1e-6)
        assert res == pytest.approx(0.5 * math.hypot(*grad), rel=1e-4)


def test_fixed_point_from_optimizer_converges_immediately():
    mf = MeanFieldParams(beta=8.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=2.0)
    res = solve_game(mf, QUAD, OPT)
    # the game optimizer carries residual <= 1e-7 (its own guarantee), so a
    # gap solve at that tolerance accepts its point
    loose = OptimizerSpec(tol_gap=1e-7)
    sol = solve_gap_fixed_point(mf, QUAD, loose)
    assert sol.converged
    # and the default tight tolerance converges at the game's optimizer
    tight = solve_gap_fixed_point(mf, QUAD)
    assert tight.converged
    assert abs(tight.c_minus - res.argmin_sharp.c_minus) <= 1e-7


def test_fixed_point_trivial_model():
    mf = MeanFieldParams(beta=1.0, hopping=discrete_laplacian(1))
    sol = solve_gap_fixed_point(mf, QUAD)
    assert sol.converged
    assert sol.c_minus == pytest.approx(0.0, abs=1e-12)
    assert sol.c_plus == pytest.approx(0.0, abs=1e-12)


def test_fixed_point_high_temperature_normal_phase():
    beta = 0.5
    mf = flat_attractive(beta=beta)
    sol = solve_gap_fixed_point(mf, QUAD)
    assert sol.converged
    assert sol.c_minus == pytest.approx(0.0, abs=1e-6)
    # normal phase really is the payoff minimum on a grid
    p0 = payoff(mf, GamePoint(0.0, 0.0), QUAD)
    for cm in np.linspace(0.05, 1.0, 12):
        assert p0 <= payoff(mf, GamePoint(cm, 0.0), QUAD) + 1e-12


def test_fixed_point_outputs_are_stationary():
    mf = MeanFieldParams(beta=8.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=2.0)
    sol = solve_gap_fixed_point(mf, QUAD)
    assert sol.converged
    grad = payoff_gradient_fd(mf, GamePoint(sol.c_minus, sol.c_plus), QUAD)
    assert math.hypot(*grad) <= 1e-6


def test_gap_converges_where_the_damped_iteration_stalled():
    # a damped iteration from (0.3, sqrt(eta_+)) stalled here after 500
    # steps at c_- = 0.0612, residual 6.0e-5: near small c_- its contraction
    # rate tends to 1
    mf = MeanFieldParams(beta=2.3, hopping=discrete_laplacian(1),
                         eta_plus=0.16, eta_minus=3.3)
    sol = solve_gap_fixed_point(mf, QUAD)
    assert sol.converged
    assert sol.residual <= OPT.tol_gap
    assert sol.c_minus == pytest.approx(0.0517, abs=1e-4)


@pytest.mark.parametrize("eta_plus,eta_minus", [(1.0, 2.0), (0.0, 1.64), (0.7, 0.0)],
                         ids=["general", "eta_plus_axis", "eta_minus_axis"])
def test_gap_is_the_games_sharp_optimizer_bit_for_bit(eta_plus, eta_minus):
    mf = MeanFieldParams(beta=7.95, hopping=discrete_laplacian(1),
                         eta_plus=eta_plus, eta_minus=eta_minus)
    res = solve_game(mf, QUAD, OPT)
    clear_game_caches()  # a gap of its own, not the game's search read back
    sol = solve_gap_fixed_point(mf, QUAD, OPT)
    assert (sol.c_minus, sol.c_plus) == (res.argmin_sharp.c_minus, res.argmin_sharp.c_plus)
    assert sol.residual == res.gap_residual_sharp
    assert sol.converged == (sol.residual <= OPT.tol_gap)
    assert sol.iterations > 0


def test_quasiconvexity_diagnostic_runs():
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1),
                         eta_plus=0.5, eta_minus=1.0)
    rep = quasiconvexity_report(mf, 0.2, QUAD)
    assert rep.n_samples == 101
    assert rep.max_violation >= 0.0


def test_quasiconvexity_report_matches_scalar_payoffs():
    mf = MeanFieldParams(beta=8.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=2.0)
    rep = quasiconvexity_report(mf, 0.1, QUAD, n_samples=41)
    fs = np.array([payoff(mf, GamePoint(x, 0.1), QUAD)
                   for x in np.linspace(*strategy_boxes(mf)[0], 41)])
    m = int(np.argmin(fs))
    violation = max(np.max(np.diff(fs[: m + 1]), initial=0.0),
                    np.max(-np.diff(fs[m:]), initial=0.0))
    assert abs(rep.max_violation - violation) <= 1e-15


def test_game_point_validation():
    with pytest.raises(ConfigError):
        GamePoint(-0.1, 0.0)


@pytest.mark.parametrize("c_minus,c_plus,message", [
    (-0.1, 0.3, "gauge-fixed modulus"), (-math.inf, 0.3, "gauge-fixed modulus"),
    (math.nan, 0.3, "finite"), (math.inf, 0.3, "finite"),
    (0.2, math.nan, "finite"), (0.2, math.inf, "finite"), (0.2, -math.inf, "finite")])
def test_scalar_and_lane_points_reject_the_same_inputs(c_minus, c_plus, message):
    # plain numbers take the math checks, lanes the numpy reductions
    for point in ((c_minus, c_plus), (np.float64(c_minus), c_plus),
                  (np.array([0.5, c_minus]), c_plus), (c_minus, np.array([c_plus, 0.1]))):
        with pytest.raises(ConfigError, match=message):
            GamePoint(*point)
    GamePoint(0.0, -1.0)
    GamePoint(np.zeros(2), np.array([-1.0, 2.0]))
