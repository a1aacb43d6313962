"""Edge paths: d=2 boxes, open boundaries, optima past the unit strategy boxes."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from kaclab.errors import CapacityError
from kaclab.fock import build_kac_hamiltonian, gibbs_observables
from kaclab.game import (
    GamePoint,
    OptimizerSpec,
    decision_rule,
    payoff,
    solve_game,
    solve_gap_fixed_point,
)
from kaclab.lattice import (
    HoppingKernel,
    LatticeBox,
    MeanFieldParams,
    ModelParams,
    discrete_laplacian,
)
from kaclab.potentials import PlainGaussian, Yukawa
from kaclab.quasifree import QuadratureSpec
from kaclab.sweep import SweepPlan, run_sweep


def test_two_dimensional_single_site_sweep():
    f_plus = PlainGaussian(1.0, d=2)
    f_minus = Yukawa(1.0, 1.0, 1.0, d=2)
    model = ModelParams(beta=2.0, hopping=discrete_laplacian(2),
                        f_plus=f_plus, f_minus=f_minus)
    plan = SweepPlan(model=model, L_list=(0,),
                     gamma_minus_schedule=(0.5, 0.25),
                     gamma_plus_schedule=(0.5,))
    records = run_sweep(plan)
    assert len(records) == 2
    assert all(r.d == 2 and np.isfinite(r.pressure) for r in records)


def test_two_dimensional_l1_exceeds_capacity():
    # 3x3 box has 9 sites, beyond the 8-site cap: surfaced, not raised
    model = ModelParams(beta=1.0, hopping=discrete_laplacian(2),
                        f_plus=None, f_minus=None)
    plan = SweepPlan(model=model, L_list=(0, 1),
                     gamma_minus_schedule=(0.5,), gamma_plus_schedule=(0.5,))
    failures = []
    records = run_sweep(plan, failures=failures)
    assert len(records) == 1 and records[0].L == 0
    assert len(failures) == 1
    with pytest.raises(CapacityError):
        build_kac_hamiltonian(
            ModelParams(beta=1.0, hopping=discrete_laplacian(2),
                        f_plus=None, f_minus=None),
            LatticeBox(2, 1, "periodic"),
        )


def test_open_boundary_sweep_differs_from_periodic():
    f_minus = PlainGaussian(1.0, d=1)
    model = ModelParams(beta=2.0, hopping=discrete_laplacian(1),
                        f_plus=None, f_minus=f_minus)
    plans = {
        b: SweepPlan(model=model, L_list=(1,), gamma_minus_schedule=(0.5,),
                     gamma_plus_schedule=(0.5,), boundary=b)
        for b in ("open", "periodic")
    }
    recs = {b: run_sweep(p)[0] for b, p in plans.items()}
    assert recs["open"].boundary == "open"
    assert recs["open"].pressure != recs["periodic"].pressure


def test_open_boundary_onsite_correction_runs():
    f_plus = PlainGaussian(1.0, d=1)
    mp = ModelParams(beta=1.0, hopping=discrete_laplacian(1),
                     f_plus=f_plus, f_minus=None,
                     include_onsite_correction=True)
    op = build_kac_hamiltonian(mp, LatticeBox(1, 1, "open"))
    obs = gibbs_observables(op, 1.0)
    assert 0.0 <= obs.density <= 2.0


def test_interior_maximizer_not_flagged():
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1), eta_plus=1.0)
    res = decision_rule(mf, 0.0, QuadratureSpec(), OptimizerSpec())
    assert 0.0 < res.c_plus < 2.0


def bounded_minimum(f, hi):
    """min of f over [0, hi] by a bounded scalar search, independent of the game's."""
    return minimize_scalar(f, bounds=(0.0, hi), method="bounded", options={"xatol": 1e-12}).fun


def assert_solves_the_gap_equations(mf):
    opt, quad = OptimizerSpec(), QuadratureSpec()
    game = solve_game(mf, quad, opt)
    assert game.gap_residual_sharp <= opt.tol_gap
    assert solve_gap_fixed_point(mf, quad, opt).converged
    return game


@pytest.mark.parametrize("eta_plus", [0.0, 0.5])
def test_pairing_optimum_past_the_unit_c_minus_box_solves_the_gap_equations(eta_plus):
    # eta_- = 8 puts the pairing optimum (c_-* = 1.19 at eta_+ = 0) past
    # [0, 1], inside the model's own box [0, sqrt(2)]
    mf = MeanFieldParams(beta=4.0, hopping=discrete_laplacian(1),
                         eta_minus=8.0, eta_plus=eta_plus)
    game = assert_solves_the_gap_equations(mf)
    assert game.argmin_sharp.c_minus > 1.0
    if eta_plus == 0.0:  # P = -min over c_- of payoff(c_-, 0)
        p = -bounded_minimum(lambda cm: payoff(mf, GamePoint(cm, 0.0)), math.sqrt(8.0) / 2)
        assert abs(game.p_sharp - p) <= 1e-12 and abs(game.p_flat - p) <= 1e-12


def test_repulsive_optimum_past_the_unit_c_plus_box_solves_the_gap_equations():
    # a band bottom of -20 and eta_+ = 9 put the repulsive optimum at
    # c_+* = 3.32, past [0, 2], inside the model's own box [0, 6]
    mf = MeanFieldParams(beta=2.0, hopping=HoppingKernel({(0,): -20.0}, 1), eta_plus=9.0)
    game = assert_solves_the_gap_equations(mf)
    assert game.argmin_sharp.c_plus > 2.0
    # eta_- = 0: P = -max over c_+ of payoff(0, c_+)
    p = bounded_minimum(lambda cp: -payoff(mf, GamePoint(0.0, cp)), 6.0)
    assert abs(game.p_sharp - p) <= 1e-12 and abs(game.p_flat - p) <= 1e-12
