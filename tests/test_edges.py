"""Edge paths: d=2 boxes, open boundaries, flagged boundary optima."""

import numpy as np
import pytest

from kaclab.errors import CapacityError
from kaclab.fock import build_kac_hamiltonian, gibbs_observables
from kaclab.game import OptimizerSpec, decision_rule, solve_game
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


def test_boundary_pinned_maximizer_is_flagged():
    # strongly negative band bottom pushes the repulsive response past the
    # search box: the result must carry the flag instead of failing silently
    hop = HoppingKernel({(0,): -20.0}, 1)
    mf = MeanFieldParams(beta=2.0, hopping=hop, eta_plus=9.0)
    res = decision_rule(mf, 0.0, QuadratureSpec(), OptimizerSpec())
    assert res.at_boundary
    assert res.c_plus == pytest.approx(2.0, abs=1e-6)
    game = solve_game(mf, QuadratureSpec(), OptimizerSpec())
    assert game.boundary_flagged


def test_interior_maximizer_not_flagged():
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1), eta_plus=1.0)
    res = decision_rule(mf, 0.0, QuadratureSpec(), OptimizerSpec())
    assert not res.at_boundary
    assert 0.0 < res.c_plus < 2.0


@pytest.mark.parametrize("eta_plus", [0.0, 0.5])
def test_c_minus_pinned_at_the_box_edge_is_flagged(eta_plus):
    # eta_- = 8 > 4 puts the pairing optimum (c_-* = 1.19 at eta_+ = 0) past
    # the default c_- box [0, 1]: the edge point is no gap solution
    mf = MeanFieldParams(beta=4.0, hopping=discrete_laplacian(1),
                         eta_minus=8.0, eta_plus=eta_plus)
    game = solve_game(mf, QuadratureSpec(), OptimizerSpec())
    assert game.argmin_sharp.c_minus == pytest.approx(1.0, abs=1e-9)
    assert game.gap_residual_sharp > 1e-2
    assert game.boundary_flagged


def test_lower_c_minus_edge_above_zero_is_flagged_but_not_the_origin():
    # normal phase: the c_- optimum sits at a lower box edge placed above 0
    mf = MeanFieldParams(beta=0.5, hopping=discrete_laplacian(1), eta_minus=1.0)
    assert not solve_game(mf, QuadratureSpec(), OptimizerSpec()).boundary_flagged
    cut = OptimizerSpec(c_minus_box=(0.5, 1.0))
    game = solve_game(mf, QuadratureSpec(), cut)
    assert game.argmin_sharp.c_minus == pytest.approx(0.5, abs=1e-9)
    assert game.boundary_flagged
    # on the eta_- = 0 axis the origin is the exact optimum, whatever the box
    axis = MeanFieldParams(beta=0.5, hopping=discrete_laplacian(1), eta_plus=1.0)
    assert not solve_game(axis, QuadratureSpec(), cut).boundary_flagged
