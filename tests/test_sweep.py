"""Order-of-limits sweeps, product-state energies, and limit reports."""

import dataclasses
import math

import numpy as np
import pytest

from kaclab.errors import ConfigError, InsufficientDataError
from kaclab.fock import build_meanfield_hamiltonian, pressure
from kaclab.game import solve_game
from kaclab.lattice import (
    HoppingKernel,
    LatticeBox,
    MeanFieldParams,
    ModelParams,
    discrete_laplacian,
)
from kaclab.potentials import GaussianMixture, PlainGaussian, TableSpline
from kaclab.quasifree import QuadratureSpec
from kaclab.sweep import (
    SweepPlan,
    limit_report,
    product_state_energy_density,
    run_sweep,
)


def zero_kernel(d=1):
    return HoppingKernel({tuple([0] * d): 0.0}, d)


def zero_potential(d=1):
    r = np.linspace(0.0, 5.0, 16)
    return TableSpline(r, np.zeros_like(r), d=d)


def hopping_only_plan(order="minus_first", L_list=(0, 1), hopping=None):
    model = ModelParams(
        beta=2.0, hopping=hopping or discrete_laplacian(1),
        f_plus=None, f_minus=None,
    )
    return SweepPlan(
        model=model, L_list=L_list,
        gamma_minus_schedule=(0.5, 0.25, 0.125),
        gamma_plus_schedule=(0.5, 0.25, 0.125),
        order=order, boundary="periodic",
    )


# -- plan validation -----------------------------------------------------------


def test_plan_rejects_nondecreasing_schedules():
    model = ModelParams(beta=1.0, hopping=discrete_laplacian(1), f_plus=None, f_minus=None)
    with pytest.raises(ConfigError):
        SweepPlan(model=model, L_list=(1,), gamma_minus_schedule=(0.25, 0.5),
                  gamma_plus_schedule=(0.5,))
    with pytest.raises(ConfigError):
        SweepPlan(model=model, L_list=(1,), gamma_minus_schedule=(1.0,),
                  gamma_plus_schedule=(0.5,))
    with pytest.raises(ConfigError):
        SweepPlan(model=model, L_list=(1,), gamma_minus_schedule=(0.5, 0.25),
                  gamma_plus_schedule=(0.5,), order="diagonal")


def test_plan_rejects_repeated_box_sizes():
    # a plan built directly, not from a config, used to accept a repeated L
    # and repeat its keys in plan.keys()
    with pytest.raises(ConfigError, match="must not repeat a box size"):
        hopping_only_plan(L_list=(1, 0, 1))


def test_plan_key_orderings():
    plan_m = hopping_only_plan("minus_first", L_list=(1,))
    keys = plan_m.keys()
    # inner loop is the gamma_minus schedule
    assert [k[1] for k in keys[:3]] == [0.5, 0.25, 0.125]
    assert [k[2] for k in keys[:3]] == [0.5, 0.5, 0.5]
    plan_p = hopping_only_plan("plus_first", L_list=(1,))
    keys_p = plan_p.keys()
    assert [k[2] for k in keys_p[:3]] == [0.5, 0.25, 0.125]
    plan_d = hopping_only_plan("diagonal", L_list=(1,))
    assert [(k[1], k[2]) for k in plan_d.keys()] == [
        (0.5, 0.5), (0.25, 0.25), (0.125, 0.125)
    ]


# -- run_sweep -----------------------------------------------------------------


def test_sweep_trivial_couplings_reduce_to_hopping():
    plan = hopping_only_plan()
    records = run_sweep(plan)
    for L in (0, 1):
        box = LatticeBox(1, L, "periodic")
        mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1))
        expected = pressure(build_meanfield_hamiltonian(mf, box), 2.0)
        for rec in records:
            if rec.L == L:
                assert rec.pressure == pytest.approx(expected, rel=1e-13)


def test_sweep_repulsion_lowers_pressure_monotonically():
    # H + lambda H_+ with H_+ >= 0: ln Tr exp is nonincreasing in lambda
    def plan_with_weight(w):
        f_plus = GaussianMixture([(w, (1.0,))], d=1)
        model = ModelParams(beta=2.0, hopping=discrete_laplacian(1),
                            f_plus=f_plus, f_minus=None)
        return SweepPlan(model=model, L_list=(1,),
                         gamma_minus_schedule=(0.5,), gamma_plus_schedule=(0.5,))

    p_half = run_sweep(plan_with_weight(0.5))[0].pressure
    p_full = run_sweep(plan_with_weight(1.0))[0].pressure
    p_free = run_sweep(hopping_only_plan(L_list=(1,)))[0].pressure
    assert p_full <= p_half <= p_free


def test_sweep_single_site_closed_form():
    # L=0, laplacian folds to hhat(0)=0: only the x=y=0 coupling remains
    gamma = 0.5
    f_plus = PlainGaussian(1.0, d=1)
    model = ModelParams(beta=2.0, hopping=discrete_laplacian(1),
                        f_plus=f_plus, f_minus=None)
    plan = SweepPlan(model=model, L_list=(0,), gamma_minus_schedule=(gamma,),
                     gamma_plus_schedule=(gamma,))
    rec = run_sweep(plan)[0]
    u = gamma * 1.0  # gamma^d f(0)
    energies = [0.0, u, u, 4 * u]  # (n_up+n_dn)^2 coupling
    z = sum(math.exp(-2.0 * e) for e in energies)
    assert rec.pressure == pytest.approx(math.log(z) / 2.0, rel=1e-13)


def test_sweep_determinism_and_capacity_failures():
    plan = hopping_only_plan(L_list=(1,))
    r1 = run_sweep(plan)
    r2 = run_sweep(plan)
    assert [(a.pressure, a.density) for a in r1] == [(b.pressure, b.density) for b in r2]

    big = hopping_only_plan(L_list=(1, 12))  # 25 sites: far beyond the cap
    failures = []
    records = run_sweep(big, failures=failures)
    assert failures and all(L == 12 for (L, _, _), _ in failures)
    assert all(rec.L == 1 for rec in records)  # surviving records intact


def test_sweep_respects_the_plan_dimension_cap():
    plan = dataclasses.replace(hopping_only_plan(L_list=(0, 1)), dimension_cap=16)
    failures = []
    records = run_sweep(plan, failures=failures)
    assert [rec.L for rec in records] == [0] * 9  # one site: 4 states
    assert len(failures) == 9 and all(L == 1 for (L, _, _), _ in failures)
    assert all("exceeds cap 16" in msg for _, msg in failures)


def test_product_state_vacuum_and_zero_potential():
    p = PlainGaussian(1.0, d=1)
    assert product_state_energy_density(p, 0.3, 0.0) == 0.0
    assert product_state_energy_density(zero_potential(), 0.3, 0.5) == 0.0


def test_product_state_energy_converges_to_born_value_2d():
    p = PlainGaussian(1.0, d=2)
    target = p.born_zero()  # (2n)^2 = 1 at n = 1/2
    devs = [
        abs(product_state_energy_density(p, g, 0.5) - target)
        for g in (0.4, 0.2, 0.1, 0.05)
    ]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] <= devs[0] / 10.0


def test_product_state_energy_shrinking_deviation_1d():
    p = PlainGaussian(1.0, d=1)
    target = p.born_zero()
    devs = [
        abs(product_state_energy_density(p, g, 0.5) - target)
        for g in (0.4, 0.2, 0.1, 0.05)
    ]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    # the on-site moment correction dominates: deviation ~ gamma f(0)/2
    assert devs[0] == pytest.approx(0.2, rel=1e-6)


def test_product_state_validates_inputs():
    p = PlainGaussian(1.0, d=1)
    with pytest.raises(ConfigError):
        product_state_energy_density(p, 0.3, 1.5)
    with pytest.raises(ConfigError):
        product_state_energy_density(p, 1.0, 0.5)


# -- limit report -----------------------------------------------------------------------


def test_limit_report_trivial_model_distances_vanish():
    # every coupling zero: ED pressure is ln(4)/beta at all L, and both game
    # values equal the same constant; the diagonal plan's gamma_+ schedule
    # differs from its gamma_- one, so its report must find the paired records
    mf = MeanFieldParams(beta=2.0, hopping=zero_kernel())
    game = solve_game(mf, QuadratureSpec())
    diagonal = dataclasses.replace(hopping_only_plan("diagonal", hopping=zero_kernel()),
                                   gamma_plus_schedule=(0.6, 0.3, 0.15))
    for plan in (hopping_only_plan(hopping=zero_kernel()), diagonal):
        records = run_sweep(plan)
        rep = limit_report(records, game, plan)
        assert rep.order == plan.order and rep.gammas == (0.5, 0.25, 0.125)
        assert rep.pressures == pytest.approx((math.log(4.0) / 2.0,) * 3, rel=1e-14)
        assert rep.extrapolated_pressure == pytest.approx(math.log(4.0) / 2.0, abs=1e-12)
        assert abs(rep.distance_to_sharp) <= 1e-12
        assert abs(rep.distance_to_flat) <= 1e-12
        assert rep.finite_size_budget <= 1e-14
        assert rep.within_interval


def test_limit_report_requires_enough_data():
    plan = hopping_only_plan()
    records = run_sweep(plan)
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1))
    game = solve_game(mf, QuadratureSpec())
    only_one_L = [r for r in records if r.L == 1]
    with pytest.raises(InsufficientDataError):
        limit_report(only_one_L, game, plan)
    short_plan = SweepPlan(
        model=plan.model, L_list=plan.L_list,
        gamma_minus_schedule=(0.5, 0.25), gamma_plus_schedule=(0.5, 0.25),
        order="minus_first", boundary="periodic",
    )
    short_records = run_sweep(short_plan)
    with pytest.raises(InsufficientDataError):
        limit_report(short_records, game, short_plan)


def test_limit_report_attractive_only_protocol():
    # attractive-only sweep compared against the game at eta_- = fhat_-(0);
    # desk-scale finite-size error dominates, so only structure is asserted
    f_minus = PlainGaussian(1.0, d=1)
    model = ModelParams(beta=2.0, hopping=discrete_laplacian(1),
                        f_plus=None, f_minus=f_minus)
    plan = SweepPlan(model=model, L_list=(1, 2),
                     gamma_minus_schedule=(0.6, 0.4, 0.25),
                     gamma_plus_schedule=(0.5,), order="minus_first")
    records = run_sweep(plan)
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1),
                         eta_minus=f_minus.born_zero())
    game = solve_game(mf, QuadratureSpec())
    rep = limit_report(records, game, plan)
    assert rep.order == "minus_first"
    assert rep.L_max == 2
    assert len(rep.gammas) == 3
    assert rep.finite_size_budget > 0.0
    assert rep.p_flat >= rep.p_sharp - 1e-10
