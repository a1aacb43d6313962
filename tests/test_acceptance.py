"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines, or through `pytest -v` (prints are captured but shown on failure).
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from kaclab.fock import (
    FockBasis,
    FockOperator,
    build_approximating_hamiltonian,
    build_kac_hamiltonian,
    car_max_violation,
    pressure,
)
from kaclab.game import (
    GamePoint,
    OptimizerSpec,
    gap_residual,
    payoff_gradient_fd,
    solve_game,
    solve_gap_fixed_point,
)
from kaclab.lattice import (
    LatticeBox,
    MeanFieldParams,
    ModelParams,
    discrete_laplacian,
)
from kaclab.potentials import (
    PlainGaussian,
    GaussianMixture,
    TableSpline,
    Yukawa,
    fourier_lattice_tail,
    kac_lattice_sum,
    poisson_sum,
    series_tail_bound,
)
from kaclab.quasifree import QuadratureSpec, finite_grid_pressure, per_k_log_trace
from kaclab.sweep import SweepPlan, limit_report, product_state_energy_density, run_sweep
from kaclab.store import ResultStore

QUAD = QuadratureSpec()
OPT = OptimizerSpec()


def report(number, elapsed, limit, detail):
    line = f"ACCEPTANCE {number:2d} PASS ({elapsed:6.1f} s / limit {limit:.0f} s): {detail}"
    print(line)
    assert elapsed < limit, f"criterion {number} exceeded its runtime budget"


def test_criterion_01_car_algebra():
    t0 = time.perf_counter()
    violation = car_max_violation(FockBasis(2))
    assert violation <= 1e-14
    report(1, time.perf_counter() - t0, 1.0,
           f"2-site CAR max violation {violation:.1e} <= 1e-14")


def test_criterion_02_two_mode_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(1000):
        eps = rng.uniform(-10.0, 10.0)
        gap = rng.uniform(0.0, 5.0) * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
        beta = rng.uniform(0.1, 20.0)
        closed = per_k_log_trace(eps, gap, beta)
        h4 = np.zeros((4, 4), dtype=complex)
        h4[1, 1] = h4[2, 2] = eps
        h4[3, 3] = 2.0 * eps
        h4[3, 0] = -np.conj(gap)
        h4[0, 3] = -gap
        oracle = float(logsumexp(-beta * np.linalg.eigvalsh(h4)))
        worst = max(worst, abs(closed - oracle))
    assert worst <= 1e-12
    report(2, time.perf_counter() - t0, 1.0,
           f"1000 random (eps, gap, beta): closed form vs 4-state trace, "
           f"max diff {worst:.2e} <= 1e-12")


def test_criterion_03_ed_momentum_duality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5150)
    worst = 0.0
    for _ in range(20):
        mf = MeanFieldParams(
            beta=rng.uniform(0.2, 5.0),
            hopping=discrete_laplacian(1),
            eta_plus=rng.uniform(0.0, 2.0),
            eta_minus=rng.uniform(0.0, 2.0),
        )
        cm = rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
        cp = rng.uniform(0.0, 2.0)
        for L in (0, 1):
            op = build_approximating_hamiltonian(mf, cm, cp, LatticeBox(1, L, "periodic"))
            diff = abs(pressure(op, mf.beta) - finite_grid_pressure(mf, cm, cp, L))
            worst = max(worst, diff)
    assert worst <= 1e-10
    report(3, time.perf_counter() - t0, 30.0,
           f"20 random models, L in (0,1): |ED - momentum sum| max {worst:.2e} <= 1e-10")


def test_criterion_04_game_inequalities():
    t0 = time.perf_counter()
    lap = discrete_laplacian(1)
    etas = np.linspace(0.0, 2.0, 5)
    min_gap = math.inf
    worst_axis = 0.0
    for beta in (0.5, 2.0, 8.0):
        for em in etas:
            for ep in etas:
                mf = MeanFieldParams(beta=beta, hopping=lap,
                                     eta_plus=float(ep), eta_minus=float(em))
                res = solve_game(mf, QUAD, OPT)
                min_gap = min(min_gap, res.saddle_gap)
                if em == 0.0 or ep == 0.0:
                    worst_axis = max(worst_axis, abs(res.saddle_gap))
    assert min_gap >= -1e-8
    assert worst_axis <= 1e-8
    report(4, time.perf_counter() - t0, 600.0,
           f"5x5 eta grid, beta in (0.5, 2, 8): min(Pb - P#) = {min_gap:.2e} >= -1e-8, "
           f"axis |P# - Pb| max {worst_axis:.2e} <= 1e-8")


def test_criterion_05_gap_stationarity_equivalence():
    t0 = time.perf_counter()
    lap = discrete_laplacian(1)
    worst_residual = 0.0
    worst_gradient = 0.0
    n_converged = 0
    for beta in (0.5, 2.0, 8.0):
        for em in (0.0, 1.0, 2.0):
            for ep in (0.0, 1.0, 2.0):
                mf = MeanFieldParams(beta=beta, hopping=lap, eta_plus=ep, eta_minus=em)
                res = solve_game(mf, QUAD, OPT)
                for g in (res.argmin_sharp, res.argmax_flat, *(p for p, _ in res.other_minima)):
                    worst_residual = max(worst_residual, gap_residual(mf, g, QUAD))
                sol = solve_gap_fixed_point(mf, QUAD)
                if sol.converged:
                    n_converged += 1
                    grad = payoff_gradient_fd(
                        mf, GamePoint(sol.c_minus, sol.c_plus), QUAD
                    )
                    worst_gradient = max(worst_gradient, math.hypot(*grad))
    assert worst_residual <= 1e-7
    assert worst_gradient <= 1e-6
    assert n_converged == 27
    report(5, time.perf_counter() - t0, 120.0,
           f"27 models: optimizer gap residual max {worst_residual:.2e} <= 1e-7; "
           f"{n_converged} of 27 gap solves converged, "
           f"payoff gradient max {worst_gradient:.2e} <= 1e-6")


def test_criterion_06_poisson_summation():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (1, 2):
        p = PlainGaussian(1.0, d=d)
        for gamma in (1.0, 0.5, 0.25):
            for shift in (np.zeros(d), np.eye(d)[0]):
                lhs, rhs = poisson_sum(p, gamma, shift)
                worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10
    report(6, time.perf_counter() - t0, 1.0,
           f"gaussian, d in (1,2), gamma in (1, .5, .25), a in (0, e1): "
           f"|lhs - rhs| max {worst:.2e} <= 1e-10")


def test_criterion_07_appendix_bounds():
    t0 = time.perf_counter()
    # direct lattice sums against the integral-test constant
    gauss = PlainGaussian(1.0, d=1)
    y = Yukawa(1.0, 1.0, 1.0, d=1)
    r = np.linspace(0.0, 40.0, 500)
    y_table = TableSpline(r, np.asarray(y.eval(r[:, None])), d=1)
    z = np.arange(-3000, 3001, dtype=float)[:, None]
    margin = math.inf
    for p in (gauss, y_table):
        for gamma in (0.9, 0.5, 0.1):
            bound = series_tail_bound(p, gamma)
            for a in (0.0, 1.0):
                direct = gamma * float(np.sum(np.abs(np.asarray(p.eval(gamma * z + a)))))
                assert direct <= bound
                margin = min(margin, bound - direct)
    # gamma^2 decay rate of the Fourier lattice sums
    ratios = [fourier_lattice_tail(y, g) / g**2 for g in (0.4, 0.2, 0.1)]
    assert all(rat <= ratios[0] + 1e-12 for rat in ratios)
    report(7, time.perf_counter() - t0, 5.0,
           f"direct sums below M_g (min margin {margin:.2e}); "
           f"yukawa tail/gamma^2 bounded by {ratios[0]:.2e}")


def test_criterion_08_energy_density_kac_limit():
    t0 = time.perf_counter()
    p = PlainGaussian(1.0, d=2)
    target = p.born_zero()  # times (2n)^2 = 1 at half filling per spin
    gammas = (0.4, 0.2, 0.1, 0.05)
    devs = [abs(product_state_energy_density(p, g, 0.5) - target) for g in gammas]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] <= devs[0] / 10.0
    report(8, time.perf_counter() - t0, 5.0,
           f"product-state energy vs fhat(0)(2n)^2: deviations "
           f"{', '.join(f'{d:.2e}' for d in devs)} strictly shrinking; "
           f"final/first = {devs[-1] / devs[0]:.3f} <= 1/10")


def test_criterion_09_scaling_monotone_lattice_sum():
    t0 = time.perf_counter()
    y = Yukawa(1.0, 1.0, 1.0, d=1)
    gammas = np.linspace(0.09, 0.9, 10)
    vals = [kac_lattice_sum(y, g) for g in gammas]
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-9)  # nondecreasing up to summation noise
    report(9, time.perf_counter() - t0, 2.0,
           f"S(gamma) on 10-point grid in (0, 0.9]: min increment {diffs.min():.2e} "
           f">= -1e-9 (values pinned at fhat(0) = {vals[-1]:.12f})")


def test_criterion_10_sandwich_report(tmp_path):
    t0 = time.perf_counter()
    beta = 2.0
    lam = 0.2
    f_plus = GaussianMixture([(lam, (1.0,))], d=1)
    f_minus = Yukawa(lam, 1.0, 1.0, d=1)
    hop = discrete_laplacian(1)
    model = ModelParams(beta=beta, hopping=hop, f_plus=f_plus, f_minus=f_minus)
    sched = (0.5, 0.35, 0.25)
    mf = MeanFieldParams(beta=beta, hopping=hop,
                         eta_plus=f_plus.born_zero(), eta_minus=f_minus.born_zero())
    game = solve_game(mf, QUAD, OPT)

    def pipeline(store):
        reports = {}
        for order in ("minus_first", "plus_first"):
            plan = SweepPlan(model=model, L_list=(1, 2, 3),
                             gamma_minus_schedule=sched, gamma_plus_schedule=sched,
                             order=order)
            records = run_sweep(plan, store=store, config_hash="acceptance10")
            reports[order] = limit_report(records, game, plan)
        return reports

    first = pipeline(ResultStore(str(tmp_path / "run1")))
    second = pipeline(ResultStore(str(tmp_path / "run2")))  # full recompute

    for order in ("minus_first", "plus_first"):
        rep = first[order]
        assert rep.within_interval, (
            f"{order}: extrapolated {rep.extrapolated_pressure} outside "
            f"[{rep.p_sharp - rep.finite_size_budget}, "
            f"{rep.p_flat + rep.finite_size_budget}]"
        )
        assert first[order].as_dict() == second[order].as_dict()  # bitwise

    rep = first["minus_first"]
    report(10, time.perf_counter() - t0, 1800.0,
           f"L in (1,2,3), both protocols: extrapolated pressures inside "
           f"[P# - dfs, Pb + dfs] (budget {rep.finite_size_budget:.2e}, "
           f"dist to P# {rep.distance_to_sharp:+.2e}); reports deterministic")


def test_criterion_11_convexity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31337)
    basis = FockBasis(2)
    sectors = basis.sectors("parity")
    beta = 1.3

    def random_op():
        blocks = {}
        for key, idx in sectors.items():
            m = rng.normal(size=(len(idx), len(idx)))
            blocks[key] = (m + m.T) / 2.0
        return FockOperator(basis, "parity", blocks)

    worst = math.inf
    for _ in range(10):
        h0, h1 = random_op(), random_op()
        vals = [
            beta * basis.n_sites * pressure(FockOperator(
                basis, "parity", {k: B + lam * h1.blocks[k] for k, B in h0.blocks.items()},
                h0.mult), beta)
            for lam in np.linspace(-1.0, 1.0, 5)
        ]
        worst = min(worst, float(np.min(np.diff(vals, 2))))
    assert worst >= -1e-9
    report(11, time.perf_counter() - t0, 60.0,
           f"10 random operator pairs: min second difference of ln Tr exp(-bH) "
           f"= {worst:.2e} >= -1e-9")
