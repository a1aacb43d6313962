"""The per-momentum two-mode closed form and Brillouin-zone quadrature."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from kaclab import game, quasifree
from kaclab.errors import AccuracyError, ConfigError
from kaclab.fock import build_approximating_hamiltonian, pressure
from kaclab.game import OptimizerSpec, solve_game
from kaclab.lattice import (
    HoppingKernel,
    LatticeBox,
    MeanFieldParams,
    discrete_laplacian,
    dispersion,
)
from kaclab.quasifree import (
    QuadratureSpec,
    bz_gibbs_expectations,
    finite_grid_pressure,
    per_k_log_trace,
    quasifree_pressure,
)


def two_mode_trace_oracle(eps, gap, beta):
    """Brute-force 4-dimensional Fock trace of the two-mode problem.

    Basis {|00>, |10>, |01>, |11>}; the pairing couples |00> and |11> with
    a1^dag a2^dag |00> = |11> in this ordering.
    """
    h = np.zeros((4, 4), dtype=complex)
    h[1, 1] = h[2, 2] = eps
    h[3, 3] = 2.0 * eps
    h[3, 0] = -np.conj(gap)
    h[0, 3] = -gap
    ev = np.linalg.eigvalsh(h)
    return float(logsumexp(-beta * ev))


def zero_kernel(d=1):
    return HoppingKernel({tuple([0] * d): 0.0}, d)


# -- per-k closed form -----------------------------------------------------------


def test_per_k_trivial_values():
    assert per_k_log_trace(0.0, 0.0, 1.0) == pytest.approx(math.log(4.0), rel=1e-15)
    val = per_k_log_trace(1.0, 0.0, 1.0)
    assert val == pytest.approx(2.0 * math.log(1.0 + math.exp(-1.0)), rel=1e-13)


def test_per_k_with_gap_matches_closed_form_and_oracle():
    beta, eps, gap = 1.0, 1.0, 1.0
    e = math.sqrt(2.0)
    expected = -beta * eps + 2.0 * math.log(2.0 * math.cosh(beta * e / 2.0))
    assert per_k_log_trace(eps, gap, beta) == pytest.approx(expected, rel=1e-14)
    assert per_k_log_trace(eps, gap, beta) == pytest.approx(
        two_mode_trace_oracle(eps, gap, beta), abs=1e-13
    )


def test_approximating_fields_values():
    # shift 2 sqrt(eta_+) c_+ = 2 * 2 * 0.25, gap sqrt(eta_-) c_- = 3 * 0.5
    mf = MeanFieldParams(beta=1.0, hopping=discrete_laplacian(1),
                         eta_plus=4.0, eta_minus=9.0)
    assert mf.approximating_fields(0.5, 0.25) == (1.0, 1.5)


# -- zone quadrature -----------------------------------------------------------------


def test_quasifree_pressure_flat_band():
    mf = MeanFieldParams(beta=2.5, hopping=zero_kernel())
    val = quasifree_pressure(mf, 0.0, 0.0, QuadratureSpec())
    assert val == pytest.approx(2.0 * math.log(2.0) / 2.5, rel=1e-13)


def test_quasifree_pressure_independent_of_c_minus_when_eta_minus_zero():
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1), eta_plus=1.0)
    quad = QuadratureSpec()
    vals = [quasifree_pressure(mf, cm, 0.3, quad) for cm in (0.0, 0.4, 0.9)]
    assert max(vals) - min(vals) == 0.0


def test_quasifree_pressure_gauge_and_monotonicity():
    mf = MeanFieldParams(beta=4.0, hopping=discrete_laplacian(1),
                         eta_plus=0.5, eta_minus=1.5)
    quad = QuadratureSpec()
    base = quasifree_pressure(mf, 0.3, 0.2, quad)
    rotated = quasifree_pressure(mf, 0.3 * np.exp(0.9j), 0.2, quad)
    assert rotated == pytest.approx(base, abs=1e-14)
    # nondecreasing in |c_minus|
    vals = [quasifree_pressure(mf, cm, 0.2, quad) for cm in (0.0, 0.2, 0.5, 0.9)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_integrand_even_in_k():
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=1.0)
    shift, gap = mf.approximating_fields(0.3, 0.2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = rng.uniform(-math.pi, math.pi, size=1)
        e1, e2 = (dispersion(mf.hopping, q) + shift for q in (k, -k))
        assert per_k_log_trace(e1, gap, mf.beta) == per_k_log_trace(e2, gap, mf.beta)


def test_refinement_check_raises_on_coarse_midpoint():
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1), eta_minus=1.0)
    quad = QuadratureSpec(points_per_axis=3, tol=1e-15)
    with pytest.raises(AccuracyError) as exc:
        quasifree_pressure(mf, 0.5, 0.0, quad)
    assert "base" in exc.value.values and "refined" in exc.value.values


@pytest.mark.parametrize("d", [1, 2])
def test_batched_lanes_equal_scalar_calls(d):
    mf = MeanFieldParams(beta=3.0, hopping=discrete_laplacian(d), eta_plus=0.7, eta_minus=1.3)
    rng = np.random.default_rng(5)
    c_minus, c_plus = rng.uniform(0.0, 1.0, 17), rng.uniform(0.0, 2.0, 17)
    quad = QuadratureSpec()
    pressures = quasifree_pressure(mf, c_minus, c_plus, quad)
    pairs, densities = bz_gibbs_expectations(mf, c_minus, c_plus, quad)
    row = quasifree_pressure(mf, c_minus, 0.4, quad)  # one c_+ broadcast over the c_- lanes
    assert pressures.shape == pairs.shape == densities.shape == row.shape == (17,)
    for j in range(17):
        pair, density = bz_gibbs_expectations(mf, c_minus[j], c_plus[j], quad)
        assert abs(pressures[j] - quasifree_pressure(mf, c_minus[j], c_plus[j], quad)) <= 1e-15
        assert abs(pairs[j] - pair) <= 1e-15 and abs(densities[j] - density) <= 1e-15
        assert abs(row[j] - quasifree_pressure(mf, c_minus[j], 0.4, quad)) <= 1e-15


def test_refinement_failure_carries_the_failing_lane():
    mf = MeanFieldParams(beta=4.0, hopping=discrete_laplacian(1), eta_minus=1.0)
    quad = QuadratureSpec(points_per_axis=16)
    assert np.isfinite(quasifree_pressure(mf, 2.0, 0.0, quad))  # a wide gap converges
    with pytest.raises(AccuracyError) as lone:
        quasifree_pressure(mf, 1.0, 0.0, quad)
    with pytest.raises(AccuracyError) as batched:
        quasifree_pressure(mf, np.array([2.0, 1.0, 0.0]), 0.0, quad)
    # the first failing lane, c_- = 1, with the same two values as its own call
    for key in ("base", "refined"):
        assert abs(batched.value.values[key] - lone.value.values[key]) <= 1e-15


def test_tally_counts_kernel_calls_lanes_and_the_refinement_margin():
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1), eta_plus=0.5, eta_minus=1.0)
    tally = quasifree.ZoneTally()
    quad = QuadratureSpec()
    quasifree_pressure(mf, np.linspace(0.0, 1.0, 5), 0.3, quad, tally)
    quasifree_pressure(mf, 0.2, 0.3, quad, tally)
    bz_gibbs_expectations(mf, 0.2, 0.3, quad, tally)
    assert (tally.kernel_calls, tally.pressure_lanes) == (5, 6)  # two resolutions per pressure
    n = quad.resolve_points(1)
    margin = max(abs(quasifree._pressure_at(mf, x, 0.3, 2 * n)
                     - quasifree._pressure_at(mf, x, 0.3, n))
                 for x in (0.0, 0.25, 0.5, 0.75, 1.0, 0.2))
    assert 0.0 < tally.refinement_margin == pytest.approx(margin, abs=1e-16)
    assert tally.refinement_margin <= quad.tol


def test_default_equals_a_512_point_solve():
    mf = MeanFieldParams(beta=1.5, hopping=discrete_laplacian(1),
                         eta_plus=0.7, eta_minus=0.9)
    default = quasifree_pressure(mf, 0.4, 0.1, QuadratureSpec())
    fine = quasifree_pressure(mf, 0.4, 0.1, QuadratureSpec(points_per_axis=512))
    assert fine == pytest.approx(default, abs=1e-10)


# -- the shared zone table ------------------------------------------------------------


def test_one_game_computes_each_zone_table_once(monkeypatch):
    shapes = []

    def counting(h, k):
        shapes.append(np.shape(k))
        return dispersion(h, k)

    monkeypatch.setattr(quasifree, "dispersion", counting)
    quasifree._bz_table.cache_clear()
    game._sharp_search.cache_clear()  # and no solved game to read back
    game._solved_game.cache_clear()
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1),
                         eta_plus=0.5, eta_minus=1.5)
    solve_game(mf, QuadratureSpec(), OptimizerSpec(grid_points=9))
    # the base resolution (also read by the gap expectations) and its refinement
    assert sorted(shapes) == [(64, 1), (128, 1)]


def test_kernels_of_one_dimension_never_share_a_table():
    kernels = [discrete_laplacian(1), HoppingKernel({(0,): 1.0, (2,): -0.5}, 1)]

    def results(order):
        out = {}
        for i in order:
            mf = MeanFieldParams(beta=2.0, hopping=kernels[i], eta_plus=0.5, eta_minus=1.0)
            out[i] = (quasifree_pressure(mf, 0.3, 0.2), bz_gibbs_expectations(mf, 0.3, 0.2),
                      finite_grid_pressure(mf, 0.3, 0.2, 2))
        return out

    warm = results([0, 1])
    quasifree._bz_table.cache_clear()
    cold = results([1, 0])
    assert warm == cold
    assert warm[0] != warm[1]


# -- finite-grid / ED duality -----------------------------------------------------------


def test_finite_grid_single_k_equals_one_site_ed():
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=1.0)
    op = build_approximating_hamiltonian(mf, 0.37, 0.21, LatticeBox(1, 0, "periodic"))
    assert finite_grid_pressure(mf, 0.37, 0.21, 0) == pytest.approx(
        pressure(op, mf.beta), abs=1e-14
    )


@pytest.mark.parametrize("d,L", [(1, 0), (1, 1), (2, 0)])
def test_finite_grid_matches_ed_random_parameters(d, L):
    rng = np.random.default_rng(100 + 10 * d + L)
    for _ in range(20):
        mf = MeanFieldParams(
            beta=rng.uniform(0.2, 5.0),
            hopping=discrete_laplacian(d),
            eta_plus=rng.uniform(0.0, 2.0),
            eta_minus=rng.uniform(0.0, 2.0),
        )
        cm = rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        cp = rng.uniform(0.0, 2.0)
        op = build_approximating_hamiltonian(mf, cm, cp, LatticeBox(d, L, "periodic"))
        p_ed = pressure(op, mf.beta)
        p_grid = finite_grid_pressure(mf, cm, cp, L)
        assert abs(p_ed - p_grid) <= 1e-10


def test_finite_grid_approaches_quadrature():
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=1.0)
    target = quasifree_pressure(mf, 0.3, 0.0, QuadratureSpec())
    deviations = [abs(finite_grid_pressure(mf, 0.3, 0.0, L) - target) for L in (5, 20, 100)]
    assert deviations[2] < deviations[0]
    assert deviations[2] <= 1e-6


def test_discrete_laplacian_quasifree_cross_check_with_finite_grid():
    # the spec example: d=1 laplacian, eta=1, c-=0.3, beta=2: discrete-k
    # averages converge to the quadrature value as L grows
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=1.0)
    quad_val = quasifree_pressure(mf, 0.3, 0.0, QuadratureSpec())
    fine = finite_grid_pressure(mf, 0.3, 0.0, 400)
    assert quad_val == pytest.approx(fine, abs=1e-8)


# -- zone expectations -------------------------------------------------------------------


def test_bz_expectations_against_one_site_trace():
    # flat band: the zone average reduces to the single two-mode problem
    beta, g = 2.0, 0.3
    mf = MeanFieldParams(beta=beta, hopping=zero_kernel(), eta_minus=1.0)
    pair, density = bz_gibbs_expectations(mf, g, 0.0, QuadratureSpec())
    z = 2.0 * math.cosh(beta * g) + 2.0
    pair_oracle = math.sinh(beta * g) / z
    density_oracle = 1.0  # particle-hole symmetric at eps~ = 0
    assert pair.real == pytest.approx(pair_oracle, abs=1e-13)
    assert density == pytest.approx(density_oracle, abs=1e-13)


def test_pair_is_real_for_real_c_minus_and_turns_with_a_complex_one():
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1), eta_plus=0.5, eta_minus=1.5)
    pair, density = bz_gibbs_expectations(mf, 0.3, 0.2, QuadratureSpec())
    assert isinstance(pair, float)
    turned, same = bz_gibbs_expectations(mf, 0.3 * np.exp(0.9j), 0.2, QuadratureSpec())
    assert abs(turned - pair * np.exp(0.9j)) <= 1e-15 and abs(same - density) <= 1e-15


def test_tanh_over_e_takes_its_limit_at_zero_energy(recwarn):
    beta = 2.0
    got = quasifree._tanh_over_e(np.array([0.0, 1e-9, 0.5, 40.0]), beta)
    assert got[0] == 1.0 and abs(got[1] - 1.0) <= 1e-15
    assert got[2:].tolist() == pytest.approx([math.tanh(0.5) / 0.5, 1.0 / 40.0], rel=1e-15)
    assert not recwarn.list  # no division warning at E = 0


def test_invalid_inputs():
    mf = MeanFieldParams(beta=1.0, hopping=zero_kernel())
    with pytest.raises(ConfigError):
        per_k_log_trace(0.0, 0.0, -1.0)
    with pytest.raises(ConfigError):
        per_k_log_trace(0.0, 0.0, np.array([1.0, 0.0]))
    with pytest.raises(ConfigError):
        finite_grid_pressure(mf, 0.0, 0.0, -1)
    with pytest.raises(ConfigError):
        QuadratureSpec(points_per_axis=1)
