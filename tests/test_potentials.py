"""Pair-potential families: closed forms, certified sums, cone diagnostics."""

import math

import numpy as np
import pytest
from scipy import integrate

from kaclab.errors import AccuracyError, ConfigError, UnsupportedPotentialError
from kaclab.potentials import (
    CauchyMajorant,
    GaussianMixture,
    PlainGaussian,
    TableSpline,
    TruncationSpec,
    Yukawa,
    cone_check,
    fourier_lattice_tail,
    integral_test_constant,
    kac_lattice_sum,
    make_potential,
    poisson_sum,
    series_tail_bound,
)


def zero_potential(d=1):
    r = np.linspace(0.0, 5.0, 16)
    return TableSpline(r, np.zeros_like(r), d=d)


def displaced_pair_table(b=4.0, d=1):
    # real-space profile whose transform is cos(b k) exp(-k^2): sign-changing
    r = np.linspace(0.0, 16.0, 600)
    vals = (np.exp(-((r - b) ** 2) / 4) + np.exp(-((r + b) ** 2) / 4)) / (4 * math.sqrt(math.pi))
    return TableSpline(r, vals, d=d)


def fourier_by_quadrature(p, k):
    """Independent radial Fourier oracle for d = 1 potentials."""
    val, _ = integrate.quad(lambda r: p.eval([r]) * math.cos(k * r), 0, 60, limit=400)
    return 2.0 * val


# -- eval -------------------------------------------------------------------


def test_plain_gaussian_at_origin():
    assert PlainGaussian(width=1.0, d=1).eval([0.0]) == 1.0


def test_reflection_symmetry_exact():
    rng = np.random.default_rng(42)
    pots = [
        PlainGaussian(1.3, d=2),
        GaussianMixture([(0.5, (1.0, 2.0)), (1.5, (0.7, 0.9))], d=2),
        Yukawa(1.0, 1.0, 1.0, d=2),
    ]
    X = rng.normal(size=(1000, 2)) * 3.0
    for p in pots:
        assert np.all(np.asarray(p.eval(X)) == np.asarray(p.eval(-X)))


def test_yukawa_eval_matches_inverse_fourier_quadrature():
    y = Yukawa(1.0, 1.0, 1.0, d=1)
    oracle, _ = integrate.quad(lambda k: np.exp(-k * k) / (k * k + 1), 0, 40, limit=200)
    oracle /= math.pi
    assert y.eval([0.0]) == pytest.approx(oracle, abs=1e-10)
    # also at a nonzero radius
    r = 1.7
    oracle_r, _ = integrate.quad(
        lambda k: np.exp(-k * k) / (k * k + 1) * np.cos(k * r), 0, 40, limit=200
    )
    oracle_r /= math.pi
    assert y.eval([r]) == pytest.approx(oracle_r, abs=1e-10)


def test_eval_rejects_nonfinite_input():
    with pytest.raises(ConfigError):
        PlainGaussian(1.0, d=1).eval([np.nan])


# -- fourier / born ----------------------------------------------------------


def test_yukawa_fourier_closed_form():
    y = Yukawa(2.0, 4.0, 0.0, d=1)
    assert y.fourier([0.0]) == 0.5
    assert y.born_zero() == 0.5


def test_gaussian_fourier_values():
    p = PlainGaussian(1.0, d=1)
    assert p.fourier([0.0]) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert p.fourier([2.0]) == pytest.approx(math.sqrt(math.pi) * math.exp(-1.0), rel=1e-14)


def test_fourier_consistency_with_quadrature():
    pots = [
        PlainGaussian(0.8, d=1),
        GaussianMixture([(1.0, (0.5,)), (0.25, (2.0,))], d=1),
        Yukawa(1.0, 2.0, 0.5, d=1),
    ]
    for p in pots:
        for k in np.linspace(0.0, 6.0, 13):
            assert p.fourier([k]) == pytest.approx(fourier_by_quadrature(p, k), abs=1e-8)


def test_born_zero_mixture_product_formula():
    w, scales = 1.7, (0.9, 2.5)
    p = GaussianMixture([(w, scales)], d=2)
    expected = w * math.sqrt(math.pi / scales[0]) * math.sqrt(math.pi / scales[1])
    assert p.born_zero() == pytest.approx(expected, rel=1e-14)
    # quadrature cross-check of the plane integral
    val, _ = integrate.dblquad(
        lambda y, x: p.eval([x, y]), -10, 10, -10, 10, epsabs=1e-12
    )
    assert p.born_zero() == pytest.approx(val, abs=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_radial_transform_oracles(d):
    # forward transform: a tabulated exp(-r^2) against pi^(d/2) exp(-q^2/4)
    q = np.array([0.0, 0.4, 1.1, 2.5, 4.0])
    K = np.zeros((len(q), d))
    K[:, 0] = q
    r = np.linspace(0.0, 8.0, 400)
    gauss = TableSpline(r, np.exp(-r * r), d=d)
    assert np.max(np.abs(gauss.fourier(K) - math.pi ** (d / 2) * np.exp(-q * q / 4))) <= 1e-7
    # inverse then forward: the real-space yukawa, tabulated, transforms back
    y = Yukawa(1.0, 1.0, 0.5, d=d)
    r = np.linspace(0.0, 20.0, 400)
    X = np.zeros((len(r), d))
    X[:, 0] = r
    back = TableSpline(r, y.eval(X), d=d)
    assert np.max(np.abs(back.fourier(K) - y.fourier(K))) <= 1e-6


def test_born_zero_of_zero_potential():
    assert zero_potential().born_zero() == pytest.approx(0.0, abs=1e-15)


def test_table_spline_zero_extrapolation():
    p = displaced_pair_table()
    assert p.eval([100.0]) == 0.0


# -- cone checks --------------------------------------------------------------


def test_yukawa_in_both_cones():
    rep = cone_check(Yukawa(1.0, 1.0, 1.0, d=1))
    assert rep.positive_definite and rep.scaling_monotone
    assert rep.min_fourier_value >= 0.0
    assert rep.monotonicity_violation == 0.0


def test_sign_changing_transform_detected():
    rep = cone_check(displaced_pair_table())
    assert not rep.positive_definite
    assert rep.min_fourier_value < -0.1


def test_zero_potential_cone():
    rep = cone_check(zero_potential())
    assert rep.positive_definite and rep.scaling_monotone
    assert rep.min_fourier_value == pytest.approx(0.0, abs=1e-12)


def test_gaussian_not_scaling_monotone_when_widened():
    # fhat of a narrow gaussian grows with |k| rescaling? No: gaussians are
    # monotone; a mixture with a hole is not either. Use the displaced pair,
    # whose transform oscillates, to exercise the violation report.
    rep = cone_check(displaced_pair_table())
    assert rep.monotonicity_violation > 0.0
    assert not rep.scaling_monotone


# -- Poisson summation ---------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("gamma", [1.0, 0.5, 0.25])
@pytest.mark.parametrize("shift", ["zero", "e1"])
def test_poisson_identity_gaussian(d, gamma, shift):
    p = PlainGaussian(1.0, d=d)
    a = np.zeros(d) if shift == "zero" else np.eye(d)[0]
    lhs, rhs = poisson_sum(p, gamma, a)
    assert abs(lhs - rhs) <= 1e-10


def test_poisson_zero_potential():
    lhs, rhs = poisson_sum(zero_potential(), 0.5, [0.0])
    assert lhs == 0.0 and rhs == 0.0


def test_poisson_gaussian_series_value():
    # direct oracle: both series evaluated independently with brute tails
    p = PlainGaussian(1.0, d=1)
    lhs, rhs = poisson_sum(p, 1.0, [0.0])
    z = np.arange(-40, 41)
    direct = float(np.sum(np.exp(-(z.astype(float) ** 2))))
    assert lhs == pytest.approx(direct, abs=1e-12)
    assert rhs == pytest.approx(direct, abs=1e-12)


def test_poisson_bare_yukawa_uses_the_cauchy_majorant():
    # c2 = 0: the transform c0/(q^2 + c1) decays like a power, and its
    # certified tail is that of the Cauchy majorant
    y = Yukawa(1.0, 1.0)
    assert isinstance(y.fourier_majorant(), CauchyMajorant)
    lhs, rhs = poisson_sum(y, 1e-3, [0.3])
    assert abs(lhs - rhs) <= 2e-12  # the two certified tails of 1e-12
    with pytest.raises(AccuracyError):  # the tail needs a radius beyond max_radius
        poisson_sum(y, 0.5, [0.3])


def test_yukawa_values_do_not_depend_on_call_history():
    # the two radii share one 12-digit cache key; each value is that of the key
    fresh = Yukawa(1.0, 1.0, 0.5).eval(1.2345678901234)
    y = Yukawa(1.0, 1.0, 0.5)
    y.eval(1.2345678901231)
    assert y.eval(1.2345678901234) == fresh


def test_poisson_real_offset():
    # the identity holds for non-integer shifts too, where phases matter
    p = PlainGaussian(1.0, d=1)
    lhs, rhs = poisson_sum(p, 0.5, [0.3])
    assert abs(lhs - rhs) <= 1e-10


# -- integral-test bounds -------------------------------------------------------


def test_tail_bound_zero_potential():
    assert series_tail_bound(zero_potential(), 0.5) == 0.0


@pytest.mark.parametrize("gamma", [0.9, 0.5, 0.1])
def test_tail_bound_dominates_direct_sum_gaussian(gamma):
    p = PlainGaussian(1.0, d=1)
    bound = series_tail_bound(p, gamma)
    z = np.arange(-2000, 2001, dtype=float)
    for a in (0.0, 1.0, 3.0):  # integer shifts, outside the gamma scaling
        direct = gamma * float(np.sum(np.abs(np.exp(-((gamma * z + a) ** 2)))))
        assert direct <= bound


def test_tail_bound_dominates_direct_sum_yukawa_table(tmp_path):
    # tabulated real-space majorant route: sample the yukawa profile
    y = Yukawa(1.0, 1.0, 1.0, d=1)
    r = np.linspace(0.0, 40.0, 500)
    table = TableSpline(r, np.asarray(y.eval(r[:, None])), d=1)
    bound = series_tail_bound(table, 0.5)
    z = np.arange(-300, 301, dtype=float)
    direct = 0.5 * float(np.sum(np.abs(np.asarray(table.eval(0.5 * z[:, None])))))
    assert direct <= bound
    # the closed-form exponential majorant of the family itself also works
    bound_exact = series_tail_bound(y, 0.5)
    direct_y = 0.5 * float(np.sum(np.abs(np.asarray(y.eval(0.5 * z[:, None])))))
    assert direct_y <= bound_exact


def test_integral_test_constant_additive():
    g1 = PlainGaussian(1.0, d=1).radial_majorant()
    m1 = integral_test_constant(g1, 1)
    # doubling the amplitude doubles the constant (homogeneity in g)
    g2 = PlainGaussian(1.0, d=1).radial_majorant()
    g2.parts[0].amplitude *= 2.0
    assert integral_test_constant(g2, 1) == pytest.approx(2 * m1, rel=1e-14)


def test_series_tail_bound_requires_gamma_below_one():
    with pytest.raises(ConfigError):
        series_tail_bound(PlainGaussian(1.0, d=1), 1.5)


def test_unsupported_majorant_family():
    with pytest.raises(UnsupportedPotentialError):
        Yukawa(1.0, 1.0, 1.0, d=2).radial_majorant()


# -- Fourier lattice tails ---------------------------------------------------------


def test_fourier_tail_zero_potential():
    assert fourier_lattice_tail(zero_potential(), 0.5) == 0.0


def test_fourier_tail_gaussian_decays_faster_than_generic_rate():
    p = PlainGaussian(1.0, d=1)
    v04 = fourier_lattice_tail(p, 0.4)
    v02 = fourier_lattice_tail(p, 0.2)
    # generic rate would give ratio 1/4; the gaussian beats it by far
    assert v02 / v04 < 1.0 / 40.0


def test_fourier_tail_yukawa_gamma_square_rate():
    y = Yukawa(1.0, 1.0, 1.0, d=1)
    ratios = [fourier_lattice_tail(y, g) / g**2 for g in (0.4, 0.2, 0.1)]
    assert all(r <= ratios[0] + 1e-12 for r in ratios)  # bounded ratio sequence


# -- lattice-sum invariants -----------------------------------------------------------


def test_scaling_monotone_lattice_sum_nondecreasing():
    y = Yukawa(1.0, 1.0, 1.0, d=1)
    gammas = np.linspace(0.09, 0.9, 10)
    vals = [kac_lattice_sum(y, g) for g in gammas]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_born_limit_of_lattice_sum():
    p = PlainGaussian(1.0, d=1)
    target = p.born_zero()
    # resolvable regime: the Poisson correction is 2 fhat(2 pi / gamma)
    dev_08 = abs(kac_lattice_sum(p, 0.8) - target)
    dev_055 = abs(kac_lattice_sum(p, 0.55) - target)
    assert dev_055 < dev_08
    # below gamma ~ 0.5 the true correction is under 1e-14; with a tight
    # truncation budget the compensated sums land exactly on fhat(0)
    tight = TruncationSpec(tol=1e-18)
    dev_01 = abs(kac_lattice_sum(p, 0.1, tight) - target)
    dev_005 = abs(kac_lattice_sum(p, 0.05, tight) - target)
    assert dev_005 <= dev_01


# -- misc ------------------------------------------------------------------------------


def test_make_potential_factory_and_unknown_family():
    p = make_potential("yukawa", d=1, c0=1.0, c1=2.0)
    assert p.family == "yukawa"
    with pytest.raises(ConfigError):
        make_potential("lennard_jones", d=1)


def test_bare_yukawa_rejected_above_one_dimension():
    with pytest.raises(ConfigError):
        Yukawa(1.0, 1.0, 0.0, d=2)


def test_truncation_failure_raises_accuracy_error():
    y = Yukawa(1.0, 1e-6, 0.0, d=1)  # extremely long-ranged profile
    with pytest.raises(AccuracyError):
        kac_lattice_sum(y, 0.5, TruncationSpec(tol=1e-12, max_radius=64))
