"""Pair-potential families with certified lattice-sum machinery.

A pair potential here is a reflection-symmetric real function f on R^d
together with an evaluable Fourier transform

    fhat(k) = int f(x) exp(-i k.x) d^d x .

The module provides the built-in families (Yukawa-type, plain Gaussian,
Gaussian mixtures, tabulated splines), cone diagnostics (positive
definiteness of fhat and the scaling-monotone property
fhat(k/gamma) <= fhat(k) for gamma in (0,1)), numerically certified
truncations for sums over Z^d based on the integral test for monotone
radial majorants, a Poisson-summation checker, and the explicit
integral-test constant M_g bounding sum_z |gamma^d f(gamma z + a)|
uniformly in a for gamma < 1.

All potentials are immutable after construction, so one potential object
serves every record of a sweep.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (AccuracyError, ConfigError, UnsupportedPotentialError, check_numbers,
                     is_number)

__all__ = [
    "PairPotential",
    "PlainGaussian",
    "GaussianMixture",
    "Yukawa",
    "TableSpline",
    "TruncationSpec",
    "ConeReport",
    "cone_check",
    "poisson_sum",
    "series_tail_bound",
    "integral_test_constant",
    "fourier_lattice_tail",
    "kac_lattice_sum",
    "make_potential",
]


def _sphere_area(n: int) -> float:
    # surface of the unit sphere in R^n
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# ---------------------------------------------------------------------------
# monotone radial majorants, g(|x|) >= |f(x)|, with exact moments and tails
# ---------------------------------------------------------------------------


class RadialMajorant:
    """Monotone decreasing g: R+ -> R+ with closed-form moments and tails."""

    def at_zero(self) -> float:
        raise NotImplementedError

    def moment(self, k: int) -> float:
        """int_0^inf g(u) u^k du."""
        return self.tail(k + 1, 0.0)

    def tail(self, n: int, r0: float) -> float:
        """int_{r0}^inf g(u) u^{n-1} du."""
        raise NotImplementedError


class ExpMajorant(RadialMajorant):
    """g(u) = amplitude * exp(-s u^power); power 1 (exponential) or 2 (gaussian)."""

    def __init__(self, amplitude: float, s: float, power: int):
        if amplitude < 0 or s <= 0 or power not in (1, 2):
            raise ConfigError("exp majorant needs amplitude >= 0, s > 0, power 1 or 2")
        self.amplitude = amplitude
        self.s = s
        self.power = power

    def at_zero(self):
        return self.amplitude

    def tail(self, n, r0):
        # a Gamma(m, x) / (p s^m) with m = n / p and x = s r0^p; Gamma(m, x) by
        # Gamma(a + 1, x) = a Gamma(a, x) + x^a e^-x from Gamma(1/2, x) or Gamma(1, x)
        m, x = n / self.power, self.s * max(r0, 0.0) ** self.power
        a = m % 1 or 1.0
        upper = math.sqrt(math.pi) * math.erfc(math.sqrt(x)) if a == 0.5 else math.exp(-x)
        while a < m:
            upper, a = a * upper + x**a * math.exp(-x), a + 1
        return self.amplitude * upper / (self.power * self.s**m)


class CauchyMajorant(RadialMajorant):
    """g(u) = c0 / (u^2 + c1); only the zeroth moment is finite (d = 1 use)."""

    def __init__(self, c0: float, c1: float):
        self.c0 = c0
        self.c1 = c1

    def at_zero(self):
        return self.c0 / self.c1

    def tail(self, n, r0):
        if n > 1:
            raise UnsupportedPotentialError(
                "pure Yukawa Fourier majorant only supports 1-dimensional tails"
            )
        s = math.sqrt(self.c1)
        return self.c0 / s * (math.pi / 2.0 - math.atan(max(r0, 0.0) / s))


class SumMajorant(RadialMajorant):
    def __init__(self, parts):
        self.parts = list(parts)

    def at_zero(self):
        return sum(p.at_zero() for p in self.parts)

    def tail(self, n, r0):
        return sum(p.tail(n, r0) for p in self.parts)


class TableMajorant(RadialMajorant):
    """Piecewise-constant decreasing envelope of tabulated |f| samples.

    Compactly supported: zero beyond the last tabulated radius.
    """

    def __init__(self, radii, values):
        radii = np.asarray(radii, float)
        env = np.abs(np.asarray(values, float))
        if radii[0] != 0.0 or np.any(np.diff(radii) <= 0):
            raise ConfigError("table majorant needs strictly increasing radii from 0")
        # running max from the right makes the envelope monotone decreasing
        self.env = np.maximum.accumulate(env[::-1])[::-1]
        self.radii = radii

    def at_zero(self):
        return float(self.env[0])

    def tail(self, n, r0):
        r = np.clip(self.radii, max(r0, 0.0), None)
        return float(np.sum(self.env[:-1] * (r[1:] ** n - r[:-1] ** n) / n))


# ---------------------------------------------------------------------------
# integral-test bounds on lattice sums
# ---------------------------------------------------------------------------


def integral_test_constant(majorant: RadialMajorant, d: int) -> float:
    """Explicit constant M_g with sum_z |gamma^d f(gamma z + a)| <= M_g.

    Valid uniformly in the shift a and in gamma in (0,1), for any f
    dominated by the monotone radial majorant g.  Assembled from g(0) and
    the moments int g(u) u^k du, k = 0..d-1.
    """
    g0 = majorant.at_zero()
    half_sqrt_d = math.sqrt(d) / 2.0
    total = g0
    for n in range(1, d + 1):
        inner = half_sqrt_d**n * g0
        for k in range(n):
            inner += math.comb(n - 1, k) * half_sqrt_d ** (n - 1 - k) * majorant.moment(k)
        total += math.comb(d, n) * _sphere_area(n) * inner
    return total


def _lattice_tail(majorant: RadialMajorant, d: int, scale: float, radius: int,
                  prefactor: float = 1.0) -> float:
    """Certified bound on prefactor * sum_{|z|_inf > radius} g(scale*|z|).

    Cell-by-cell comparison with the radial integral, one sub-lattice of
    non-zero components at a time; every cell of a point with
    |z|_inf > radius lies in {|x| >= radius - 1}.
    """
    if radius < 2:
        return math.inf
    total = 0.0
    for n in range(1, d + 1):
        total += math.comb(d, n) * _sphere_area(n) * scale ** (-n) * majorant.tail(
            n, scale * (radius - 1)
        )
    return prefactor * total


def _truncation_radius(majorant, d, scale, tol, prefactor=1.0, shift=0.0,
                       max_radius=200_000) -> int:
    """Smallest integer R with the certified tail below tol."""
    shift = int(math.ceil(shift))

    def tail(r):
        return _lattice_tail(majorant, d, scale, r - shift, prefactor=prefactor)

    r = 2 + shift
    while tail(r) > tol:
        r *= 2
        if r > max_radius:
            raise AccuracyError(
                f"truncation radius beyond {max_radius} needed for tail <= {tol:g}",
                values={"radius": r, "tail": tail(r)},
            )
    lo, hi = (2 + shift), r
    while lo < hi:
        mid = (lo + hi) // 2
        if tail(mid) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return hi


def _tensor_grid(axis, d: int) -> np.ndarray:
    """The points of axis^d as rows (shape (len(axis)^d, d)), first coordinate slowest."""
    mesh = np.meshgrid(*[axis] * d, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _integer_box(d: int, radius: int) -> np.ndarray:
    return _tensor_grid(np.arange(-radius, radius + 1), d)


# ---------------------------------------------------------------------------
# radial Fourier transforms
# ---------------------------------------------------------------------------


def _radial_transform(g, q: float, upper: float, d: int, inverse: bool = False) -> float:
    """int_{R^d} g(|x|) exp(-i k.x) dx at |k| = q, for g vanishing beyond upper.

    inverse=True gives the inverse transform, the same integral times
    (2 pi)^-d, applied as one division by its radial constant.
    """
    from scipy import integrate, special

    if d == 1:
        if q == 0.0:
            integral = integrate.quad(g, 0, upper, limit=200)[0]
        else:
            integral = integrate.quad(g, 0, upper, weight="cos", wvar=q, limit=400)[0]
        forward, inv = 2.0, math.pi
    elif d == 2:
        integral = integrate.quad(lambda r: g(r) * special.j0(q * r) * r, 0, upper,
                                  limit=400)[0]
        forward = inv = 2.0 * math.pi
    elif d == 3:
        if q == 0.0:
            integral = integrate.quad(lambda r: g(r) * r * r, 0, upper, limit=200)[0]
            forward, inv = 4.0 * math.pi, 2.0 * math.pi**2
        else:
            integral = integrate.quad(lambda r: g(r) * r, 0, upper, weight="sin", wvar=q,
                                      limit=400)[0]
            forward, inv = 4.0 * math.pi / q, 2.0 * math.pi**2 * q
    else:
        raise UnsupportedPotentialError("radial Fourier transform implemented for d <= 3")
    return integral / inv if inverse else forward * integral


def _radial_values(x, cache: dict, fn):
    """fn(|x|) over the last axis of x, each radius rounded to 12 digits:
    fn runs once per rounded radius, at that radius, and its value is kept
    in cache, so a value depends on its key alone, not on earlier calls."""
    r = np.sqrt(np.sum(x * x, axis=-1))
    keys, inv = np.unique(np.round(np.atleast_1d(r).ravel(), 12), return_inverse=True)
    keys = keys.tolist()
    for key in keys:
        if key not in cache:
            cache[key] = fn(key)
    vals = np.array([cache[key] for key in keys])[inv]
    return vals.reshape(np.shape(r)) if np.shape(r) else float(vals[0])


# ---------------------------------------------------------------------------
# potential families
# ---------------------------------------------------------------------------


class PairPotential:
    """Base class: reflection-symmetric f on R^d with evaluable fhat."""

    family = "abstract"

    def __init__(self, d: int):
        if d < 1:
            raise ConfigError("dimension must be a positive integer")
        self.d = int(d)

    # -- evaluation ---------------------------------------------------------

    def eval(self, x) -> np.ndarray | float:
        """f(x); x has shape (..., d)."""
        x = self._check_point(x)
        return self._eval(x)

    def fourier(self, k) -> np.ndarray | float:
        """fhat(k) = int f(x) exp(-i k.x) dx; k has shape (..., d)."""
        k = self._check_point(k)
        return self._fourier(k)

    def born_zero(self) -> float:
        """fhat(0) = int f(x) dx, the mean-field coupling of the family."""
        return float(self.fourier(np.zeros(self.d)))

    def _check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape == () and self.d == 1:
            x = x.reshape(1)
        if x.shape[-1] != self.d:
            raise ConfigError(f"point has dimension {x.shape[-1]}, expected {self.d}")
        if not np.all(np.isfinite(x)):
            raise ConfigError("non-finite evaluation point")
        return x

    def _eval(self, x):
        raise NotImplementedError

    def _fourier(self, k):
        raise NotImplementedError

    # -- certified majorants -------------------------------------------------

    def radial_majorant(self) -> RadialMajorant:
        raise UnsupportedPotentialError(
            f"no real-space majorant for family {self.family!r} in d={self.d}"
        )

    def fourier_majorant(self) -> RadialMajorant:
        raise UnsupportedPotentialError(
            f"no Fourier-space majorant for family {self.family!r} in d={self.d}"
        )

    def params(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}(d={self.d}, {inner})"


class GaussianMixture(PairPotential):
    """f(x) = sum_i w_i exp(-(s_i1 x_1^2 + ... + s_id x_d^2)), w_i > 0.

    The anisotropic scales keep the family inside the scaling-monotone cone
    while allowing non-radial test cases.
    """

    family = "gaussian_mixture"

    def __init__(self, terms, d: int = 1):
        super().__init__(d)
        if not isinstance(terms, (list, tuple)) or not terms:
            raise ConfigError("mixture needs a nonempty list of [weight, scales] terms")
        parsed = []
        for term in terms:
            if not (isinstance(term, (list, tuple)) and len(term) == 2):
                raise ConfigError(f"mixture term {term!r} is not a [weight, scales] pair")
            weight, scales = term
            scales = list(scales) if isinstance(scales, (list, tuple, np.ndarray)) else [scales]
            if len(scales) != d:
                raise ConfigError(f"term needs {d} scales, got {len(scales)}")
            if not all(is_number(x) and x > 0 for x in [weight, *scales]):
                raise ConfigError("mixture weights and scales must be positive numbers")
            parsed.append((float(weight), tuple(float(s) for s in scales)))
        self.terms = parsed

    def _eval(self, x):
        out = 0.0
        for w, scales in self.terms:
            out = out + w * np.exp(-np.sum(np.asarray(scales) * x * x, axis=-1))
        return out

    def _amplitudes(self):
        # fhat(0) of each term: w prod_j sqrt(pi / s_j)
        return [float(w * np.prod(np.sqrt(math.pi / np.asarray(s)))) for w, s in self.terms]

    def _fourier(self, k):
        out = 0.0
        for amp, (_, scales) in zip(self._amplitudes(), self.terms):
            out = out + amp * np.exp(-np.sum(k * k / (4.0 * np.asarray(scales)), axis=-1))
        return out

    def radial_majorant(self):
        # exp(-sum s_j x_j^2) <= exp(-min_j(s_j) |x|^2)
        return SumMajorant(ExpMajorant(w, min(scales), 2) for w, scales in self.terms)

    def fourier_majorant(self):
        return SumMajorant(ExpMajorant(amp, 1.0 / (4.0 * max(scales)), 2)
                           for amp, (_, scales) in zip(self._amplitudes(), self.terms))

    def params(self):
        return {"terms": self.terms}


class PlainGaussian(GaussianMixture):
    """f(x) = exp(-|x|^2 / width^2): the one-term isotropic mixture."""

    family = "plain_gaussian"

    def __init__(self, width: float = 1.0, d: int = 1):
        check_numbers(width=width)
        if width <= 0:
            raise ConfigError("gaussian width must be positive")
        self.width = float(width)
        super().__init__([(1.0, (1.0 / self.width**2,) * d)], d)

    def params(self):
        return {"width": self.width}


class Yukawa(PairPotential):
    """Yukawa-type potential defined through its Fourier transform,

        fhat(k) = c0 exp(-c2 |k|^2) / (|k|^2 + c1),

    positive definite and scaling monotone for all parameter choices.
    c2 = 0 is the bare Yukawa case (kept for d = 1, where the real-space
    profile has the closed form (c0 / 2 sqrt(c1)) exp(-sqrt(c1) |x|));
    c2 > 0 regularizes short distances.
    """

    family = "yukawa"

    def __init__(self, c0: float, c1: float, c2: float = 0.0, d: int = 1):
        super().__init__(d)
        check_numbers(c0=c0, c1=c1, c2=c2)
        if c0 <= 0 or c1 <= 0 or c2 < 0:
            raise ConfigError("yukawa needs c0 > 0, c1 > 0, c2 >= 0")
        if c2 == 0.0 and d != 1:
            raise ConfigError(
                "bare yukawa (c2=0) is only evaluable in real space for d=1; "
                "use c2 > 0 for d >= 2"
            )
        if c2 > 0.0 and d > 3:
            raise ConfigError("yukawa real-space quadrature implemented for d <= 3")
        self.c0, self.c1, self.c2 = float(c0), float(c1), float(c2)
        self._radial_cache: dict[float, float] = {}

    def _fourier(self, k):
        return self._fhat_radial(np.sqrt(np.sum(k * k, axis=-1)))

    def _fhat_radial(self, q):
        return self.c0 * np.exp(-self.c2 * q * q) / (q * q + self.c1)

    def _eval(self, x):
        if self.c2 == 0.0:  # d = 1 closed form
            s = math.sqrt(self.c1)
            return self.c0 / (2.0 * s) * np.exp(-s * np.sqrt(np.sum(x * x, axis=-1)))
        # inverse transform; fhat is below c0/c1 * 1e-20 beyond kmax
        kmax = math.sqrt(max(math.log(self.c0 / (self.c1 * 1e-20)), 1.0) / self.c2)
        return _radial_values(x, self._radial_cache, lambda r: _radial_transform(
            self._fhat_radial, r, kmax, self.d, inverse=True))

    def radial_majorant(self):
        if self.d != 1:
            raise UnsupportedPotentialError(
                "certified yukawa real-space majorant available for d=1 only"
            )
        # f = (gaussian of variance 2*c2) * (bare yukawa); |x-z| >= |x|-|z|
        # gives A exp(-sqrt(c1)|x|) with A = (c0/2 sqrt(c1)) E[exp(sqrt(c1)|Z|)],
        # and E[exp(sqrt(c1)|Z|)] = 2 exp(c1 c2) Phi(sqrt(2 c1 c2)) = exp(c1 c2) erfc(-sqrt(c1 c2))
        s = math.sqrt(self.c1)
        mgf = math.exp(self.c1 * self.c2) * math.erfc(-math.sqrt(self.c1 * self.c2))
        return ExpMajorant(self.c0 / (2.0 * s) * mgf, s, 1)

    def fourier_majorant(self):
        if self.c2 > 0.0:
            return ExpMajorant(self.c0 / self.c1, self.c2, 2)
        return CauchyMajorant(self.c0, self.c1)  # c2 = 0 only in d = 1

    def params(self):
        return {"c0": self.c0, "c1": self.c1, "c2": self.c2}


class TableSpline(PairPotential):
    """Radial cubic-spline potential from samples (radii, values).

    Zero extrapolation beyond the last tabulated radius.  Cone membership
    cannot be certified from samples; cone_check on this family is a
    sampled diagnostic only.
    """

    family = "table_spline"

    def __init__(self, radii, values, d: int = 1):
        super().__init__(d)
        if not all(map(is_number, [*radii, *values])):
            raise ConfigError("table radii and values must be numbers")
        radii = np.asarray(radii, float)
        values = np.asarray(values, float)
        if radii.ndim != 1 or radii.shape != values.shape or len(radii) < 4:
            raise ConfigError("table spline needs matching 1-d arrays, >= 4 samples")
        if radii[0] != 0.0 or np.any(np.diff(radii) <= 0):
            raise ConfigError("table radii must increase strictly from 0")
        self.radii = radii
        self.values = values
        from scipy.interpolate import CubicSpline

        self._spline = CubicSpline(radii, values, extrapolate=False)
        self._fourier_cache: dict[float, float] = {}

    @property
    def table_radius(self) -> float:
        return float(self.radii[-1])

    def _eval(self, x):
        return self._radial_eval(np.sqrt(np.sum(x * x, axis=-1)))

    def _radial_eval(self, r):
        r = np.asarray(r, float)
        out = self._spline(np.clip(r, 0.0, self.table_radius))
        return np.where(r > self.table_radius, 0.0, out)

    def _fourier(self, k):
        return _radial_values(k, self._fourier_cache, lambda q: _radial_transform(
            self._radial_eval, q, self.table_radius, self.d))

    def radial_majorant(self):
        return TableMajorant(self.radii, self.values)

    def fourier_majorant(self):
        if not np.any(self.values):
            return ExpMajorant(0.0, 1.0, 2)  # zero function, zero transform
        raise UnsupportedPotentialError(
            "no certified Fourier majorant for sampled potentials"
        )

    def params(self):
        return {"radii": self.radii.tolist(), "values": self.values.tolist()}


_FAMILIES = {
    "plain_gaussian": PlainGaussian,
    "gaussian_mixture": GaussianMixture,
    "yukawa": Yukawa,
    "table_spline": TableSpline,
}


def make_potential(family: str, d: int, **params) -> PairPotential:
    """Factory used by the config layer; family names as in _FAMILIES."""
    try:
        cls = _FAMILIES[family]
    except KeyError:
        raise ConfigError(
            f"unknown potential family {family!r}; known: {sorted(_FAMILIES)}"
        ) from None
    return cls(d=d, **params)


# ---------------------------------------------------------------------------
# cone diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeReport:
    positive_definite: bool
    scaling_monotone: bool
    min_fourier_value: float
    monotonicity_violation: float
    grid_spec: tuple

    def as_dict(self):
        return asdict(self)


_SCALING_GAMMAS = (0.5, 0.25, 0.1)
_CONE_TOL = 1e-9  # slack of both cone tests on the sampled fhat
_CONE_RADIUS = 20.0  # the sampled k satisfy |k_j| <= _CONE_RADIUS
_CONE_POINTS = 101  # sampled points per axis


def cone_check(p: PairPotential) -> ConeReport:
    """Sampled membership test for the positive-definite / scaling-monotone cones.

    Samples fhat on one fixed tensor grid, 101 points per axis on
    [-20, 20]^d, reports the minimum value, and checks fhat >= -_CONE_TOL
    and fhat(k/gamma) <= fhat(k) + _CONE_TOL for gamma in {0.5, 0.25, 0.1}.
    """
    K = _tensor_grid(np.linspace(-_CONE_RADIUS, _CONE_RADIUS, _CONE_POINTS), p.d)
    base = np.asarray(p.fourier(K), float)
    min_val = float(base.min())
    violation = 0.0
    for gamma in _SCALING_GAMMAS:
        scaled = np.asarray(p.fourier(K / gamma), float)
        violation = max(violation, float(np.max(scaled - base)))
    violation = max(violation, 0.0)
    return ConeReport(
        positive_definite=bool(min_val >= -_CONE_TOL),
        scaling_monotone=bool(violation <= _CONE_TOL),
        min_fourier_value=min_val,
        monotonicity_violation=violation,
        grid_spec=(_CONE_RADIUS, _CONE_POINTS),
    )


# ---------------------------------------------------------------------------
# certified lattice sums and Poisson summation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationSpec:
    tol: float = 1e-12
    max_radius: int = 200_000


def _real_lattice_sum(p: PairPotential, gamma: float, shift, trunc: TruncationSpec):
    """sum_z gamma^d f(gamma (z + shift)) with certified truncation."""
    g = p.radial_majorant()
    shift = np.asarray(shift, float)
    shift_norm = float(np.linalg.norm(shift))
    radius = _truncation_radius(
        g, p.d, gamma, trunc.tol, prefactor=gamma**p.d, shift=shift_norm,
        max_radius=trunc.max_radius,
    )
    Z = _integer_box(p.d, radius)
    vals = np.asarray(p.eval(gamma * (Z + shift)), float)
    return gamma**p.d * math.fsum(vals)  # compensated: noise stays at one ulp


def kac_lattice_sum(p: PairPotential, gamma: float,
                    trunc: TruncationSpec | None = None) -> float:
    """S(gamma) = sum_{z in Z^d} gamma^d f(gamma z), certified truncation.

    For scaling-monotone f this is nondecreasing in gamma and tends to
    fhat(0) as gamma -> 0+ (Poisson summation term by term).
    """
    if not (0 < gamma):
        raise ConfigError("gamma must be positive")
    trunc = trunc or TruncationSpec()
    return _real_lattice_sum(p, gamma, np.zeros(p.d), trunc)


def poisson_sum(p: PairPotential, gamma: float, a,
                truncation: TruncationSpec | None = None) -> tuple[float, float]:
    """Both sides of the Poisson summation identity, independently truncated.

    lhs = sum_z gamma^d f(gamma a + gamma z)
    rhs = Re sum_z fhat(2 pi z / gamma) exp(2 pi i z.a)

    Each series is truncated with its own certified tail below the spec
    tolerance; the pair is returned for comparison.
    """
    if gamma <= 0:
        raise ConfigError("gamma must be positive")
    trunc = truncation or TruncationSpec()
    a = np.atleast_1d(np.asarray(a, float))
    if a.shape != (p.d,):
        raise ConfigError(f"shift a must have dimension {p.d}")

    lhs = _real_lattice_sum(p, gamma, a, trunc)

    ghat = p.fourier_majorant()
    scale = 2.0 * math.pi / gamma
    radius = _truncation_radius(ghat, p.d, scale, trunc.tol, max_radius=trunc.max_radius)
    Z = _integer_box(p.d, radius)
    vals = np.asarray(p.fourier(scale * Z), float)
    phases = np.cos(2.0 * math.pi * (Z @ a))
    rhs = math.fsum(vals * phases)
    return lhs, rhs


def series_tail_bound(p: PairPotential, gamma: float) -> float:
    """The constant M_g bounding sum_z |gamma^d f(gamma z + a)| for gamma < 1.

    Uses the closed-form monotone radial majorant of the family; raises
    UnsupportedPotentialError when none is known.
    """
    if not (0 < gamma < 1):
        raise ConfigError("the uniform bound M_g requires gamma in (0,1)")
    return integral_test_constant(p.radial_majorant(), p.d)


def fourier_lattice_tail(p: PairPotential, gamma: float,
                         trunc: TruncationSpec | None = None) -> float:
    """sum_{k in Z^d \\ {0}} |fhat(k / gamma)| with certified truncation.

    The decay of this quantity as gamma -> 0 (generically O(gamma^2)) is
    what makes lattice sums converge to the Born value.
    """
    if not (0 < gamma < 1):
        raise ConfigError("gamma must lie in (0,1)")
    trunc = trunc or TruncationSpec()
    ghat = p.fourier_majorant()
    radius = _truncation_radius(ghat, p.d, 1.0 / gamma, trunc.tol,
                                max_radius=trunc.max_radius)
    Z = _integer_box(p.d, radius)
    Z = Z[np.any(Z != 0, axis=1)]
    vals = np.abs(np.asarray(p.fourier(Z / gamma), float))
    return float(np.sum(vals))
