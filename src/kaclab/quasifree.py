"""Thermodynamic-limit pressure of the quadratic approximating Hamiltonian.

The approximating Hamiltonian is quadratic in creation/annihilation
operators, so under periodic boundary it decouples into independent
two-mode problems, one per momentum k, pairing the modes (k, up) and
(-k, down):

    H_k = eps~(k) (n_1 + n_2) - (conj(g) a1^dag a2^dag + g a2 a1),

with eps~(k) = hhat(k) + 2 sqrt(eta_+) Re c_+ and g = sqrt(eta_-) c_-.
The four-state trace gives

    ln Tr exp(-beta H_k) = -beta eps~ + beta E + 2 log1p(exp(-beta E)),
    E = sqrt(eps~^2 + |g|^2),

a closed form that is validated against the brute-force 4-dimensional
Fock trace (the authoritative contract) rather than trusted.
`per_k_log_trace` evaluates it elementwise; it is the one kernel that
every zone pressure runs and that the contract checks.  The
infinite-volume pressure is the Brillouin-zone average of this quantity
divided by beta.  The integrand is smooth and periodic in k, so the zone
rule is the tensor midpoint rule, which converges geometrically for such
integrands (Trefethen and Weideman, SIAM Rev. 56, 385 (2014)).  With
2L+1 points per axis its nodes are the momenta of the periodic box of
linear size 2L+1, so the finite-grid pressure, exactly the finite-volume
pressure of the approximating Hamiltonian with periodic hopping, is the
same rule.  Pressures, finite grids and expectations are sums over one
cached table of hhat at the nodes per (hopping kernel value, points per
axis).  Kernels are values, so the table is built once per process and
shared by every model, game, box and CLI call with an equal kernel.

Strategies broadcast: arrays of c_- and c_+ are lanes, evaluated together
as lanes x nodes by the same kernel that evaluates one strategy.  A
`ZoneTally` passed in counts the kernel's work for its caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, ConfigError, check_numbers, is_integer
from .lattice import HoppingKernel, MeanFieldParams, dispersion

__all__ = [
    "QuadratureSpec",
    "ZoneTally",
    "per_k_log_trace",
    "quasifree_pressure",
    "finite_grid_pressure",
    "bz_gibbs_expectations",
]


def _tanh_over_e(energy, beta):
    """tanh(beta E / 2) / E with the E -> 0 limit beta/2, for an array E >= 0;
    the series replaces the quotient only where beta E / 2 < 1e-6."""
    x = 0.5 * beta * energy
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.tanh(x) / energy
    small = x < 1e-6
    if small.any():
        x = x[small]
        out[small] = 0.5 * beta * (1.0 - x * x / 3.0)
    return out


def per_k_log_trace(eps, gap, beta):
    """ln Tr exp(-beta H_k) for the two-mode (k up, -k down) problem;
    elementwise over broadcast arrays, overflow-safe, gap real or complex.

    Contract: equals the brute-force 4-dimensional Fock trace of
    eps~ (n1+n2) - (conj(g) a1^dag a2^dag + g a2 a1) to 1e-12.
    """
    if np.any(np.asarray(beta) <= 0):
        raise ConfigError("beta must be positive")
    energy = np.hypot(eps, np.abs(gap))
    return -beta * eps + beta * energy + 2.0 * np.log1p(np.exp(-beta * energy))


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor midpoint rule over the Brillouin zone [-pi, pi)^d."""

    points_per_axis: int | None = None  # None: 64 for d=1, 48 for d=2, 24 above
    tol: float = 1e-8

    def __post_init__(self):
        if self.points_per_axis is not None and not (
                is_integer(self.points_per_axis) and self.points_per_axis >= 2):
            raise ConfigError("points_per_axis must be an integer >= 2")
        check_numbers(tol=self.tol)
        if self.tol <= 0:
            raise ConfigError("tol must be positive")

    def resolve_points(self, d: int) -> int:
        if self.points_per_axis is not None:
            return self.points_per_axis
        return {1: 64, 2: 48}.get(d, 24)


@lru_cache(maxsize=64)
def _bz_table(h: HoppingKernel, n: int):
    """hhat (M,) at the M = n^d midpoint nodes of [-pi, pi)^d and their
    weights (M,), all 1/M, cached per (kernel, n).

    The nodes are pi (2j + 1 - n) / n, j = 0..n-1, per axis; for n = 2L+1
    they are exactly the box momenta 2 pi m / (2L+1), m = -L..L.  Kernels
    key the cache by value (d and entries), so equal kernels parsed by
    separate calls share one table; their entries are read-only, so a
    kernel cannot change under its key.
    """
    x = math.pi * (2.0 * np.arange(n) + 1.0 - n) / n
    d = h.d
    K = np.stack(np.meshgrid(*([x] * d), indexing="ij"), axis=-1).reshape(-1, d)
    hhat = np.asarray(dispersion(h, K), float)
    W = np.full(hhat.size, 1.0 / hhat.size)  # lanes @ W: the fastest mean over the nodes
    hhat.setflags(write=False)
    W.setflags(write=False)
    return hhat, W


@dataclass
class ZoneTally:
    """Work of the zone kernel on behalf of one caller, e.g. one game."""

    kernel_calls: int = 0  # quadratures over the zone, of any number of lanes
    pressure_lanes: int = 0  # strategies whose pressure was computed
    refinement_margin: float = 0.0  # largest |fine - base| of the refinement checks


def _plain(x):
    """A 0-d result as a Python number; lanes stay an array."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def _zone(mf, c_minus, c_plus, n, tally=None):
    """eps~ at the zone nodes (c_+ lanes..., nodes), the pairing-field
    moduli |g| (c_- lanes..., 1) and the node weights; the lanes broadcast
    together.  The fields are those of `MeanFieldParams.approximating_fields`,
    with the real modulus |g| = sqrt(eta_-) |c_-| in place of g: the kernels
    depend on the pairing field through |g| alone."""
    hhat, W = _bz_table(mf.hopping, n)
    shift = 2.0 * math.sqrt(mf.eta_plus) * np.real(c_plus)
    modulus = math.sqrt(mf.eta_minus) * np.abs(c_minus)
    if tally is not None:
        tally.kernel_calls += 1
    return hhat + np.asarray(shift)[..., None], np.asarray(modulus)[..., None], W


def _pressure_at(mf, c_minus, c_plus, n, tally=None):
    eps, modulus, W = _zone(mf, c_minus, c_plus, n, tally)
    return (per_k_log_trace(eps, modulus, mf.beta) @ W) / mf.beta


def quasifree_pressure(mf: MeanFieldParams, c_minus, c_plus,
                       quad: QuadratureSpec | None = None, tally: ZoneTally | None = None):
    """(1/beta) (2 pi)^{-d} integral of ln Tr exp(-beta H_k) over the zone.

    A number for one strategy, an array for lanes of strategies.  The
    quadrature is repeated at doubled resolution; a difference above
    quad.tol in any lane raises AccuracyError carrying that lane's two
    values.  The refined value is returned.
    """
    quad = quad or QuadratureSpec()
    n = quad.resolve_points(mf.hopping.d)
    base = _pressure_at(mf, c_minus, c_plus, n, tally)
    if tally is not None:
        tally.pressure_lanes += base.size
    fine = _pressure_at(mf, c_minus, c_plus, 2 * n, tally)
    diff = np.abs(fine - base)
    if tally is not None and diff.size:
        tally.refinement_margin = max(tally.refinement_margin, float(diff.max()))
    failed = diff > quad.tol
    if failed.any():
        lane = np.argmax(failed)  # the first failing lane
        base, fine = base.flat[lane].item(), fine.flat[lane].item()
        raise AccuracyError(
            f"quadrature not converged: |{fine:.15g} - {base:.15g}| > {quad.tol:g}",
            values={"base": base, "refined": fine},
        )
    return _plain(fine)


def finite_grid_pressure(mf: MeanFieldParams, c_minus: complex, c_plus: complex,
                         L: int) -> float:
    """Discrete-momentum pressure on k in (2 pi/(2L+1)) {-L..L}^d.

    Exactly the finite-volume pressure of the approximating Hamiltonian
    with periodic (torus-folded) hopping on the box of linear size 2L+1;
    it is the zone rule at 2L+1 points per axis.
    """
    if L < 0:
        raise ConfigError("L must be nonnegative")
    return _plain(_pressure_at(mf, c_minus, c_plus, 2 * L + 1))


def bz_gibbs_expectations(mf: MeanFieldParams, c_minus, c_plus,
                          quad: QuadratureSpec | None = None,
                          tally: ZoneTally | None = None):
    """Zone-averaged Gibbs expectations of the approximating model.

    Returns (pair, density) with
      pair    = (2 pi)^{-d} int <a^dag_{k up} a^dag_{-k down}> dk
              = g (2 pi)^{-d} int tanh(beta E/2) / (2 E) dk,
      density = (2 pi)^{-d} int (1 - eps~ tanh(beta E/2)/E) dk,
    the right-hand sides of the self-consistency (gap) equations up to the
    sqrt(eta) normalization applied by the caller; numbers for one
    strategy, arrays for lanes.  The pair is real for real c_-.
    """
    quad = quad or QuadratureSpec()
    n = quad.resolve_points(mf.hopping.d)
    eps, modulus, W = _zone(mf, c_minus, c_plus, n, tally)
    t = _tanh_over_e(np.hypot(eps, modulus), mf.beta)
    gap = math.sqrt(mf.eta_minus) * np.asarray(c_minus)  # g, with the phase of c_-
    return _plain(gap * ((0.5 * t) @ W)), _plain((1.0 - eps * t) @ W)
