"""Cubic boxes, hopping kernels, dispersions, and Kac coupling matrices.

The finite box is Lambda_L = {-L..L}^d with |Lambda_L| = (2L+1)^d sites in
a fixed lexicographic order.  Hopping kernels are finitely supported
reflection-symmetric maps Z^d -> R; the dispersion is their cosine
transform.  Kac coupling matrices carry gamma^d f(gamma (x-y)) over site
pairs, with either the literal open-box displacement or the minimum-image
displacement only (no image sum; ROADMAP item 1) under periodic boundary.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import CapacityError, ConfigError, is_integer, is_number
from .potentials import PairPotential

__all__ = [
    "LatticeBox",
    "HoppingKernel",
    "ModelParams",
    "MeanFieldParams",
    "discrete_laplacian",
    "dispersion",
    "kac_coupling_matrix",
    "hopping_matrix",
    "check_fock_dimension",
]

OPEN, PERIODIC = "open", "periodic"
DEFAULT_DIMENSION_CAP = 65536  # Fock dimension 4^8, i.e. at most 8 sites
_BOUNDARIES = (OPEN, PERIODIC)


def check_fock_dimension(n_sites: int, dimension_cap: int) -> int:
    """The Fock dimension 4^n_sites of n_sites sites with two spins;
    CapacityError if it exceeds the cap."""
    if n_sites < 1:
        raise ConfigError("need at least one site")
    dim = 4**n_sites
    if dim > dimension_cap:
        raise CapacityError(f"Fock dimension 4^{n_sites} = {dim} exceeds cap {dimension_cap}")
    return dim


class LatticeBox:
    """Cubic box {-L..L}^d with deterministic lexicographic site order."""

    def __init__(self, d: int, L: int, boundary: str = PERIODIC):
        if d < 1 or L < 0:
            raise ConfigError("need d >= 1 and L >= 0")
        if boundary not in _BOUNDARIES:
            raise ConfigError(f"boundary must be one of {_BOUNDARIES}")
        self.d = int(d)
        self.L = int(L)
        self.boundary = boundary
        axes = [np.arange(-L, L + 1)] * d
        mesh = np.meshgrid(*axes, indexing="ij")
        self.sites = np.stack([m.ravel() for m in mesh], axis=-1)  # (n_sites, d)
        self.n_sites = self.sites.shape[0]
        self.extent = 2 * L + 1

    def displacement(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x - y, wrapped to the minimum image under periodic boundary."""
        delta = np.asarray(x) - np.asarray(y)
        if self.boundary == PERIODIC:
            delta = (delta + self.L) % self.extent - self.L
        return delta

    def displacement_table(self) -> np.ndarray:
        """(n_sites, n_sites, d) table of displacements between all pairs."""
        return self.displacement(self.sites[:, None, :], self.sites[None, :, :])

    def wrap_index(self, coords: np.ndarray) -> np.ndarray:
        """Site index of coordinates wrapped into the box (periodic only)."""
        wrapped = (np.asarray(coords) + self.L) % self.extent - self.L
        idx = np.zeros(wrapped.shape[:-1], dtype=int)
        for j in range(self.d):
            idx = idx * self.extent + (wrapped[..., j] + self.L)
        return idx

    def __repr__(self):
        return f"LatticeBox(d={self.d}, L={self.L}, boundary={self.boundary!r})"


class HoppingKernel:
    """Finitely supported reflection-symmetric h: Z^d -> R.

    ``entries`` maps offset tuples to values, or lists (offset, value)
    pairs; h(-z) = h(z) is enforced at construction (missing mirrors are
    filled in; repeated or mirrored offsets with other values are
    rejected).

    A kernel is a value: kernels with equal d and equal nonzero entries are
    equal and hash alike, however they were written, and ``entries`` is a
    read-only mapping, so a kernel cannot change under a cache key.
    """

    def __init__(self, entries, d: int):
        if d < 1:
            raise ConfigError("need d >= 1")
        self.d = int(d)
        table: dict[tuple, float] = {}
        for pair in entries.items() if isinstance(entries, dict) else entries:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ConfigError(f"hopping entry {pair!r} is not an [offset, value] pair")
            offset, value = pair
            coords = np.atleast_1d(np.asarray(offset, dtype=object)).tolist()
            if not all(is_integer(c) for c in coords):
                raise ConfigError(f"hopping offset {offset!r} must hold integers")
            z = tuple(int(c) for c in coords)
            if len(z) != d:
                raise ConfigError(f"hopping offset {z} has wrong dimension (d={d})")
            if not is_number(value):
                raise ConfigError(f"hopping value {value!r} at offset {z} must be a number")
            value = float(value)
            mirror = tuple(-c for c in z)
            for key in (z,) if z == mirror else (z, mirror):
                if key in table and table[key] != value:
                    raise ConfigError("hopping kernel not reflection-symmetric")
                table[key] = value
        self.entries = MappingProxyType({z: v for z, v in sorted(table.items()) if v != 0.0})
        self._key = (self.d, tuple(self.entries.items()))

    def __eq__(self, other):
        if not isinstance(other, HoppingKernel):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def offsets_values(self):
        """The offsets, shape (n, d), and their values, shape (n,)."""
        zs = np.array(list(self.entries), dtype=int).reshape(-1, self.d)
        return zs, np.array(list(self.entries.values()), dtype=float)

    def __repr__(self):
        return f"HoppingKernel(d={self.d}, entries={dict(self.entries)})"


def discrete_laplacian(d: int) -> HoppingKernel:
    """h(0) = 2d, h(z) = -1 for |z| = 1, zero otherwise."""
    entries = {tuple([0] * d): 2.0 * d}
    for j in range(d):
        for s in (+1, -1):
            z = [0] * d
            z[j] = s
            entries[tuple(z)] = -1.0
    return HoppingKernel(entries, d)


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the short-range Kac model (kinetic + BCS + repulsion)."""

    beta: float
    hopping: HoppingKernel
    f_plus: PairPotential | None
    f_minus: PairPotential | None
    gamma_plus: float = 0.5
    gamma_minus: float = 0.5
    include_onsite_correction: bool = False

    def __post_init__(self):
        if self.beta <= 0:
            raise ConfigError("beta must be positive")
        for name, g in (("gamma_plus", self.gamma_plus), ("gamma_minus", self.gamma_minus)):
            if not (0.0 < g < 1.0):
                raise ConfigError(f"{name} must lie in the open interval (0,1)")
        for name, p in (("f_plus", self.f_plus), ("f_minus", self.f_minus)):
            if p is not None and p.d != self.hopping.d:
                raise ConfigError(f"{name} dimension differs from hopping kernel")


@dataclass(frozen=True)
class MeanFieldParams:
    """Parameters of the mean-field model and its quadratic approximants."""

    beta: float
    hopping: HoppingKernel
    eta_plus: float = 0.0
    eta_minus: float = 0.0

    def __post_init__(self):
        if self.beta <= 0:
            raise ConfigError("beta must be positive")
        if self.eta_plus < 0 or self.eta_minus < 0:
            raise ConfigError("mean-field couplings eta must be nonnegative")

    def approximating_fields(self, c_minus: complex, c_plus: complex) -> tuple[float, complex]:
        """(shift, gap) = (2 sqrt(eta_+) Re c_+, sqrt(eta_-) c_-).

        The quadratic approximant at strategies (c_-, c_+) has the
        one-body term hhat(k) + shift per mode and the pairing field gap.
        Arrays of strategies give arrays of fields.
        """
        shift = 2.0 * math.sqrt(self.eta_plus) * np.real(c_plus)
        return shift, math.sqrt(self.eta_minus) * (c_minus + 0j)


def dispersion(h: HoppingKernel, k) -> np.ndarray | float:
    """hhat(k) = sum_z h(z) cos(k.z); real by reflection symmetry.

    k has shape (..., d).
    """
    k = np.asarray(k, float)
    if k.shape == () and h.d == 1:
        k = k.reshape(1)
    if k.shape[-1] != h.d:
        raise ConfigError(f"momentum has dimension {k.shape[-1]}, expected {h.d}")
    zs, vs = h.offsets_values()
    phases = np.cos(np.tensordot(k, zs.T, axes=1))  # (..., n_offsets)
    out = phases @ vs
    return out if out.shape else float(out)


def hopping_matrix(h: HoppingKernel, box: LatticeBox) -> np.ndarray:
    """Site matrix t[x][y] = sum of h(z) over the offsets z with
    box.displacement(x, y) = box.displacement(z, 0).

    Open boundary: t[x][y] = h(x-y) literally.  Periodic boundary: z's
    image on the torus, so the kernel is folded (full image sum), which
    makes the matrix circulant with eigenvalues hhat(k) on the discrete
    momentum grid; this is what makes finite-grid momentum sums and
    real-space diagonalization agree exactly, also for boxes shorter than
    the hopping range.
    """
    t = np.zeros((box.n_sites, box.n_sites))
    delta = box.displacement_table()  # (n, n, d)
    for z, v in zip(*h.offsets_values()):
        t += v * np.all(delta == box.displacement(z, 0), axis=-1)
    return t


def kac_coupling_matrix(p: PairPotential | None, gamma: float,
                        box: LatticeBox) -> np.ndarray:
    """V[x][y] = gamma^d f(gamma * delta(x,y)) over all site pairs.

    delta is the literal open-box displacement, or the minimum-image
    displacement under periodic boundary.  This is minimum image only, not
    a full image sum, and the missing images are not negligible: at L=2,
    beta=2, gamma=0.25, P_kac - P_mf(L=2) is +1.7e-2 with minimum image
    against -1.7e-4 with the full image sum (ROADMAP item 1).
    """
    n = box.n_sites
    if p is None:
        return np.zeros((n, n))
    if not (0.0 < gamma < 1.0):
        raise ConfigError("gamma must lie in the open interval (0,1)")
    if p.d != box.d:
        raise ConfigError("potential dimension differs from box dimension")
    delta = box.displacement_table().astype(float)
    V = gamma**box.d * np.asarray(p.eval(gamma * delta), float)
    return 0.5 * (V + V.T)  # exact symmetry at rounding level
