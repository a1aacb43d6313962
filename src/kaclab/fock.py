"""Exact diagonalization on the fermionic Fock space of a finite box.

Spins {up, down}; modes are ordered with the full spin-up block first and
the spin-down block second, and Jordan-Wigner strings run over this fixed
mode order, so all creation/annihilation matrices satisfy the canonical
anticommutation relations exactly.  Occupation bitstrings index the basis;
bit m of the state integer is the occupancy of mode m.

Every operator, from a single a_m to the full Hamiltonians, is built by
one kernel, ``_apply``, which maps all basis states at once through a
product of ladder operators with bit arithmetic; a term list of such
products becomes one COO matrix.

Operators that conserve particle number are blocked by (N, 2*S_z); pairing
operators only conserve fermion parity and are blocked by parity.  Blocks
are filled in one pass from a per-state (sector, position) map, and any
nonzero element between two sectors is an error.  Every assembled
Hamiltonian is kept as dense per-sector Hermitian matrices and
diagonalized block by block (full spectra are needed for the traces).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import logsumexp

from .errors import CapacityError, ConfigError, KaclabError
from .lattice import LatticeBox, MeanFieldParams, ModelParams, hopping_matrix, kac_coupling_matrix

__all__ = [
    "FockBasis",
    "FockOperator",
    "GibbsObservables",
    "build_kac_hamiltonian",
    "build_meanfield_hamiltonian",
    "build_approximating_hamiltonian",
    "pressure",
    "gibbs_observables",
    "car_max_violation",
    "DEFAULT_DIMENSION_CAP",
]

DEFAULT_DIMENSION_CAP = 65536  # 4^8, i.e. at most 8 sites

NUMBER, PARITY = "number", "parity"

UP, DOWN = 0, 1


class FockBasis:
    """Occupation basis of the 4^{n_sites} Fock space of a box.

    ``box`` may also be a bare integer site count, for oracle tests on
    chains that are not cubic boxes (e.g. the 2-site CAR checks).
    """

    def __init__(self, box, dimension_cap: int = DEFAULT_DIMENSION_CAP):
        n = box if isinstance(box, int) else box.n_sites
        if n < 1:
            raise ConfigError("need at least one site")
        dim = 4**n
        if dim > dimension_cap:
            raise CapacityError(
                f"Fock dimension 4^{n} = {dim} exceeds cap {dimension_cap}"
            )
        self.n_sites = n
        self.n_modes = 2 * n
        self.dim = dim
        states = np.arange(dim)
        self.occ = ((states[:, None] >> np.arange(self.n_modes)) & 1).astype(np.int8)
        self.n_up = self.occ[:, :n].sum(axis=1, dtype=np.int64)
        self.n_tot = self.n_up + self.occ[:, n:].sum(axis=1, dtype=np.int64)
        self._maps: dict[str, tuple] = {}

    def mode(self, site: int, spin: int) -> int:
        """Mode index: spin-up block of bits then spin-down."""
        return site + spin * self.n_sites

    def _sector_map(self, blocking: str) -> tuple:
        """(sector key -> its states, sector id of each state, position in its sector).

        Keys are sorted; within a sector the states keep ascending order.
        """
        cached = self._maps.get(blocking)
        if cached is not None:
            return cached
        if blocking == NUMBER:
            labels = np.stack([self.n_tot, 2 * self.n_up - self.n_tot], axis=1)
        elif blocking == PARITY:
            labels = (self.n_tot & 1)[:, None]
        else:
            raise ConfigError(f"unknown blocking {blocking!r}")
        uniq, sid = np.unique(labels, axis=0, return_inverse=True)
        sid = sid.ravel()
        keys = [tuple(map(int, row)) if blocking == NUMBER else int(row[0]) for row in uniq]
        counts = np.bincount(sid)
        order = np.argsort(sid, kind="stable")
        pos = np.empty(self.dim, dtype=np.int64)
        pos[order] = np.arange(self.dim) - np.repeat(np.cumsum(counts) - counts, counts)
        members = dict(zip(keys, np.split(order, np.cumsum(counts)[:-1])))
        self._maps[blocking] = cached = (members, sid, pos)
        return cached

    def sectors(self, blocking: str) -> dict:
        """Map sector key -> array of basis states, covering the space once."""
        return self._sector_map(blocking)[0]

    def annihilator(self, m: int) -> sp.csr_matrix:
        """Sparse matrix of a_m with the Jordan-Wigner sign convention."""
        src, dst, sign = _apply(np.arange(self.dim), ((m, False),))
        return sp.csr_matrix((sign.astype(float), (dst, src)), shape=(self.dim, self.dim))


def _apply(states: np.ndarray, ops) -> tuple:
    """Map basis states through a product of ladder operators.

    ``ops`` lists (mode, dagger) factors in product order, so the last
    factor acts first.  Returns the states that survive, their images and
    the Jordan-Wigner signs: <dst| product |src> = sign.
    """
    src = dst = states
    sign = np.ones(len(states), dtype=np.int64)
    for m, dagger in reversed(ops):
        keep = ((dst >> m) & 1) != dagger  # a_m needs mode m filled, a^dag_m empty
        src, dst, sign = src[keep], dst[keep], sign[keep]
        sign = np.where(np.bitwise_count(dst & ((1 << m) - 1)) & 1, -sign, sign)
        dst = dst ^ (1 << m)
    return src, dst, sign


def _adjoint(ops) -> tuple:
    """Ladder factors of the adjoint product."""
    return tuple((m, not dagger) for m, dagger in reversed(ops))


def _pair(basis: FockBasis, x: int) -> tuple:
    """Ladder factors of P_x = a_{x,down} a_{x,up}."""
    return ((basis.mode(x, DOWN), False), (basis.mode(x, UP), False))


def _coo(basis: FockBasis, terms, diag=None) -> sp.coo_matrix:
    """sum coef * product over (coef, ops) terms, plus a diagonal, as one COO matrix."""
    states = np.arange(basis.dim)
    rows, cols, vals = [], [], []
    for coef, ops in terms:
        src, dst, sign = _apply(states, ops)
        rows.append(dst)
        cols.append(src)
        vals.append(coef * sign)
    if diag is not None:
        rows.append(states)
        cols.append(states)
        vals.append(diag)
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dim, basis.dim),
    )


@dataclass(frozen=True)
class GibbsObservables:
    pressure: float
    density: float
    pair_amplitude: complex
    energy_per_site: float


class FockOperator:
    """Operator stored as per-sector dense blocks; Hamiltonians are Hermitian."""

    def __init__(self, basis: FockBasis, blocking: str, blocks: dict):
        self.basis = basis
        self.blocking = blocking
        self.blocks = blocks
        self._eigs: dict | None = None

    @classmethod
    def from_sparse(cls, basis: FockBasis, H: sp.spmatrix, blocking: str) -> "FockOperator":
        """Dense sector blocks of H, filled in one pass over its entries.

        Raises KaclabError if any nonzero entry joins two different sectors.
        """
        members, sid, pos = basis._sector_map(blocking)
        H = sp.coo_matrix(H)
        H.sum_duplicates()
        s = sid[H.row]
        inside = s == sid[H.col]
        leaks = np.count_nonzero(H.data[~inside])
        if leaks:
            raise KaclabError(
                f"operator has {leaks} nonzero matrix elements outside the declared "
                f"{blocking!r} sectors"
            )
        dims = np.bincount(sid)
        offsets = np.concatenate([[0], np.cumsum(dims**2)])
        s = s[inside]
        at = offsets[s] + pos[H.row[inside]] * dims[s] + pos[H.col[inside]]
        flat = np.zeros(offsets[-1], dtype=H.dtype)
        flat[at] = H.data[inside]
        blocks = {key: flat[offsets[i]:offsets[i + 1]].reshape(dims[i], dims[i])
                  for i, key in enumerate(members)}
        return cls(basis, blocking, blocks)

    @property
    def hermiticity_defect(self) -> float:
        return max(
            float(np.max(np.abs(B - B.conj().T))) if B.size else 0.0
            for B in self.blocks.values()
        )

    def sector_dimensions(self) -> dict:
        return {k: B.shape[0] for k, B in self.blocks.items()}

    def _spectra(self) -> dict:
        if self._eigs is None:
            self._eigs = {k: np.linalg.eigvalsh(B) for k, B in self.blocks.items()}
        return self._eigs

    def eigensystem(self, vectors: bool = False) -> dict:
        """Per-sector eigenvalues (ascending) and optionally eigenvectors."""
        if vectors:
            return {k: np.linalg.eigh(B) for k, B in self.blocks.items()}
        return {k: (w, None) for k, w in self._spectra().items()}

    def eigenvalues(self) -> np.ndarray:
        return np.sort(np.concatenate(list(self._spectra().values())))

    # linear algebra on matching block structures, for convexity probes ----

    def _check_compatible(self, other: "FockOperator"):
        if self.basis is not other.basis or self.blocking != other.blocking:
            raise ConfigError("operators live on different bases or blockings")

    def __add__(self, other: "FockOperator") -> "FockOperator":
        self._check_compatible(other)
        blocks = {k: self.blocks[k] + other.blocks[k] for k in self.blocks}
        return FockOperator(self.basis, self.blocking, blocks)

    def scale(self, factor: float) -> "FockOperator":
        return FockOperator(
            self.basis, self.blocking, {k: factor * B for k, B in self.blocks.items()}
        )


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _assemble(basis: FockBasis, *, t=None, v_plus=None, pair_w=None,
              density_onebody: float = 0.0, double_occ: float = 0.0,
              pair_field: complex = 0.0) -> sp.coo_matrix:
    """Shared assembly: H = one-body + density-density + pair hopping
    + density_onebody * sum n + double_occ * sum n_up n_dn
    + sum_x (conj(g) P^dag_x + g P_x) with g = pair_field.

    Hops t[x,y] a^dag_{x,s} a_{y,s} and pair hops w[x,y] P^dag_y P_x
    with x != y are ladder products; their on-site parts t[x,x] n_{x,s}
    and w[x,x] n_{x,up} n_{x,dn}, the density-density term
    sum_{x,y} v[x,y] n_x n_y and the on-site terms are diagonal.
    """
    n = basis.n_sites
    up, down = basis.occ[:, :n], basis.occ[:, n:]
    diag = density_onebody * basis.n_tot + double_occ * (up * down).sum(axis=1)
    off_site = ~np.eye(n, dtype=bool)
    terms = []
    if t is not None:
        t = np.asarray(t, float)
        terms += [(t[x, y], ((basis.mode(x, s), True), (basis.mode(y, s), False)))
                  for x, y in zip(*np.nonzero(t * off_site)) for s in (UP, DOWN)]
        diag = diag + (up + down) @ np.diag(t)
    if pair_w is not None:
        w = np.asarray(pair_w, float)
        terms += [(w[x, y], _adjoint(_pair(basis, y)) + _pair(basis, x))
                  for x, y in zip(*np.nonzero(w * off_site))]
        diag = diag + (up * down) @ np.diag(w)
    g = complex(pair_field)
    if g != 0.0:
        g = g if g.imag else g.real  # a real field keeps the blocks real
        for x in range(n):
            terms += [(g, _pair(basis, x)), (np.conj(g), _adjoint(_pair(basis, x)))]
    if v_plus is not None:
        n_site = (up + down).astype(float)
        diag = diag + np.einsum("sx,xy,sy->s", n_site, np.asarray(v_plus, float), n_site)
    return _coo(basis, terms, diag)


def build_kac_hamiltonian(mp: ModelParams, box: LatticeBox,
                          dimension_cap: int = DEFAULT_DIMENSION_CAP) -> FockOperator:
    """H = T - H_minus + H_plus on the box; conserves (N, S_z).

    T is the hopping term, H_minus the finite-range Cooper-pair hopping
    with coupling gamma_-^d f_-(gamma_- (x-y)), H_plus the density-density
    repulsion with gamma_+^d f_+(gamma_+ (x-y)).  With
    include_onsite_correction the exact Kac-interaction bookkeeping terms
    -(gamma_+^d f_+(0)/2) sum n  and  +(gamma_-^d f_-(0)/2) sum n_up n_dn
    are added; they vanish like gamma^d in the Kac limit.
    """
    basis = FockBasis(box, dimension_cap)
    t = hopping_matrix(mp.hopping, box)
    v_plus = kac_coupling_matrix(mp.f_plus, mp.gamma_plus, box) if mp.f_plus else None
    v_minus = kac_coupling_matrix(mp.f_minus, mp.gamma_minus, box) if mp.f_minus else None
    density_onebody = 0.0
    double_occ = 0.0
    if mp.include_onsite_correction:
        d = box.d
        if mp.f_plus is not None:
            f0 = float(mp.f_plus.eval(np.zeros(d)))
            density_onebody -= 0.5 * mp.gamma_plus**d * f0
        if mp.f_minus is not None:
            f0 = float(mp.f_minus.eval(np.zeros(d)))
            double_occ += 0.5 * mp.gamma_minus**d * f0
    H = _assemble(
        basis,
        t=t,
        v_plus=v_plus,
        pair_w=(-v_minus if v_minus is not None else None),
        density_onebody=density_onebody,
        double_occ=double_occ,
    )
    return FockOperator.from_sparse(basis, H, NUMBER)


def build_meanfield_hamiltonian(mf: MeanFieldParams, box: LatticeBox,
                                dimension_cap: int = DEFAULT_DIMENSION_CAP) -> FockOperator:
    """H = T + (eta_+/|box|) sum nn - (eta_-/|box|) sum P^dag P; conserves N."""
    basis = FockBasis(box, dimension_cap)
    n = box.n_sites
    t = hopping_matrix(mf.hopping, box)
    v_plus = np.full((n, n), mf.eta_plus / n) if mf.eta_plus else None
    pair_w = np.full((n, n), -mf.eta_minus / n) if mf.eta_minus else None
    H = _assemble(basis, t=t, v_plus=v_plus, pair_w=pair_w)
    return FockOperator.from_sparse(basis, H, NUMBER)


def build_approximating_hamiltonian(mf: MeanFieldParams, c_minus: complex,
                                    c_plus: complex, box: LatticeBox,
                                    dimension_cap: int = DEFAULT_DIMENSION_CAP) -> FockOperator:
    """Quadratic approximant of the mean-field model at strategies (c-, c+).

    H = T + sqrt(eta_+)(conj(c_+) + c_+) sum_x,s n_{x,s}
          - sqrt(eta_-) sum_x (conj(c_-) P^dag_x + c_- P_x),
    which only conserves fermion parity.
    """
    basis = FockBasis(box, dimension_cap)
    t = hopping_matrix(mf.hopping, box)
    shift, g = mf.approximating_fields(c_minus, c_plus)
    H = _assemble(basis, t=t, density_onebody=shift, pair_field=-g)
    return FockOperator.from_sparse(basis, H, PARITY)


# ---------------------------------------------------------------------------
# thermodynamics
# ---------------------------------------------------------------------------


def pressure(op: FockOperator, beta: float) -> float:
    """(1/(beta |box|)) ln Tr exp(-beta H), via log-sum-exp over all blocks."""
    if beta <= 0:
        raise ConfigError("beta must be positive")
    energies = op.eigenvalues()
    return float(logsumexp(-beta * energies)) / (beta * op.basis.n_sites)


def gibbs_observables(op: FockOperator, beta: float) -> GibbsObservables:
    """Thermal expectations of density and pair amplitude, plus pressure.

    The pair amplitude <a_down a_up> per site vanishes identically for
    number-conserving operators (superselection) and is returned as exact
    zero in that case.  Number sectors need no eigenvectors: every
    eigenstate of sector (N, 2 S_z) holds N fermions.
    """
    if beta <= 0:
        raise ConfigError("beta must be positive")
    basis = op.basis
    n = basis.n_sites
    sectors = basis.sectors(op.blocking)
    parity = op.blocking == PARITY
    eig = op.eigensystem(vectors=parity)
    e0 = min(w.min() for w, _ in eig.values())

    Z = 0.0
    acc_energy = 0.0
    acc_density = 0.0
    acc_pair = 0.0 + 0.0j
    if parity:  # blocks of the pair order parameter (1/n) sum_x P_x
        pair_op = _coo(basis, [(1.0 / n, _pair(basis, x)) for x in range(n)])
        pair_blocks = FockOperator.from_sparse(basis, pair_op, PARITY).blocks
    log_z_terms = []
    for key, (w, U) in eig.items():
        weights = np.exp(-beta * (w - e0))
        Z += float(weights.sum())
        log_z_terms.append(-beta * w)
        acc_energy += float(weights @ w)
        if not parity:
            acc_density += float(weights.sum()) * key[0]
            continue
        idx = sectors[key]
        n_vec = basis.n_tot[idx].astype(float)
        occup = (np.abs(U) ** 2).T @ n_vec  # <N> in each eigenstate
        acc_density += float(weights @ occup)
        diag = np.einsum("si,si->i", U.conj(), pair_blocks[key] @ U)
        acc_pair += complex(weights @ diag)
    press = float(logsumexp(np.concatenate(log_z_terms))) / (beta * n)
    density = acc_density / Z / n
    pair = acc_pair / Z
    if not (-1e-9 <= density <= 2.0 + 1e-9) or abs(pair) > 1.0 + 1e-9:
        raise KaclabError(
            f"Gibbs expectations out of range: density={density}, |pair|={abs(pair)}"
        )
    return GibbsObservables(
        pressure=press,
        density=density,
        pair_amplitude=pair,
        energy_per_site=acc_energy / Z / n,
    )


def car_max_violation(basis: FockBasis) -> float:
    """Largest entrywise violation of the anticommutation relations.

    Checks {a_p, a_q} = 0 and {a_p, a^dag_q} = delta_pq over all mode
    pairs; exact zero is expected from the bitstring construction.
    """
    a = [basis.annihilator(m) for m in range(basis.n_modes)]
    eye = sp.identity(basis.dim, format="csr")
    worst = 0.0
    for p in range(basis.n_modes):
        for q in range(p, basis.n_modes):
            anti = a[p] @ a[q] + a[q] @ a[p]
            mixed = a[p] @ a[q].T + a[q].T @ a[p] - (p == q) * eye
            worst = max(worst, float(abs(anti).max()), float(abs(mixed).max()))
    return worst
