"""Exact diagonalization on the fermionic Fock space of a finite box.

Spins {up, down}; modes are ordered with the full spin-up block first and
the spin-down block second, and Jordan-Wigner strings run over this fixed
mode order, so all creation/annihilation matrices satisfy the canonical
anticommutation relations exactly.  Occupation bitstrings index the basis;
bit m of the state integer is the occupancy of mode m.

Operators that conserve particle number are blocked by (N, 2*S_z); pairing
operators only conserve fermion parity and are blocked by parity.  Every
assembled Hamiltonian is kept as dense per-sector Hermitian matrices and
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
        self.box = box if not isinstance(box, int) else None
        self.n_sites = n
        self.n_modes = 2 * n
        self.dim = dim
        states = np.arange(dim, dtype=np.uint64)
        modes = np.arange(self.n_modes, dtype=np.uint64)
        self.occ = ((states[:, None] >> modes[None, :]) & np.uint64(1)).astype(np.int8)
        self.n_up = self.occ[:, :n].sum(axis=1).astype(np.int64)
        self.n_down = self.occ[:, n:].sum(axis=1).astype(np.int64)
        self.n_tot = self.n_up + self.n_down
        self.parity = (self.n_tot & 1).astype(np.int64)
        self._ops: dict[int, sp.csr_matrix] = {}
        self._sectors: dict[str, dict] = {}

    def mode(self, site: int, spin: int) -> int:
        """Mode index: spin-up block of bits then spin-down."""
        return site + spin * self.n_sites

    def sectors(self, blocking: str) -> dict:
        """Map sector key -> array of basis states, covering the space once."""
        cached = self._sectors.get(blocking)
        if cached is not None:
            return cached
        states = np.arange(self.dim)
        if blocking == NUMBER:
            keys = list(zip(self.n_tot, self.n_up - self.n_down))
            out: dict = {}
            for s, key in zip(states, keys):
                out.setdefault(key, []).append(s)
            out = {k: np.array(v) for k, v in sorted(out.items())}
        elif blocking == PARITY:
            out = {
                p: states[self.parity == p] for p in (0, 1)
            }
        else:
            raise ConfigError(f"unknown blocking {blocking!r}")
        self._sectors[blocking] = out
        return out

    def annihilator(self, m: int) -> sp.csr_matrix:
        """Sparse matrix of a_m with the Jordan-Wigner sign convention."""
        op = self._ops.get(m)
        if op is not None:
            return op
        states = np.arange(self.dim, dtype=np.uint64)
        occupied = states[(states >> np.uint64(m)) & np.uint64(1) == 1]
        below = occupied & np.uint64((1 << m) - 1)
        signs = 1.0 - 2.0 * (np.bitwise_count(below).astype(np.int64) & 1)
        targets = occupied ^ np.uint64(1 << m)
        op = sp.csr_matrix(
            (signs, (targets.astype(np.int64), occupied.astype(np.int64))),
            shape=(self.dim, self.dim),
        )
        self._ops[m] = op
        return op

    def creator(self, m: int) -> sp.csr_matrix:
        return self.annihilator(m).T.tocsr()

    def pair_annihilator(self, site: int) -> sp.csr_matrix:
        """P_x = a_{x,down} a_{x,up}."""
        return (self.annihilator(self.mode(site, DOWN))
                @ self.annihilator(self.mode(site, UP))).tocsr()

    def mean_pair_annihilator(self) -> sp.csr_matrix:
        """(1/n_sites) sum_x a_{x,down} a_{x,up}, the pair order parameter."""
        total = sum(self.pair_annihilator(x) for x in range(self.n_sites))
        return (total / self.n_sites).tocsr()


@dataclass(frozen=True)
class GibbsObservables:
    pressure: float
    density: float
    pair_amplitude: complex
    energy_per_site: float


class FockOperator:
    """Hermitian operator stored as per-sector dense blocks."""

    def __init__(self, basis: FockBasis, blocking: str, blocks: dict,
                 hermitian: bool = True):
        self.basis = basis
        self.blocking = blocking
        self.blocks = blocks
        self.hermitian = hermitian
        self._eigs: dict | None = None

    @classmethod
    def from_sparse(cls, basis: FockBasis, H: sp.spmatrix, blocking: str,
                    leak_tol: float = 1e-9) -> "FockOperator":
        """Extract sector blocks; verify nothing leaks between sectors."""
        H = H.tocsr()
        sectors = basis.sectors(blocking)
        blocks = {}
        block_mass = 0.0
        for key, idx in sectors.items():
            B = H[idx][:, idx].toarray()
            blocks[key] = B
            block_mass += float(np.sum(np.abs(B) ** 2))
        total_mass = float(np.sum(np.abs(H.data) ** 2)) if H.nnz else 0.0
        if abs(total_mass - block_mass) > leak_tol * (1.0 + total_mass):
            raise KaclabError(
                f"operator has matrix elements outside the declared {blocking!r} "
                f"sectors (mass defect {total_mass - block_mass:.3e})"
            )
        return cls(basis, blocking, blocks)

    @property
    def hermiticity_defect(self) -> float:
        return max(
            float(np.max(np.abs(B - B.conj().T))) if B.size else 0.0
            for B in self.blocks.values()
        )

    def sector_dimensions(self) -> dict:
        return {k: B.shape[0] for k, B in self.blocks.items()}

    def eigensystem(self, vectors: bool = False) -> dict:
        """Per-sector eigenvalues (ascending) and optionally eigenvectors."""
        out = {}
        for key, B in self.blocks.items():
            if vectors:
                w, U = np.linalg.eigh(B)
                out[key] = (w, U)
            else:
                out[key] = (np.linalg.eigvalsh(B), None)
        return out

    def eigenvalues(self) -> np.ndarray:
        if self._eigs is None:
            self._eigs = {k: np.linalg.eigvalsh(B) for k, B in self.blocks.items()}
        return np.sort(np.concatenate(list(self._eigs.values())))

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


def _one_body(basis: FockBasis, t: np.ndarray) -> sp.spmatrix:
    """sum_{x,y,s} t[x,y] a^dag_{x,s} a_{y,s}."""
    n = basis.n_sites
    H = sp.csr_matrix((basis.dim, basis.dim))
    diag = np.zeros(basis.dim)
    for x in range(n):
        for y in range(n):
            v = t[x, y]
            if v == 0.0:
                continue
            for spin in (UP, DOWN):
                p, q = basis.mode(x, spin), basis.mode(y, spin)
                if p == q:
                    diag += v * basis.occ[:, p]
                else:
                    H = H + v * (basis.creator(p) @ basis.annihilator(q))
    if np.any(diag):
        H = H + sp.diags(diag)
    return H


def _pair_hopping(basis: FockBasis, w: np.ndarray) -> sp.spmatrix:
    """sum_{x,y} w[x,y] P^dag_y P_x with P_x = a_{x,down} a_{x,up}."""
    n = basis.n_sites
    pairs = [basis.pair_annihilator(x) for x in range(n)]
    H = sp.csr_matrix((basis.dim, basis.dim))
    for y in range(n):
        py_dag = pairs[y].T
        for x in range(n):
            v = w[x, y]
            if v == 0.0:
                continue
            H = H + v * (py_dag @ pairs[x])
    return H


def _density_density_diag(basis: FockBasis, v: np.ndarray) -> np.ndarray:
    """Diagonal of sum_{x,y,s,t} v[x,y] n_{y,t} n_{x,s} (occupation basis)."""
    n = basis.n_sites
    ntot = (basis.occ[:, :n] + basis.occ[:, n:]).astype(float)  # (dim, n_sites)
    return np.einsum("sx,xy,sy->s", ntot, v, ntot)


def _assemble(basis: FockBasis, *, t=None, v_plus=None, pair_w=None,
              density_onebody: float = 0.0, double_occ: float = 0.0,
              pair_field: complex = 0.0) -> sp.spmatrix:
    """Shared assembly: H = one-body + density-density + pair hopping
    + density_onebody * sum n + double_occ * sum n_up n_dn
    + sum_x (conj(g) P^dag_x + g P_x) with g = pair_field.
    """
    n = basis.n_sites
    H = sp.csr_matrix((basis.dim, basis.dim))
    diag = np.zeros(basis.dim)
    if t is not None and np.any(t):
        H = H + _one_body(basis, np.asarray(t, float))
    if v_plus is not None and np.any(v_plus):
        diag += _density_density_diag(basis, np.asarray(v_plus, float))
    if pair_w is not None and np.any(pair_w):
        H = H + _pair_hopping(basis, np.asarray(pair_w, float))
    if density_onebody != 0.0:
        diag += density_onebody * basis.n_tot
    if double_occ != 0.0:
        docc = (basis.occ[:, :n] * basis.occ[:, n:]).sum(axis=1)
        diag += double_occ * docc
    if np.any(diag):
        H = H + sp.diags(diag)
    g = complex(pair_field)
    if g != 0.0:
        pair_sum = sum(basis.pair_annihilator(x) for x in range(n)).tocsr()
        if g.imag == 0.0:
            H = H + g.real * (pair_sum.T + pair_sum)
        else:
            H = H + np.conj(g) * pair_sum.T.astype(complex) + g * pair_sum.astype(complex)
    return H


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
    pair_op = basis.mean_pair_annihilator() if parity else None
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
        A = pair_op[idx][:, idx].toarray()
        diag = np.einsum("si,si->i", U.conj(), A @ U)
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
    eye = sp.identity(basis.dim, format="csr")
    worst = 0.0
    for p in range(basis.n_modes):
        ap = basis.annihilator(p)
        for q in range(p, basis.n_modes):
            aq = basis.annihilator(q)
            anti = ap @ aq + aq @ ap
            if anti.nnz:
                worst = max(worst, float(np.max(np.abs(anti.data))))
            mixed = ap @ aq.T + aq.T @ ap
            diff = (mixed - eye) if p == q else mixed
            if diff.nnz:
                worst = max(worst, float(np.max(np.abs(diff.data))))
    return worst
