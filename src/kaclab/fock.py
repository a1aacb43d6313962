"""Exact diagonalization on the fermionic Fock space of a finite box.

Spins {up, down}; modes are ordered with the full spin-up block first and
the spin-down block second, and Jordan-Wigner strings run over this fixed
mode order, so all creation/annihilation matrices satisfy the canonical
anticommutation relations exactly.  Occupation bitstrings index the basis;
bit m of the state integer is the occupancy of mode m.

Every operator, from a single a_m to the full Hamiltonians, is built by
one kernel, ``_apply``, which maps a set of basis states at once through
products of ladder operators with bit arithmetic; a term list of such
products, plus a diagonal, gives the entries in the columns of those
states.  The Hamiltonians are given by their site data (``_Sites``: the
hopping, density and pair-hopping matrices, whose diagonals hold every
on-site term, and a pair field), and only the columns of the orbit
representatives below are ever built for their blocks: 2,344 of 16,384
states at 7 sites.

Operators are stored as dense blocks labelled by conserved charges, a
momentum and an inversion part: keys (N, 2*S_z, q, p) for operators that
conserve particle number and (parity, q, p) for pairing operators, which
only conserve fermion parity.  q indexes ``FockBasis.momenta``.  On a
periodic box the group G of torus translations acts on the basis, each with
its Jordan-Wigner reordering sign; the momentum block (charges, q) is
spanned by the Bloch states

    |r, k> = N_r^{-1/2} sum_{h in G} exp(-i k.h) T_h |r>,
    N_r = |G| sum_{h in Stab(r)} exp(-i k.h) sign_h(r)  (0 or |G| |Stab(r)|),

of the orbit representatives r (orbit minima) with N_r != 0.  On an open
box, or a basis made from a bare site count, G is trivial and q = 0.
``from_sparse`` fills the blocks from the entries in the representative
columns (by a plan, below): any nonzero element between two charge
sectors is an error, and
so is an operator of a box that is not invariant under each unit
translation and under the inversion I: x -> -x (with its Jordan-Wigner
sign); none is ever compressed silently.  Every Hamiltonian of the box is
inversion symmetric: hopping kernels and pair potentials are even, and
mean-field and approximating site data uniform.  A global sparse matrix
(the oracle of the tests and of ``selftest``) is checked as a whole, to
1e-12 max(1, max|H|), and must be real.  The site data of a builder are
checked on the site matrices, by a bound that rejects every operator the
global check rejects.

The antiunitary Theta = I K, the inversion followed by complex
conjugation, maps each momentum block onto itself, and Theta^2 = 1:

    Theta |r, k> = phi_r |r', k>,  r' = rep(s), s = I r,
    phi_r = sign_I(r) sign_s chi_q(h_s) (N_{r'}/N_r)^{1/2}

(T_{h_s} |s> = sign_s |r'>, chi_q(h) = exp(-i k_q.h)).  Its fixed points F
(r' = r), pairs P (r < r') and partners P' (r' < r) order each block as
[F, P, P'].  With the phases phi^{1/2} on F and phi on P', Theta acts as
complex conjugation that swaps P and P', so the vectors F,
u = (P + P')/sqrt 2 and v = i (P - P')/sqrt 2 are fixed by Theta.  Every
block is stored in this basis, as M = W^dag B W: B is the block on the
phased Bloch states and W the fixed map of F to itself and of (P, P') to
(u, v).  Every H is real (the approximating one is gauge-fixed, see
``build_approximating_hamiltonian``), so Theta is a symmetry:
W^dag B Pi_P' W is the complex conjugate of W^dag B Pi_P W, and
W^dag B Pi_F W is real, so M is real symmetric and is built from the
columns F and P alone, P with weight 2: the minima of the orbits of
translations and inversion (``FockBasis.inversion_reps``: 1,300 of the
2,344 representatives at 7 sites).  At k = -k (q = 0, which is every block
of an open box) K acts trivially on Bloch states, so I alone maps the
block onto itself: phi = +-1 splits F into the inversion-even F+ and the
odd F-, and M into the blocks (charges, q, 1) on [F+, u] and
(charges, q, -1) on [F-, v].  Every other block is kept whole as
(charges, q, 0).  A bare site count has no inversion: there Theta = K,
every state is in F+, and the blocks are the plain sectors (charges, 0, 1).

Two pairings make blocks redundant, and only the lowest block of each
class is filled, with the class size as its multiplicity.  The inversion
commutes with H and maps the block at k onto the one at -k, so k pairs
with -k; it also maps the Hermitian pair field
A = (1/2n) sum_x (P_x + P^dag_x) onto itself, so the two blocks have the
same pair terms (``gibbs_observables``).  Under number blocking, a global
matrix invariant under the up <-> down swap (checked like a translation)
has the same spectrum at 2*S_z and -2*S_z; one that fails the check keeps
multiplicity 1 on that pairing.  Site data go further: every H that they
give commutes with total spin (one hopping matrix for both spins,
density-density terms and singlet pair terms), so each kept block, at
2*S_z = -2S <= 0, is diagonalized on its spin-S lowest-weight states
alone, each eigenvalue counted (class size)(2S+1) times
(``_lowest_weight_maps``; translations combined with spin rotations as in
Heitmann and Schnack, Phys. Rev. B 99, 134405 (2019)).  The 7-site
periodic chain has 424 (N, 2*S_z, q) blocks in 135 classes of size 1, 2
or 4.  Their kept real blocks number 160 (99 at k != 0, and 61 inversion
halves of the 36 classes at k = 0), of order at most 175, with
sum dim^3 = 7.0e7 (all 424: 2.2e8; without momentum: 64 blocks up to
order 1225, sum dim^3 = 1.1e10).  On lowest-weight states 158 of them
remain, of order at most 112, with sum dim^3 = 1.4e7; 93 need a map Q
(18,014 nonzeros, 0.29 MB), and the other 65 have no partner and are all
lowest weight.  Of the approximating H there, the 14 (parity, q) blocks
are kept as 10: for each parity, the two inversion halves at k = 0 and
one block of each pair +-k.  The traces need full spectra, so every kept
block (or Q^T B Q) is diagonalized in full, those of one order in one
stacked ``eigvalsh``.

Where the entries go in the blocks depends on which entries are nonzero,
never on their values.  So each build is split into a plan (``_plan``):
for every value that lands in the buffer of the blocks, its position, the
index of the entry value that it scales and a fixed weight; and a scatter
(``_scatter``), one weighted ``np.bincount`` of the values of the operator
at hand.  The plan of site data is made once per basis and per blocking
and ``_Sites.pattern`` (the nonzero off-site entries of the hopping and
pair-hopping matrices, and whether a pair field is present), and is kept
on the basis: a sweep over Kac ranges on one box makes it once.  At 7
sites it places 89,369 values into 542,381 doubles and holds 1.4 MB.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConfigError, KaclabError
from .lattice import (DEFAULT_DIMENSION_CAP, PERIODIC, LatticeBox, MeanFieldParams, ModelParams,
                      check_fock_dimension, hopping_matrix, kac_coupling_matrix)

if TYPE_CHECKING:
    import scipy.sparse as sp

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

log = logging.getLogger(__name__)

NUMBER, PARITY = "number", "parity"

UP, DOWN = 0, 1

_PARTS = (0, 1, -1)  # key suffix p of stored block part 0 (whole), 1 (even), 2 (odd)
# By kind F+, F-, P, P' of a Bloch state a: W[a, x1] for its first adapted
# vector x1 (a itself on F, u on a pair), and s with W[a, x2] = i s W[a, x1]
# for its second, v (none on F)
_W = np.array([1.0, 1.0, np.sqrt(0.5), np.sqrt(0.5)])
_TURN = np.array([0, 0, 1, -1], dtype=np.int8)


class _Blocks(NamedTuple):
    """Layout of the blocks of one blocking of a basis.

    The Bloch states are numbered block by block, and in each momentum
    block (charges, q) as F+, F-, P, P' (see the module docstring); the
    adapted vector u of a pair is numbered as its P state, v as its P'."""

    labels: list        # (charges, q) of each momentum block, sorted
    sectors: dict       # key (charges, q, p) of each stored block -> its representatives
    sector: np.ndarray  # (dim,) charge sector of each state
    bloch: np.ndarray   # (|G|, dim) number of Bloch state (q, s); -1 if none
    dims: np.ndarray    # order of each momentum block
    q: np.ndarray       # momentum index of each momentum block
    conj: np.ndarray    # id of the block (charges, -q) of each block
    flip: np.ndarray    # id of the block with up and down swapped, (N, -2 S_z, q)
    sides: np.ndarray   # (blocks, 3) order of its stored block of each part (0: none)
    # per Bloch state a:
    owner: np.ndarray   # its momentum block
    kind: np.ndarray    # 0..3 for F+, F-, P, P'
    vec: np.ndarray     # (2, states) its adapted vectors x1, x2 (x2 = x1 on F)
    col_coef: np.ndarray  # W[a, x1] theta_a / N_a^{1/2}, with theta_a its Theta-adapted phase
    row_coef: np.ndarray  # W[a, x1] N_a^{1/2} / theta_a
    turn: np.ndarray    # s of _TURN
    part: np.ndarray    # the stored block of the adapted vector numbered a
    index: np.ndarray   # the position of that vector in its stored block


class FockBasis:
    """Occupation basis of the 4^{n_sites} Fock space of a box, with the
    orbit tables of its translation group.

    ``box`` may also be a bare integer site count, for oracle tests on
    chains that are not cubic boxes (e.g. the 2-site CAR checks); such a
    basis, like that of an open box, has the trivial group.

    Per state s: ``rep[s]``, the minimum of its orbit, the index ``to_rep[s]``
    of a group element h, the sign ``rep_sign[s]`` with T_h |s> = sign |rep>,
    and ``inversion_rep[s]``, its minimum under the inversion too (listed in
    ``inversion_reps``).  Per momentum q and state:
    ``bloch_norm[q, s]``, the norm N_s of the Bloch state of a
    representative s (zero for every other state).  Per unit translation:
    the image and sign of every state (``generators``) and the image of
    every site (``site_shifts``).  ``spin_flip`` holds the image and sign of
    every state under the up <-> down swap, and ``inversion`` those under
    x -> -x, whose site image is ``site_inversion`` (both None for a bare
    site count).
    """

    def __init__(self, box, dimension_cap: int = DEFAULT_DIMENSION_CAP):
        n = box if isinstance(box, int) else box.n_sites
        dim = check_fock_dimension(n, dimension_cap)
        self.n_sites = n
        self.n_modes = 2 * n
        self.dim = dim
        states = np.arange(dim)
        self.occ = ((states[:, None] >> np.arange(self.n_modes)) & 1).astype(np.int8)
        self.n_up = self.occ[:, :n].sum(axis=1, dtype=np.int64)
        self.n_tot = self.n_up + self.occ[:, n:].sum(axis=1, dtype=np.int64)

        d = box.d if isinstance(box, LatticeBox) else 1
        m = box.extent if isinstance(box, LatticeBox) and box.boundary == PERIODIC else 1
        # group elements h in Z_m^d, with the image and sign of every state
        shifts, images, signs = np.zeros((1, d), dtype=np.int64), states[None], np.ones((1, dim))
        self.generators = []  # (image, sign) of each unit translation
        self.site_shifts = []  # image of every site under each unit translation
        for j in range(d if m > 1 else 0):
            unit = np.eye(d, dtype=np.int64)[j]
            site = box.wrap_index(box.sites + unit)
            image, sign = _permute_modes(states, np.concatenate([site, site + n]))
            self.generators.append((image, sign))
            self.site_shifts.append(site)
            rows = [(shifts, images, signs)]
            for _ in range(m - 1):  # T_{h+e_j} = T_{e_j} T_h
                sh, im, sg = rows[-1]
                rows.append((sh + unit, image[im], sg * sign[im]))
            shifts, images, signs = (np.concatenate(part) for part in zip(*rows))
        self.momenta = 2 * np.pi * ((shifts + m // 2) % m - m // 2) / m
        # index of -h (and of -k) for every h: codes of h in base m, sorted
        code, neg_code = (((sh % m) * m ** np.arange(d)).sum(axis=1) for sh in (shifts, -shifts))
        self._neg = np.argsort(code)[np.searchsorted(np.sort(code), neg_code)]
        self.site_inversion = self.inversion = None
        if isinstance(box, LatticeBox):
            self.site_inversion = site = box.wrap_index(-box.sites)
            self.inversion = _permute_modes(states, np.concatenate([site, site + n]))
        # chi[q, g] = exp(-i k_q . h_g), from the exact integer angle (q . h) mod m
        self._chi = np.exp(-2j * np.pi * ((shifts @ shifts.T) % m) / m)
        self.rep = images.min(axis=0)
        self.to_rep = images.argmin(axis=0)
        self.rep_sign = signs[self.to_rep, states]
        reps = np.flatnonzero(self.rep == states)
        in_stab = images[:, reps] == reps
        self.bloch_norm = np.zeros((len(shifts), dim), dtype=np.int32)
        self.bloch_norm[:, reps] = np.rint(
            len(shifts) * (self._chi @ (signs[:, reps] * in_stab)).real)
        # orbits of the translations and the inversion: their minima are the
        # orbit minima r <= rep(I r), the columns F and P of Theta
        self.inversion_rep = self.rep
        if self.inversion is not None:
            self.inversion_rep = np.minimum(self.rep, self.rep[self.inversion[0]])
        self.inversion_reps = np.flatnonzero(self.inversion_rep == states)
        self._maps: dict[str, _Blocks] = {}
        self._plans: dict[tuple, _Plan] = {}  # see FockOperator.from_sparse
        self._lowest: dict | None = None  # see _lowest_weight_maps

    @functools.cached_property
    def spin_flip(self) -> tuple:
        """Image and sign of every state under the up <-> down swap."""
        return _permute_modes(np.arange(self.dim), np.roll(np.arange(self.n_modes), self.n_sites))

    def mode(self, site: int, spin: int) -> int:
        """Mode index: spin-up block of bits then spin-down."""
        return site + spin * self.n_sites

    def _sector_map(self, blocking: str) -> _Blocks:
        """The block layout of a blocking, computed once per basis."""
        if blocking not in self._maps:
            self._maps[blocking] = self._layout(blocking)
        return self._maps[blocking]

    def _layout(self, blocking: str) -> _Blocks:
        if blocking == NUMBER:
            charges = np.stack([self.n_tot, 2 * self.n_up - self.n_tot], axis=1)
            flipped = charges * [1, -1]
        elif blocking == PARITY:
            charges = flipped = (self.n_tot & 1)[:, None]
        else:
            raise ConfigError(f"unknown blocking {blocking!r}")
        low = charges.min(axis=0)
        shape = charges.max(axis=0) - low + 1
        sector = np.ravel_multi_index((charges - low).T, shape)
        n_q = len(self.bloch_norm)
        q, reps = np.nonzero(self.bloch_norm)
        codes = sector[reps] * n_q + q  # ordered as the (charges, q) labels
        labels, first, bid = np.unique(codes, return_index=True, return_inverse=True)
        dims = np.bincount(bid)
        start = np.cumsum(dims) - dims
        # Theta |r, k> = phi |partner, k> (see the module docstring); kinds
        # 0..3 are F+, F-, P and P', and F- exists at k = -k only
        self_conj = self._neg[q] == q
        partner, phi = reps, np.ones(len(reps), complex)
        if self.inversion is not None:
            image, sign = self.inversion
            s = image[reps]
            partner = self.rep[s]
            phi = (sign[reps] * self.rep_sign[s]
                   * np.sqrt(self.bloch_norm[q, partner] / self.bloch_norm[q, reps])
                   * self._chi[q, self.to_rep[s]])
        kind = np.where(partner == reps, self_conj & (phi.real < 0), 2 + (partner < reps))
        # block order F+, F-, P, then P' in the order of their partners
        order = np.lexsort((np.where(kind == 3, partner, reps), kind, bid))
        bloch = np.full(self.bloch_norm.shape, -1, dtype=np.int32)
        bloch[q[order], reps[order]] = np.arange(len(bid))
        counts = np.zeros((len(dims), 4), dtype=np.int64)
        np.add.at(counts, (bid, kind), 1)
        # F takes sqrt(phi) and P' takes phi: Theta then fixes F and swaps P, P'
        theta = np.where(kind == 3, phi, 1.0 + 0j)
        theta[kind < 2] = np.sqrt(phi[kind < 2])
        keys = [(*map(int, c), int(k)) for c, k in zip(charges[reps[first]], q[first])]
        members = dict(zip(keys, np.split(reps[order], np.cumsum(dims)[:-1])))
        # Bloch norms are even in k and the spin flip maps orbits onto orbits,
        # so both partners of every block exist
        r, k = reps[first], q[first]
        conj = np.searchsorted(labels, sector[r] * n_q + self._neg[k])
        flip = np.searchsorted(
            labels, np.ravel_multi_index((flipped[r] - low).T, shape) * n_q + k)
        # the stored blocks (part 0: the whole block; 1 and 2: inversion-even
        # [F+, u] and -odd [F-, v] at k = -k), and the part and position of
        # the adapted vector numbered as each Bloch state (u at P, v at P')
        f_plus, f_minus, n_pair = counts[:, :3].T
        split = conj == np.arange(len(dims))
        sides = np.stack([np.where(split, 0, dims), np.where(split, f_plus + n_pair, 0),
                          np.where(split, f_minus + n_pair, 0)], axis=1)
        kind, b = kind[order], bid[order]
        pos = np.arange(len(b)) - start[b]
        part = np.where(split[b], np.where((kind == 1) | (kind == 3), 2, 1), 0)
        index = pos - np.where(
            split[b], np.choose(kind, [0, f_plus[b], f_minus[b], (f_plus + n_pair)[b]]), 0)
        sectors = {(*key, _PARTS[p]): m[part[start[i]:start[i] + dims[i]] == p]
                   for i, (key, m) in enumerate(members.items()) for p in range(3) if sides[i, p]}
        # the adapted vectors of each Bloch state: itself on F, u and v on P and P'
        shift = np.where(kind >= 2, n_pair[b], 0)
        u = np.arange(len(b)) - np.where(kind == 3, shift, 0)
        weight = theta[order] / np.sqrt(self.bloch_norm[q, reps])[order]
        return _Blocks(list(members), sectors, sector, bloch, dims, k, conj, flip, sides,
                       b.astype(np.int32), kind.astype(np.int8),
                       np.stack([u, u + shift]).astype(np.int32), _W[kind] * weight,
                       _W[kind] / weight, _TURN[kind], part.astype(np.int8),
                       index.astype(np.int32))

    def _lowest_weights(self) -> dict:
        """The lowest-weight maps of the number blocks of site data
        (``_lowest_weight_maps``), computed once per basis."""
        if self._lowest is None:
            t0 = time.perf_counter()
            self._lowest = _lowest_weight_maps(self)
            log.debug("lowest-weight maps of %d blocks on %d sites: %d nonzeros, %d bytes, "
                      "%.1f ms", len(self._lowest), self.n_sites,
                      sum(len(Q.vals) for Q in self._lowest.values()),
                      sum(Q.rows.nbytes + Q.cols.nbytes + Q.vals.nbytes
                          for Q in self._lowest.values()), 1e3 * (time.perf_counter() - t0))
        return self._lowest

    def sectors(self, blocking: str) -> dict:
        """Map block key (charges, q, p) -> the representatives of its basis
        vectors, in block order (u and v by their P and P' members); every
        state's orbit is covered once per momentum at which its Bloch state
        exists."""
        return self._sector_map(blocking).sectors

    def annihilator(self, m: int) -> sp.csr_matrix:
        """Sparse matrix of a_m with the Jordan-Wigner sign convention."""
        import scipy.sparse as sp

        _, src, dst, sign = _apply(np.arange(self.dim), ((m, False),))
        return sp.csr_matrix((sign.astype(float), (dst, src)), shape=(self.dim, self.dim))


def _box_basis(box: LatticeBox, dimension_cap: int = DEFAULT_DIMENSION_CAP) -> FockBasis:
    """The basis of a box, built once per (d, L, boundary) and process and
    shared by every operator on that box; the cap is checked on every call."""
    check_fock_dimension(box.n_sites, dimension_cap)
    return _cached_basis(box.d, box.L, box.boundary)


@functools.lru_cache(maxsize=8)
def _cached_basis(d: int, L: int, boundary: str) -> FockBasis:
    box = LatticeBox(d, L, boundary)
    return FockBasis(box, 4**box.n_sites)


def _classes(layout: _Blocks, flip: bool) -> np.ndarray:
    """Multiplicity of every stored block (block, part) of a momentum block
    that is the lowest id of its class under k <-> -k and, with ``flip``,
    2 S_z <-> -2 S_z; 0 for every other one.  The two pairings commute, so
    a class has 1, 2 or 4 members."""
    ids = np.arange(len(layout.dims))
    c = layout.conj
    f = layout.flip if flip else ids
    members = np.sort(np.stack([ids, c, f, c[f]]), axis=0)
    mult = 1 + np.count_nonzero(np.diff(members, axis=0), axis=0)
    return np.where(members[0] == ids, mult, 0)[:, None] * (layout.sides > 0)


def _permute_modes(states: np.ndarray, perm: np.ndarray) -> tuple:
    """Image and sign of every basis state under the mode permutation perm.

    |s> = a^dag_{m_1} ... a^dag_{m_k} |0> with m_1 < ... < m_k, so the
    relabelled product is reordered at the sign (-1)^(inversions of perm
    among the occupied modes).
    """
    image = np.zeros_like(states)
    parity = np.zeros_like(states)
    for m, pm in enumerate(perm):
        image |= ((states >> m) & 1) << pm
        for m2 in np.flatnonzero(perm[m + 1:] < pm) + m + 1:
            parity ^= (states >> m) & (states >> m2) & 1
    return image, 1.0 - 2.0 * parity


def _apply(states: np.ndarray, ops) -> tuple:
    """Map basis states through products of ladder operators.

    ``ops`` lists (mode, dagger) factors in product order, so the last
    factor acts first.  A mode may be an array, one mode per product, and
    every product maps every state.  Returns, for each nonzero
    <dst| product_j |src> = sign, the product index j, src, dst and the
    Jordan-Wigner sign, ordered by j and then as ``states``.
    """
    dst, alive, flips = states.astype(np.int32)[None, :], True, 0  # 2 n_sites < 31 bits
    for m, dagger in reversed(ops):
        m = np.reshape(m, (-1, 1)).astype(np.int32)
        alive = alive & (((dst >> m) & 1) != dagger)  # a_m needs mode m filled, a^dag_m empty
        flips = flips + np.bitwise_count(dst & ((1 << m) - 1))
        dst = dst ^ (1 << m)
    j, col = np.nonzero(alive)
    return j, states[col], dst[j, col], np.where(flips[j, col] & 1, -1, 1)


def _adjoint(ops) -> tuple:
    """Ladder factors of the adjoint product."""
    return tuple((m, not dagger) for m, dagger in reversed(ops))


def _pair(basis: FockBasis, x) -> tuple:
    """Ladder factors of P_x = a_{x,down} a_{x,up} (of each site of an array x)."""
    return ((basis.mode(x, DOWN), False), (basis.mode(x, UP), False))


def _entries(states: np.ndarray, products) -> tuple:
    """Entries (rows, cols, value, sign) in the columns ``states`` of
    sum_i values[i] sign * product_i: the ladder products are those of
    ``products`` (factors as for ``_apply``, each standing for one product
    or several), numbered in order, then one value per state on the
    diagonal, numbered after them."""
    rows, cols, value, signs, count = [], [], [], [], 0
    for ops in products:
        j, src, dst, sign = _apply(states, ops)
        rows.append(dst)
        cols.append(src)
        value.append(count + j)
        signs.append(sign)
        count += max(np.size(m) for m, _ in ops)
    rows.append(states)
    cols.append(states)
    value.append(count + np.arange(len(states)))
    signs.append(np.ones(len(states), dtype=int))
    return tuple(np.concatenate(part) for part in (rows, cols, value, signs))


def _check_sectors(layout: _Blocks, blocking: str, row: np.ndarray, col: np.ndarray,
                   data: np.ndarray, rep: np.ndarray | None = None) -> None:
    """Raise KaclabError if a nonzero entry joins two charge sectors.

    With ``rep`` (the representative of every state) the entries are the
    columns of representatives of a translation-invariant leak, and each
    counts once per state of its orbit."""
    leaking = col[(layout.sector[row] != layout.sector[col]) & (data != 0)]
    if len(leaking):
        count = len(leaking) if rep is None else int(np.bincount(rep)[leaking].sum())
        raise KaclabError(
            f"operator has {count} nonzero matrix elements outside the declared "
            f"{blocking!r} sectors"
        )


def _invariance_defect(H: sp.csr_matrix, coo: sp.coo_matrix, image: np.ndarray,
                       sign: np.ndarray) -> float:
    """max |U H U^dag - H| for the mode permutation U with
    U |s> = sign[s] |image[s]> (coo: the entries of H)."""
    import scipy.sparse as sp

    moved = sp.csr_matrix(
        (coo.data * sign[coo.row] * sign[coo.col], (image[coo.row], image[coo.col])),
        shape=H.shape)
    return abs(moved - H).max()


TRANSLATIONS = "the translations of its periodic box"
INVERSION = "the inversion x -> -x of its box"


def _check_invariance(defects, tol: float, symmetry: str) -> None:
    """Raise KaclabError if any defect under the symmetry exceeds tol."""
    for defect in defects:
        if defect > tol:
            raise KaclabError(
                f"operator is not invariant under {symmetry} (defect {defect:.3e} > {tol:.1e})")


@dataclass(frozen=True)
class GibbsObservables:
    pressure: float
    density: float
    pair_amplitude: complex
    energy_per_site: float


class FockOperator:
    """Operator stored as dense real symmetric Theta-adapted blocks, keyed
    (charges, q, p) as in ``FockBasis.sectors``.

    ``blocks`` holds one block per symmetry class, and ``mult[key]`` the
    number of times each of its eigenvalues counts: the number of blocks of
    its class, which share its spectrum (1 for every block when ``mult`` is
    not given), times 2S+1 where ``lowest[key]`` maps the block onto its
    spin-S lowest-weight states Q (``_lowest_weight_maps``); its spectrum
    is then that of Q^T B Q."""

    pair_phase: complex = 1.0  # e^{-i arg c_-}, set by build_approximating_hamiltonian

    def __init__(self, basis: FockBasis, blocking: str, blocks: dict, mult: dict | None = None):
        self.basis = basis
        self.blocking = blocking
        self.blocks = blocks
        self.mult = mult if mult is not None else dict.fromkeys(blocks, 1)
        self.lowest: dict = {}  # key -> _LowestWeight, set by from_sparse for site data
        self._stack: _Stack | None = None  # see _spectra; from the plan for site data
        self._eigs: np.ndarray | None = None

    @classmethod
    def from_sparse(cls, basis: FockBasis, H: sp.spmatrix | _Sites,
                    blocking: str) -> "FockOperator":
        """Dense real symmetric blocks of the real H, one per symmetry class.

        H is a sparse matrix on the basis, or the site data ``_Sites`` of a
        Hamiltonian of its box.  Raises KaclabError if any nonzero entry
        joins two charge sectors, or H is not invariant under a unit
        translation or the inversion of the basis, checked in that order.
        The inversion maps the block at k onto that at -k, so the two are
        paired; under number blocking, an H invariant under the up <-> down
        swap pairs (N, 2 S_z, q) with (N, -2 S_z, q).  Only the lowest block
        of each class is filled, from the entries in the columns of
        ``basis.inversion_reps``.

        A sparse matrix is checked as a whole: translations, the inversion
        and the swap to 1e-12 max(1, max|H|), then realness, exactly; it
        gets a plan (see the module docstring) of its own.  Site data are
        checked on the site matrices (``_Sites.check_symmetries``), and every
        number-conserving one is swap invariant by construction.  Their plan
        is kept on the basis: a later build with the same blocking and
        ``_Sites.pattern`` only forms its values and scatters them.  Under
        number blocking, site data keep only the blocks that hold
        lowest-weight states, with the spin multiplicities and the maps Q
        (``lowest``) of ``_lowest_weight_maps``.
        """
        if isinstance(H, _Sites):
            plan, values = _site_plan(basis, blocking, H)
            op = cls(basis, blocking, _scatter(plan, values), dict(plan.mult))
            op.lowest = basis._lowest_weights() if blocking == NUMBER else {}
            op._stack = plan.stack
            return op
        import scipy.sparse as sp

        layout = basis._sector_map(blocking)
        H = sp.csr_matrix(H)
        H.sum_duplicates()
        coo = H.tocoo()
        _check_sectors(layout, blocking, coo.row, coo.col, coo.data)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(coo.data), initial=0.0)))
        _check_invariance((_invariance_defect(H, coo, *g) for g in basis.generators), tol,
                          TRANSLATIONS)
        if basis.inversion is not None:
            _check_invariance([_invariance_defect(H, coo, *basis.inversion)], tol, INVERSION)
        if np.any(np.imag(coo.data)):
            raise KaclabError("operator has complex entries: complex operators must be "
                              "gauge-fixed to real ones before they are blocked")
        flip = blocking == NUMBER and _invariance_defect(H, coo, *basis.spin_flip) <= tol
        at_rep = basis.inversion_rep[coo.col] == coo.col
        values = coo.data[at_rep].real
        entries = (coo.row[at_rep], coo.col[at_rep], np.arange(len(values)),
                   np.ones(len(values)))
        plan = _plan(basis, layout, entries, _classes(layout, flip))
        return cls(basis, blocking, _scatter(plan, values), dict(plan.mult))

    def sector_dimensions(self) -> dict:
        """The order of the matrix diagonalized for each block: its number
        of lowest-weight states where it has a map Q, else its order."""
        return {k: self.lowest[k].width if k in self.lowest else B.shape[0]
                for k, B in self.blocks.items()}

    def _reduced(self, key) -> np.ndarray:
        """Q^T B Q for the block B of the key and its map Q, or B."""
        B = self.blocks[key]
        return self.lowest[key].project(B) if key in self.lowest else B

    def _spectra(self) -> tuple:
        """The eigenvalues of every kept block, concatenated in the order of
        its ``_Stack``, and that stack: the blocks of one order go through
        one stacked ``eigvalsh``."""
        if self._stack is None:
            self._stack = _stack(self.sector_dimensions(), self.mult)
        if self._eigs is None:
            self._eigs = np.concatenate([np.linalg.eigvalsh(np.stack(
                [self._reduced(k) for k in keys])).ravel() for keys in self._stack.groups])
        return self._eigs, self._stack

    def eigensystem(self, vectors: bool = False) -> dict:
        """Per-block eigenvalues (ascending) and optionally eigenvectors, in
        the basis of the block (Q V for the eigenvectors V of Q^T B Q)."""
        if not vectors:
            w, stack = self._spectra()
            return {k: (w[at:at + n], None) for k, at, n in stack.slices}
        out = {}
        for k, B in self.blocks.items():
            w, V = np.linalg.eigh(self._reduced(k))
            out[k] = (w, self.lowest[k].dense(len(B)) @ V if k in self.lowest else V)
        return out

    def eigenvalues(self) -> np.ndarray:
        """The full spectrum: each block's eigenvalues, repeated by its multiplicity."""
        w, stack = self._spectra()
        return np.sort(np.repeat(w, stack.mult))


class _Stack(NamedTuple):
    """The kept blocks of an operator grouped by the order of the matrix
    diagonalized for each (``FockOperator.sector_dimensions``), and per
    eigenvalue of their concatenated spectra, group by group and block by
    block, the block's multiplicity and first charge (N under number
    blocking)."""

    groups: list        # the keys of each order, by order
    slices: list        # (key, start, order) of each block in the spectrum
    mult: np.ndarray    # (eigenvalues,)
    charge: np.ndarray  # (eigenvalues,)


def _stack(dims: dict, mult: dict) -> _Stack:
    """The ``_Stack`` of blocks of these orders and multiplicities."""
    by_order = {}
    for key, n in dims.items():
        by_order.setdefault(n, []).append(key)
    groups = [by_order[n] for n in sorted(by_order)]
    keys = [key for group in groups for key in group]
    orders = [dims[key] for key in keys]
    starts = np.cumsum([0] + orders[:-1]).tolist()
    return _Stack(groups, list(zip(keys, starts, orders)),
                  np.repeat([mult[key] for key in keys], orders),
                  np.repeat([key[0] for key in keys], orders))


class _Plan(NamedTuple):
    """Where each value of an operator goes in the buffer of its blocks,
    for one structure of its entries (see ``_plan``)."""

    pos: np.ndarray     # int32 buffer position of each placed value
    value: np.ndarray   # int32 index of the value that it scales
    weight: np.ndarray  # its float64 multiplier
    size: int           # length of the buffer
    blocks: list        # (key, offset, order) of each stored block
    mult: dict          # key -> multiplicity of each stored block
    stack: _Stack | None = None  # of the operators of site data (``_site_plan``)


def _plan(basis: FockBasis, layout: _Blocks, entries: tuple, mult: np.ndarray) -> _Plan:
    """The plan of the Theta-adapted stored blocks (block, part) with
    mult[block, part] > 0, from the entries (rows, cols, value, sign) of a real
    inversion-symmetric operator in the columns of
    ``FockBasis.inversion_reps`` (F and P), whose entry is
    values[value] * sign.  ``_scatter`` then fills the blocks of any values.

    Entry H[s, c] adds H[s, c] sign_s chi_q(h_s) theta_c / theta_r
    (N_r/N_c)^{1/2} to the Bloch-state block B of momentum q at (r, c),
    r = rep(s), where T_{h_s} |s> = sign_s |r> and chi_q(h) = exp(-i k_q.h);
    it goes straight to M = W^dag B W, at (x, y) with weight
    conj(W[r, x]) W[c, y], for the adapted vectors x of r and y of c (see
    the module docstring).  Each such product of an entry's value with a
    fixed weight is one placed value of the plan.  The operator takes
    weight 2 on the columns P and the real part: its weights and blocks are
    float64.  Vectors of opposite inversion parity at k = -k do not mix.
    The operator is symmetric (a Hamiltonian, or the pair field A of
    ``gibbs_observables``): each value is placed in the lower triangle and,
    in the same order, at the mirror image, so its blocks are exactly
    symmetric.
    """
    src, col, value, sign = entries
    value = value.astype(np.int32)
    sides = layout.sides
    wanted = (mult > 0) & (sides > 0)
    sizes = np.where(wanted, sides ** 2, 0)
    base = (np.cumsum(sizes) - sizes.ravel()).reshape(sizes.shape)
    # per adapted vector: where its row starts in the buffer, and its column
    owner, part, index = layout.owner, layout.part, layout.index
    row_at = (base[owner, part] + index * sides[owner, part]).astype(np.int32)
    col_coef = layout.col_coef * np.where(layout.kind == 2, 2.0, 1.0)
    row, to_rep = basis.rep[src], basis.to_rep[src]
    sign = sign * basis.rep_sign[src]
    any_part = wanted.any(axis=1)
    filled = np.append(any_part[owner], False)  # the last one stands for -1: no state
    placed = wanted[owner, part]  # the stored block of each adapted vector is kept
    chi_complex = np.any(basis._chi.imag, axis=1)
    pos, values, weights = [], [], []
    for q in sorted(set(layout.q[any_part].tolist())):  # np.unique would import numpy.ma
        r, c = layout.bloch[q, row], layout.bloch[q, col]
        keep = filled[c] & (r >= 0)
        r, c, v = r[keep], c[keep], value[keep]
        z = sign[keep]
        if chi_complex[q]:
            z = z * basis._chi[q, to_rep[keep]]
        # the weights at (x1, y1), (x2, y1), (x1, y2), (x2, y2) for the adapted
        # vectors x of r and y of c: a, s_r b, -s_c b and s_r s_c a, from the
        # first one a and b = -i a, of which the real parts are kept
        a = layout.row_coef[r] * z * col_coef[c]
        a, b = a.real, a.imag
        s_r, s_c = layout.turn[r], layout.turn[c]
        w = np.concatenate([a, s_r * b, -s_c * b, s_r * s_c * a])
        x = np.tile(layout.vec[:, r].ravel(), 2)
        y = layout.vec[:, c].repeat(2, axis=0).ravel()
        keep = (w != 0) & (x >= y) & placed[x]  # the lower triangle, mirrored below
        if basis._neg[q] == q:  # k = -k: even and odd vectors do not mix
            keep &= part[x] == part[y]
        x, y, v, w = x[keep], y[keep], np.tile(v, 4)[keep], w[keep]
        pos.append(row_at[x] + index[y])
        values.append(v)
        weights.append(w)
        off = x != y  # the same values in the same order: exactly symmetric
        pos.append(row_at[y[off]] + index[x[off]])
        values.append(v[off])
        weights.append(w[off])
    kept = np.nonzero(wanted)
    blocks = [((*layout.labels[i], _PARTS[p]), at, n) for i, p, at, n in zip(
        *(a.tolist() for a in (*kept, base[kept], sides[kept])))]
    return _Plan(np.concatenate(pos), np.concatenate(values), np.concatenate(weights),
                 int(sizes.sum()), blocks,
                 {key: m for (key, _, _), m in zip(blocks, mult[kept].tolist())})


def _scatter(plan: _Plan, values: np.ndarray) -> dict:
    """The blocks {key: block} of the operator with these values, filled
    by one weighted bincount of the plan's placed values; the blocks are
    views of one buffer."""
    out = np.bincount(plan.pos, plan.weight * values[plan.value], minlength=plan.size)
    return {key: out[at:at + n * n].reshape(n, n) for key, at, n in plan.blocks}


def _site_plan(basis: FockBasis, blocking: str, H: _Sites) -> tuple:
    """The plan of the site data H under a blocking and the values that it
    scatters, after the symmetry checks of H (see ``FockOperator.from_sparse``).

    The plan is made once per basis, blocking and ``_Sites.pattern``; it
    keeps the number blocks of ``_spin_classes`` and the parity blocks of
    the k <-> -k classes, and the ``_Stack`` of its operators' spectra."""
    states = basis.inversion_reps
    values = H.values(basis, states)
    key = (blocking, H.pattern())
    plan = basis._plans.get(key)
    if plan is None:  # the key fixes the nonzero entries, so a kept plan has no leak
        layout = basis._sector_map(blocking)
        row, col, value, sign = entries = _entries(states, H.products(basis))
        _check_sectors(layout, blocking, row, col, sign, basis.inversion_rep)
        mult = _spin_classes(layout)[0] if blocking == NUMBER else _classes(layout, False)
        plan = _plan(basis, layout, entries, mult)
        lowest = basis._lowest_weights() if blocking == NUMBER else {}
        dims = {k: lowest[k].width if k in lowest else n for k, _, n in plan.blocks}
        plan = basis._plans[key] = plan._replace(stack=_stack(dims, plan.mult))
    H.check_symmetries(basis)
    return plan, values


class _LowestWeight(NamedTuple):
    """The map Q of a number block onto its lowest-weight states, by its
    nonzeros Q[rows, cols] = vals."""

    rows: np.ndarray  # int32
    cols: np.ndarray  # int32
    vals: np.ndarray  # float64
    width: int        # the number of columns

    def dense(self, n: int) -> np.ndarray:
        """Q as an (n, width) array."""
        Q = np.zeros((n, self.width))
        Q[self.rows, self.cols] = self.vals
        return Q

    def project(self, B: np.ndarray) -> np.ndarray:
        """Q^T B Q, through a dense Q made for this product alone."""
        Q = self.dense(len(B))
        return Q.T @ (B @ Q)


def _spin_classes(layout: _Blocks) -> tuple:
    """The multiplicities of the stored number blocks of site data, (blocks,
    3) as ``_classes``, and which of them have a partner (see
    ``_lowest_weight_maps``).

    Every H of site data commutes with total spin, so each spin-S multiplet
    of its eigenstates has one lowest-weight state, annihilated by S^-, in
    its block at 2 S_z = -2S.  The kept blocks are those at 2 S_z <= 0 that
    are the lowest of their class under k <-> -k; each eigenvalue of H on
    the lowest-weight states of a kept block counts (class size)(2S+1)
    times.  S^- maps the block (N, -2S, q, p) onto its partner
    (N, -2S-2, q, p), so dim - dim(partner) of its states are lowest
    weight, and a block with none is dropped.
    """
    two_sz = np.array([label[1] for label in layout.labels])
    index = {label: i for i, label in enumerate(layout.labels)}
    partner = np.array([index.get((N, m - 2, q), -1) for N, m, q in layout.labels])
    below = np.where(partner[:, None] >= 0, layout.sides[partner], 0)
    kept = (_classes(layout, True) > 0) & (layout.sides > below)
    return (np.where(kept, _classes(layout, False) * (1 - two_sz)[:, None], 0),
            kept & (below > 0))


def _lowest_weight_maps(basis: FockBasis) -> dict:
    """The map Q onto the lowest-weight states of every kept number block
    of site data that has a partner (``_spin_classes``); a block without
    one is all lowest weight and needs no Q.

    Q spans the eigenspace of S^2 = S^- S^+ + S_z^2 + S_z at S(S+1), its
    least eigenvalue in the block.  S^2 moves spins among the singly
    occupied sites only, so it keeps the pattern of holes and doublons of
    a state, and its block splits by the class of that pattern under the
    translations and the inversion (the inversion representative of the
    state with every single spin up).  The sub-blocks are diagonalized in
    batches of equal order, and Q is kept by its nonzeros.
    """
    layout = basis._sector_map(NUMBER)
    n = basis.n_sites
    partnered = _spin_classes(layout)[1]
    if not np.any(partnered):
        return {}
    # S^2 on the kept blocks with a partner, from one spin-exchange product
    # a^dag_{x,dn} a_{x,up} a^dag_{y,up} a_{y,dn} (x != y) and the diagonal
    x, y = np.nonzero(~np.eye(n, dtype=bool))
    exchange = ((basis.mode(x, DOWN), True), (basis.mode(x, UP), False),
                (basis.mode(y, UP), True), (basis.mode(y, DOWN), False))
    states = basis.inversion_reps
    up, down = basis.occ[states, :n], basis.occ[states, n:]
    s_z = 0.5 * (up.sum(axis=1) - down.sum(axis=1))
    values = np.concatenate([np.ones(len(x)), (down * (1 - up)).sum(axis=1) + s_z**2 + s_z])
    plan = _plan(basis, layout, _entries(states, [exchange]), partnered.astype(int))
    # the adapted vectors of these blocks, numbered block by block, in
    # groups of one block and pattern class: the sub-blocks of S^2
    keys, at, order = zip(*plan.blocks)
    at, order = np.array(at), np.array(order)
    start = np.cumsum(order) - order
    block = np.repeat(np.arange(len(keys)), order)
    reps = np.concatenate([layout.sectors[key] for key in keys])
    mask = (1 << n) - 1
    single, double = (reps | reps >> n) & mask, reps & reps >> n & mask
    pattern = basis.inversion_rep[single | double << n]
    by = np.lexsort((pattern, block))
    first = np.flatnonzero((np.diff(block[by], prepend=-1) != 0)
                           | (np.diff(pattern[by], prepend=-1) != 0))
    size = np.diff(first, append=len(by))
    group, slot = np.empty_like(by), np.empty_like(by)
    group[by] = np.repeat(np.arange(len(first)), size)
    slot[by] = np.arange(len(by)) - np.repeat(first, size)
    # the sub-blocks, stacked: a placed value at (u, v) of its block lands in
    # the group of u (that of v, as S^2 keeps the pattern)
    offset = np.cumsum(size**2) - size**2
    b = np.searchsorted(at, plan.pos, side="right") - 1
    u, v = np.divmod(plan.pos - at[b], order[b])
    u, v = u + start[b], v + start[b]
    stack = np.bincount(offset[group[u]] + slot[u] * size[group[u]] + slot[v],
                        plan.weight * values[plan.value], minlength=int(np.sum(size**2)))
    spin = -np.array([key[1] for key in keys]) / 2
    col_block, col_size, rows, vals = [], [], [], []
    for s in sorted(set(size.tolist())):
        groups = np.flatnonzero(size == s)
        w, V = np.linalg.eigh(stack[offset[groups, None] + np.arange(s * s)].reshape(-1, s, s))
        b = block[by[first[groups]]]
        # the eigenvalue S(S+1) is the least; the next, (S+1)(S+2), is 2S+2 above
        k, col = np.nonzero(w < (spin[b] * (spin[b] + 1) + 1)[:, None])
        members = by[first[groups[k], None] + np.arange(s)]
        col_block.append(b[k])
        col_size.append(np.full(len(k), s))
        rows.append((members - start[b[k], None]).ravel())
        vals.append(V[k, :, col].ravel())
    col_block, col_size = np.concatenate(col_block), np.concatenate(col_size)
    entry_block = np.repeat(col_block, col_size)
    # columns and entries by block; within one, columns keep their order
    by_col, by_entry = (np.argsort(a, kind="stable") for a in (col_block, entry_block))
    rows = np.concatenate(rows).astype(np.int32)[by_entry]
    vals = np.concatenate(vals)[by_entry]
    width = np.bincount(col_block, minlength=len(keys))
    first_col = np.repeat(np.cumsum(width) - width, width)
    cols = np.repeat(np.arange(len(col_block)) - first_col, col_size[by_col]).astype(np.int32)
    ends = np.cumsum(np.bincount(entry_block, minlength=len(keys)))
    return {key: _LowestWeight(rows[lo:hi], cols[lo:hi], vals[lo:hi], int(w))
            for key, lo, hi, w in zip(keys, ends - np.diff(ends, prepend=0), ends, width)}


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Sites:
    """Site data of a Hamiltonian of a box,

        H = sum_{x,y,s} t[x,y] a^dag_{x,s} a_{y,s} + sum_{x,y} v_plus[x,y] n_x n_y
            + sum_{x,y} pair_w[x,y] P^dag_y P_x + g sum_x (P^dag_x + P_x)

    with the real g = pair_field.  On-site terms are diagonal entries:
    t[x,x] sum_s n_{x,s} is a density term, and pair_w[x,x] P^dag_x P_x =
    n_{x,up} n_{x,dn} a double occupancy.  Every builder hands these to
    ``FockOperator.from_sparse``, which builds the entries of the
    representative columns only; ``matrix`` is the global matrix.
    """

    t: np.ndarray | None = None
    v_plus: np.ndarray | None = None
    pair_w: np.ndarray | None = None
    pair_field: float = 0.0

    def __post_init__(self):
        for name in ("t", "v_plus", "pair_w"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.asarray(getattr(self, name), float))

    def pattern(self) -> tuple:
        """The structure of the entries of H, without their values: which
        off-site entries of t and pair_w are nonzero (None for no matrix),
        and whether a pair field is present."""
        masks = (None if m is None else ((m != 0) & ~np.eye(len(m), dtype=bool)).tobytes()
                 for m in (self.t, self.pair_w))
        return (*masks, self.pair_field != 0.0)

    def _terms(self, basis: FockBasis) -> list:
        """The ladder products of H as (coef, ops) terms, ops as for
        ``_apply`` and one coefficient per product: the hops
        t[x,y] a^dag_{x,s} a_{y,s} and pair hops w[x,y] P^dag_y P_x with
        x != y, and the pair field.  Everything else is diagonal."""
        n = basis.n_sites
        off_site = ~np.eye(n, dtype=bool)
        terms = []
        t, w, g = self.t, self.pair_w, self.pair_field
        if t is not None:  # one product per (x, y) and spin
            x, y = np.nonzero(t * off_site)
            spins = np.array([UP, DOWN])
            hop = ((basis.mode(x[:, None], spins).ravel(), True),
                   (basis.mode(y[:, None], spins).ravel(), False))
            terms.append((np.repeat(t[x, y], 2), hop))
        if w is not None:
            x, y = np.nonzero(w * off_site)
            terms.append((w[x, y], _adjoint(_pair(basis, y)) + _pair(basis, x)))
        if g != 0.0:
            sites = np.arange(n)
            terms += [(np.full(n, g), _pair(basis, sites)),
                      (np.full(n, g), _adjoint(_pair(basis, sites)))]
        return terms

    def products(self, basis: FockBasis) -> list:
        """The ladder products of H, in the order of ``values``."""
        return [ops for _, ops in self._terms(basis)]

    def values(self, basis: FockBasis, states: np.ndarray) -> np.ndarray:
        """The coefficients of the products, then the diagonal of H in the
        columns ``states``: the on-site parts t[x,x] n_{x,s} and
        w[x,x] n_{x,up} n_{x,dn}, and the density-density term."""
        n = basis.n_sites
        occ = basis.occ[states]
        n_site = (occ[:, :n] + occ[:, n:]).astype(float)
        double = (occ[:, :n] * occ[:, n:]).astype(float)
        diag = np.zeros(len(states))
        if self.t is not None:
            diag = diag + n_site @ np.diag(self.t)
        if self.pair_w is not None:
            diag = diag + double @ np.diag(self.pair_w)
        if self.v_plus is not None:
            diag = diag + ((n_site @ self.v_plus) * n_site).sum(axis=1)
        return np.concatenate([coef for coef, _ in self._terms(basis)] + [diag])

    def matrix(self, basis: FockBasis) -> sp.coo_matrix:
        """H on every column of the basis, as one COO matrix."""
        import scipy.sparse as sp

        states = np.arange(basis.dim)
        row, col, value, sign = _entries(states, self.products(basis))
        data = self.values(basis, states)[value] * sign
        return sp.coo_matrix((data, (row, col)), shape=(basis.dim, basis.dim))

    def check_symmetries(self, basis: FockBasis) -> None:
        """Raise KaclabError unless H is invariant under every unit
        translation and the inversion of the basis, checked on the site
        matrices.

        U H U^dag, for the relabelling U of the sites by one of these
        permutations, is H with t, v_plus and pair_w moved along the sites
        (the pair field is uniform).  An off-diagonal entry of U H U^dag - H
        is one off-site difference of t or w; a diagonal entry sums those of
        t[x,x] n_x, v[x,y] n_x n_y and w[x,x] n_{x,up} n_{x,dn}, with
        n_x <= 2.  So the weighted sum of differences below bounds the defect
        of the global check.  Its tolerance, 1e-12 max(1, largest off-site
        |t| or |w|), is at most that of the global check, as these are
        entries of H: every H that the global check rejects is rejected here.
        """
        tol = self._tolerance()
        _check_invariance(map(self._defect, basis.site_shifts), tol, TRANSLATIONS)
        if basis.site_inversion is not None:
            _check_invariance([self._defect(basis.site_inversion)], tol, INVERSION)

    def _defect(self, site: np.ndarray) -> float:
        """Bound on max |U H U^dag - H| for the site permutation x -> site[x]."""
        n = len(site)
        weighted = [(m, weight) for m, weight in
                    ((self.t, 1.0 + np.eye(n)), (self.pair_w, 1.0), (self.v_plus, 4.0))
                    if m is not None]
        return sum(float(np.sum(weight * np.abs(m[np.ix_(site, site)] - m)))
                   for m, weight in weighted)

    def _tolerance(self) -> float:
        """1e-12 max(1, largest off-site |t| or |w|)."""
        scale = max((float(np.max(np.abs(m - np.diag(np.diag(m))), initial=0.0))
                     for m in (self.t, self.pair_w) if m is not None), default=0.0)
        return 1e-12 * max(1.0, scale)


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
    basis = _box_basis(box, dimension_cap)
    return FockOperator.from_sparse(basis, _kac_sites(mp, box), NUMBER)


def _kac_sites(mp: ModelParams, box: LatticeBox) -> _Sites:
    """Site data of the Kac Hamiltonian of the box; with
    include_onsite_correction, f(0) from ``eval`` on the diagonals."""
    t = hopping_matrix(mp.hopping, box)
    v_plus = kac_coupling_matrix(mp.f_plus, mp.gamma_plus, box) if mp.f_plus else None
    pair_w = -kac_coupling_matrix(mp.f_minus, mp.gamma_minus, box) if mp.f_minus else None
    if mp.include_onsite_correction:
        d, eye = box.d, np.eye(box.n_sites)
        if mp.f_plus is not None:
            t = t - 0.5 * mp.gamma_plus**d * float(mp.f_plus.eval(np.zeros(d))) * eye
        if mp.f_minus is not None:
            pair_w = pair_w + 0.5 * mp.gamma_minus**d * float(mp.f_minus.eval(np.zeros(d))) * eye
    return _Sites(t=t, v_plus=v_plus, pair_w=pair_w)


def build_meanfield_hamiltonian(mf: MeanFieldParams, box: LatticeBox,
                                dimension_cap: int = DEFAULT_DIMENSION_CAP) -> FockOperator:
    """H = T + (eta_+/|box|) sum nn - (eta_-/|box|) sum P^dag P; conserves N."""
    basis = _box_basis(box, dimension_cap)
    return FockOperator.from_sparse(basis, _meanfield_sites(mf, box), NUMBER)


def _meanfield_sites(mf: MeanFieldParams, box: LatticeBox) -> _Sites:
    """Site data of the mean-field Hamiltonian of the box."""
    n = box.n_sites
    t = hopping_matrix(mf.hopping, box)
    v_plus = np.full((n, n), mf.eta_plus / n) if mf.eta_plus else None
    pair_w = np.full((n, n), -mf.eta_minus / n) if mf.eta_minus else None
    return _Sites(t=t, v_plus=v_plus, pair_w=pair_w)


def build_approximating_hamiltonian(mf: MeanFieldParams, c_minus: complex,
                                    c_plus: complex, box: LatticeBox,
                                    dimension_cap: int = DEFAULT_DIMENSION_CAP) -> FockOperator:
    """Quadratic approximant of the mean-field model at strategies (c-, c+).

    H(c_-) = T + sqrt(eta_+)(conj(c_+) + c_+) sum_x,s n_{x,s}
               - sqrt(eta_-) sum_x (conj(c_-) P^dag_x + c_- P_x),
    which only conserves fermion parity.  It is built gauge-fixed, at |c_-|
    and Re c_+: the phase rotation U = exp(-i arg(c_-) N_up) takes
    U P_x U^dag = e^{i arg c_-} P_x, so H(c_-) = U H(|c_-|) U^dag.  Spectrum,
    pressure, density and energy are those of the real H(|c_-|), and the
    pair amplitude <P_x> is e^{-i arg c_-} times its value there: the
    operator keeps that phase as ``pair_phase`` for ``gibbs_observables``.
    """
    basis = _box_basis(box, dimension_cap)
    op = FockOperator.from_sparse(basis, _approximating_sites(mf, c_minus, c_plus, box), PARITY)
    op.pair_phase = np.conj(c_minus) / abs(c_minus) if c_minus else 1.0
    return op


def _approximating_sites(mf: MeanFieldParams, c_minus: complex, c_plus: complex,
                         box: LatticeBox) -> _Sites:
    """Site data of the gauge-fixed approximating Hamiltonian H(|c_-|) of the box."""
    shift, g = mf.approximating_fields(abs(c_minus), c_plus)
    return _Sites(t=hopping_matrix(mf.hopping, box) + shift * np.eye(box.n_sites),
                  pair_field=-g.real)


# ---------------------------------------------------------------------------
# thermodynamics
# ---------------------------------------------------------------------------


def _boltzmann(beta: float, w: np.ndarray, mult: np.ndarray) -> tuple:
    """ln Tr exp(-beta H), and the Gibbs weights mult exp(-beta w) / Tr
    exp(-beta H) of the eigenvalues w of H, each counted mult times,
    summed relative to the ground energy."""
    if beta <= 0:
        raise ConfigError("beta must be positive")
    e0 = w.min()
    weights = mult * np.exp(-beta * (w - e0))
    Z = weights.sum()
    return np.log(Z) - beta * e0, weights / Z


def pressure(op: FockOperator, beta: float) -> float:
    """(1/(beta |box|)) ln Tr exp(-beta H), summed over the kept blocks."""
    op.eigensystem()  # the spectra, kept concatenated by _spectra
    w, stack = op._spectra()
    log_trace, _ = _boltzmann(beta, w, stack.mult)
    return float(log_trace) / (beta * op.basis.n_sites)


def _diagonals(plan: _Plan, values: np.ndarray, eig: dict) -> dict:
    """diag(U^T A U) for the eigenvectors U of every stored block, as
    ``eig`` holds them, of the symmetric operator A of the plan and values,
    from its nonzeros alone: A[i, j] adds A[i, j] U[i] U[j], and one in the
    lower triangle (i > j) stands for its mirror image too.  The rows of
    an (n, n) U are gathered n/8 at a time."""
    at, order = (np.array(a) for a in list(zip(*plan.blocks))[1:])
    pos, index = np.unique(plan.pos, return_inverse=True)  # block by block
    a = np.bincount(index, plan.weight * values[plan.value])
    block = np.searchsorted(at, pos, side="right") - 1
    i, j = np.divmod(pos - at[block], order[block])
    lower = i >= j
    a, i, j = np.where(i > j, 2 * a, a)[lower], i[lower], j[lower]
    ends = np.cumsum(np.bincount(block[lower], minlength=len(at)))
    out = {}
    for (key, _, n), lo, hi in zip(plan.blocks, ends - np.diff(ends, prepend=0), ends):
        U, step = eig[key][1], max(1, n // 8)
        out[key] = np.zeros(n)
        for s in range(lo, hi, step):
            cut = slice(s, min(s + step, hi))
            out[key] += a[cut] @ (U[i[cut]] * U[j[cut]])
    return out


def gibbs_observables(op: FockOperator, beta: float) -> GibbsObservables:
    """Thermal expectations of density and pair amplitude, plus pressure.

    The pair amplitude <a_down a_up> per site vanishes identically for
    number-conserving operators (superselection) and is returned as exact
    zero in that case.  Number sectors need no eigenvectors: every
    eigenstate of block (N, 2 S_z, q, p) holds N fermions.  Each block
    counts with its multiplicity.  Under parity blocking,
    (1/n) sum_x P_x = A + i B with the Hermitian pair fields
    A = (1/2n) sum_x (P_x + P^dag_x) and B = (i/2n) sum_x (P^dag_x - P_x).
    H is real, so its Gibbs state is real and <B> = 0; A is the site data
    of the pair field 1/(2n), whose blocks have the keys of H's, and its
    diagonal in each eigenbasis comes from its nonzeros (``_diagonals``).
    The amplitude is ``op.pair_phase`` <A>.
    """
    basis = op.basis
    n = basis.n_sites
    parity = op.blocking == PARITY
    eig = op.eigensystem(vectors=parity)
    if parity:
        stack = _stack({key: len(w) for key, (w, _) in eig.items()}, op.mult)
        w = np.concatenate([eig[key][0] for key, _, _ in stack.slices])
    else:
        w, stack = op._spectra()  # eig's spectra, concatenated
    log_trace, p = _boltzmann(beta, w, stack.mult)
    energy, pair = float(p @ w), 0.0
    if not parity:  # every eigenstate of block (N, 2 S_z, q, p) holds N fermions
        density = float(p @ stack.charge)
    else:
        weights = {key: p[at:at + size] for key, at, size in stack.slices}
        sectors = basis.sectors(PARITY)
        # <N> in each eigenstate: a Bloch state holds the particle number of its representative
        density = sum(float(weights[key] @ np.einsum(
            "si,s,si->i", U, basis.n_tot[sectors[key]].astype(float), U))
            for key, (_, U) in eig.items())
        field = _diagonals(*_site_plan(basis, PARITY, _Sites(pair_field=1 / (2 * n))), eig)
        pair = op.pair_phase * sum(float(weights[key] @ a) for key, a in field.items())
    density /= n
    if not (-1e-9 <= density <= 2.0 + 1e-9) or abs(pair) > 1.0 + 1e-9:
        raise KaclabError(
            f"Gibbs expectations out of range: density={density}, |pair|={abs(pair)}"
        )
    return GibbsObservables(
        pressure=float(log_trace) / (beta * n),
        density=density,
        pair_amplitude=complex(pair),
        energy_per_site=energy / n,
    )


def car_max_violation(basis: FockBasis) -> float:
    """Largest entrywise violation of the anticommutation relations.

    Checks {a_p, a_q} = 0 and {a_p, a^dag_q} = delta_pq over all mode
    pairs; exact zero is expected from the bitstring construction.
    """
    import scipy.sparse as sp

    a = [basis.annihilator(m) for m in range(basis.n_modes)]
    eye = sp.identity(basis.dim, format="csr")
    worst = 0.0
    for p in range(basis.n_modes):
        for q in range(p, basis.n_modes):
            anti = a[p] @ a[q] + a[q] @ a[p]
            mixed = a[p] @ a[q].T + a[q].T @ a[p] - (p == q) * eye
            worst = max(worst, float(abs(anti).max()), float(abs(mixed).max()))
    return worst
