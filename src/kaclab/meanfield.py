"""Exact pressure of the mean-field Hamiltonian of a box, open or periodic,
from small hard-core pair problems instead of the Fock space.

Let eps_j and the real orthonormal phi_j be the eigenvalues and
eigenvectors of the box's site matrix t = `lattice.hopping_matrix`, the
one the ED builders read, and a_{j,s} = sum_x phi_j(x) a_{x,s}.  Then

    H_mf = sum_{j,s} eps_j n_{j,s} + (eta_+/n) N^2 - (eta_-/n) P^dag P,
    P = sum_x a_{x,dn} a_{x,up} = sum_j b_j,  b_j = a_{j,dn} a_{j,up},

the reduced BCS Hamiltonian plus a function of N (Richardson, Phys.
Lett. 3, 277 (1963); Dukelsky, Pittel and Sierra, Rev. Mod. Phys. 76,
643 (2004)).  Each level j is one pair mode: either it is blocked, with
one fermion in it, which no b or b^dag moves, or it holds 0 or 1
hard-core pair.  So for each blocked set B (weight prod_{j in B}
2 e^{-beta eps_j}) and pair number M, H_mf acts on the M-pair states of
the unblocked levels U as

    sum_{j in S} 2 eps_j - (eta_-/n) sum_{j,j' in U} b^dag_j b_j'
    + (eta_+/n) (2M + |B|)^2,

a matrix of order C(|U|, M).  All of them together span the 4^n states;
at 7 sites the largest has order 35 and Sum dim^3 over all is 2.7e5,
against 1.4e7 for the 158 number blocks of Fock-space ED (`fock`).  The
matrices of one (|U|, M) share their off-diagonal part and are
diagonalized in one stacked ``eigvalsh``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, KaclabError
from .lattice import (DEFAULT_DIMENSION_CAP, LatticeBox, MeanFieldParams, check_fock_dimension,
                      hopping_matrix)

__all__ = ["pressure_and_density"]


def pressure_and_density(mf: MeanFieldParams, box: LatticeBox,
                         dimension_cap: int = DEFAULT_DIMENSION_CAP) -> tuple[float, float]:
    """(1/(beta n)) ln Tr exp(-beta H_mf) and <N>/n on the box, from the
    levels of its hopping matrix.

    Equals ``build_meanfield_hamiltonian`` with ``gibbs_observables`` to
    rounding.  CapacityError if 4^n exceeds the cap, as for ED; KaclabError
    if the density leaves [0, 2].
    """
    if mf.hopping.d != box.d:
        raise ConfigError("hopping kernel dimension differs from box dimension")
    n = box.n_sites
    check_fock_dimension(n, dimension_cap)
    beta, hop = mf.beta, mf.eta_minus / n
    eps = np.linalg.eigvalsh(hopping_matrix(mf.hopping, box))
    single = np.log(2.0) - beta * eps  # log weight of a blocked level
    subsets = (np.arange(2**n)[:, None] >> np.arange(n)) & 1  # as rows of 0/1
    size = subsets.sum(axis=1)
    logs, numbers = [], []
    for u in range(n + 1):
        sets = subsets[size == n - u].astype(bool)  # the blocked sets B with |U| = u
        levels = 2 * eps[np.nonzero(~sets)[1].reshape(len(sets), u)]  # (sets, u), by level
        log_blocked = sets @ single
        for M in range(u + 1):
            occ = subsets[:2**u, :u][size[:2**u] == M]  # the M-pair states of U
            w = levels @ occ.T  # their pair energies, (sets, C(u, M))
            if hop and len(occ) > 1:  # b^dag_j b_j' joins the states that differ by one pair
                H = -hop * (occ @ occ.T == M - 1) + w[:, :, None] * np.eye(len(occ))
                w = np.linalg.eigvalsh(H)
            N = 2 * M + n - u
            logs.append(log_blocked[:, None] - beta * (w + mf.eta_plus / n * N**2 - hop * M))
            numbers.append(np.full(w.size, N))
    logs = np.concatenate([x.ravel() for x in logs])
    top = logs.max()
    weight = np.exp(logs - top)
    Z = weight.sum()
    density = float(weight @ np.concatenate(numbers)) / (Z * n)
    if not -1e-9 <= density <= 2.0 + 1e-9:
        raise KaclabError(f"Gibbs expectations out of range: density={density}")
    return float(top + np.log(Z)) / (beta * n), density
