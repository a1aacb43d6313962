"""Exact diagonalization: CAR algebra, spectra, traces, Gibbs observables.

The independent oracle for many-body matrices is an explicit
Kronecker-product construction (Pauli-string style), built without any of
the package's Jordan-Wigner machinery.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag
from scipy.special import logsumexp

from kaclab import fock
from kaclab.errors import CapacityError, ConfigError, KaclabError
from kaclab.fock import (
    FockBasis,
    FockOperator,
    GibbsObservables,
    _approximating_sites,
    _kac_sites,
    _meanfield_sites,
    _Sites,
    build_approximating_hamiltonian,
    build_kac_hamiltonian,
    build_meanfield_hamiltonian,
    car_max_violation,
    gibbs_observables,
    pressure,
)
from kaclab.lattice import (
    HoppingKernel,
    LatticeBox,
    MeanFieldParams,
    ModelParams,
    discrete_laplacian,
    dispersion,
    hopping_matrix,
    kac_coupling_matrix,
)
from kaclab.potentials import GaussianMixture, PlainGaussian
from kaclab.quasifree import QuadratureSpec, bz_gibbs_expectations, finite_grid_pressure


def kron_modes(n_modes):
    """Oracle annihilators via explicit Kronecker strings.

    Mode m acts on tensor factor m; parity strings F on the earlier
    factors reproduce fermionic statistics.  np.kron makes factor 0 the
    most significant bit of the row index, while the packaged basis keeps
    mode m in bit m, so rows and columns are relabeled by bit reversal:
    index s of every returned matrix is packaged basis state s.
    """
    a = np.array([[0.0, 1.0], [0.0, 0.0]])  # annihilates the occupied state
    f = np.diag([1.0, -1.0])
    eye = np.eye(2)
    reverse = [int(format(s, f"0{n_modes}b")[::-1], 2) for s in range(2**n_modes)]
    ops = []
    for m in range(n_modes):
        factors = [f] * m + [a] + [eye] * (n_modes - m - 1)
        out = factors[0]
        for fac in factors[1:]:
            out = np.kron(out, fac)
        ops.append(out[np.ix_(reverse, reverse)])
    return ops


def oracle_hamiltonian(n, t, v_plus, pair_w, density_onebody=0.0, double_occ=0.0,
                       pair_field=0.0):
    """Dense H of the assembly formula from Kronecker-string operators.

    sum t[x,y] a^dag_{x,s} a_{y,s} + sum v_plus[x,y] n_x n_y
    + sum pair_w[x,y] P^dag_y P_x + density_onebody sum n
    + double_occ sum n_up n_dn + sum (conj(g) P^dag_x + g P_x),
    with spin-up modes 0..n-1 and spin-down modes n..2n-1.  Products are
    taken in sparse form only for speed.
    """
    a = [sp.csr_matrix(m) for m in kron_modes(2 * n)]
    num = [m.T @ m for m in a]
    n_site = [num[x] + num[n + x] for x in range(n)]
    pairs = [a[n + x] @ a[x] for x in range(n)]
    g = complex(pair_field)
    H = sp.csr_matrix((4**n, 4**n), dtype=complex)
    for x in range(n):
        for y in range(n):
            H += t[x, y] * (a[x].T @ a[y] + a[n + x].T @ a[n + y])
            H += v_plus[x, y] * (n_site[x] @ n_site[y])
            H += pair_w[x, y] * (pairs[y].T @ pairs[x])
        H += density_onebody * n_site[x] + double_occ * (num[x] @ num[n + x])
        H += np.conj(g) * pairs[x].T + g * pairs[x]
    return H.toarray()


def kronecker_gibbs(H, beta, n):
    """Pressure, density, pair amplitude (1/n) sum_x <a_{x,down} a_{x,up}>
    and energy per site of the dense, parity-conserving H, and its sorted
    spectrum: diagonalized by numpy alone in its even and odd sectors, with
    the number and pair operators of ``kron_modes``."""
    a = [sp.csr_matrix(m) for m in kron_modes(2 * n)]
    number = sum(m.T @ m for m in a).diagonal()  # diagonal in the occupation basis
    pair = sum(a[n + x] @ a[x] for x in range(n)) / n
    even, odd = (np.flatnonzero(number % 2 == b) for b in (0, 1))
    assert not np.any(H[np.ix_(even, odd)])
    w, U = np.zeros(len(H)), np.zeros(H.shape, complex)
    for idx in (even, odd):
        w[idx], U[np.ix_(idx, idx)] = np.linalg.eigh(H[np.ix_(idx, idx)])
    p = np.exp(-beta * (w - w.min()))
    p /= p.sum()
    density = float(p @ (np.abs(U) ** 2).T @ number) / n
    pair_amplitude = p @ np.sum(U.conj() * (pair @ U), axis=0)
    return GibbsObservables(float(logsumexp(-beta * w)) / (beta * n), density, pair_amplitude,
                            float(p @ w) / n), np.sort(w)


def pair_sum(basis):
    """sum_x P_x = sum_x a_{x,down} a_{x,up}, from the annihilators of the basis."""
    return sum(basis.annihilator(basis.mode(x, 1)) @ basis.annihilator(basis.mode(x, 0))
               for x in range(basis.n_sites))


def site_permutation_operator(n_sites, site_map):
    """The relabelling x -> site_map[x] of the sites of a chain, as a
    sparse matrix.

    Defined by U a^dag_{x,s} U^dag = a^dag_{site_map[x],s} and U|0> = |0>:
    the product of creators of every occupation pattern, with each mode
    relabeled, is built from the Kronecker-string operators alone.
    """
    n_modes = 2 * n_sites
    create = [sp.csr_matrix(m.T) for m in kron_modes(n_modes)]
    image = [site_map[m % n_sites] + (m // n_sites) * n_sites for m in range(n_modes)]
    vacuum = np.zeros(2**n_modes)
    vacuum[0] = 1.0

    def filled(modes):
        v = vacuum
        for m in reversed(modes):
            v = create[m] @ v
        return v

    patterns = [[m for m in range(n_modes) if s >> m & 1] for s in range(2**n_modes)]
    before = sp.csr_matrix(np.column_stack([filled(p) for p in patterns]))
    after = sp.csr_matrix(np.column_stack([filled([image[m] for m in p]) for p in patterns]))
    return after @ before.T  # before is a signed permutation


def translation_operator(n_sites):
    """Unit translation x -> x+1 (mod n_sites) of a periodic chain."""
    return site_permutation_operator(n_sites, (np.arange(n_sites) + 1) % n_sites)


@functools.cache
def inversion_operator(n_sites):
    """Inversion x -> -x of the chain {-L..L}, sites in ascending order."""
    return site_permutation_operator(n_sites, np.arange(n_sites)[::-1])


def signed_image(U):
    """Image of every basis state under a signed permutation matrix U."""
    return np.asarray(abs(U).argmax(axis=0)).ravel()


def theta_coefficients(op, key, reps, states, phases, partner):
    """Coefficients, on the Bloch states |s, k> of ``states``, of the basis
    vectors of the Theta-adapted block ``key`` of ``op``; ``phases[j, i]``
    is <s_j, k| Theta |s_i, k> for Theta = I K.

    A representative r with partner rep(I r) = r gives theta |r, k>, with
    theta^2 the phase phi of Theta |r, k> = phi |r, k>; Theta fixes theta
    only up to sign, which is taken from the operator's basis (whose
    column weight of r is theta N_r^{-1/2}).  A pair
    r < r' = rep(I r), with Theta |r, k> = phi |r', k>, gives
    u = (|r, k> + phi |r', k>)/sqrt 2 at r and v = i (|r, k> - phi |r', k>)/sqrt 2
    at r'."""
    layout = op.basis._sector_map(op.blocking)
    at = {int(s): j for j, s in enumerate(states)}
    C = np.zeros((len(states), len(reps)), dtype=complex)
    for col, r in enumerate(map(int, reps)):
        low, high = sorted((at[r], at[int(partner[r])]))
        phi = phases[high, low]
        if low == high:
            theta = layout.col_coef[layout.bloch[key[-2], r]] * math.sqrt(
                op.basis.bloch_norm[key[-2], r])
            assert abs(theta**2 - phi) <= 1e-12
            C[low, col] = theta
        elif at[r] == low:
            C[[low, high], col] = np.array([1.0, phi]) / math.sqrt(2)
        else:
            C[[low, high], col] = 1j * np.array([1.0, -phi]) / math.sqrt(2)
    return C


def assert_blocks_match(op, oracle, translation=None):
    """V^dag H V for the oracle H is block diagonal with the operator's
    blocks.  The columns of V are the blocks' basis vectors: combinations,
    by ``theta_coefficients``, of the Bloch states
    sum_h exp(-i k h) T^h |r> / norm, from the unit translation T of
    ``translation_operator`` (without one, the plain sector states), with
    the inversion of ``inversion_operator`` (the identity on a bare site
    count).  V must be unitary."""
    dim = oracle.shape[0]
    n = op.basis.n_sites
    eye = sp.identity(dim, format="csr")
    steps = 1 if translation is None else n
    inversion = eye if op.basis.inversion is None else inversion_operator(n)
    orbit = [np.arange(dim)]
    for _ in range(steps - 1):
        orbit.append(signed_image(translation)[orbit[-1]])
    partner = np.min(orbit, axis=0)[signed_image(inversion)]
    sectors = op.basis.sectors(op.blocking)
    columns = []
    for key, reps in sectors.items():
        k = float(op.basis.momenta[key[-2]][0])
        states = np.unique(np.concatenate([reps, partner[reps]]))
        vec = sp.csr_matrix((dim, len(states)), dtype=complex)
        moved = eye[:, states]
        for h in range(steps):
            vec = vec + np.exp(-1j * k * h) * moved
            moved = translation @ moved if translation is not None else moved
        vec = vec @ sp.diags(1.0 / np.sqrt(np.asarray(abs(vec).power(2).sum(axis=0))).ravel())
        phases = (vec.conj().T @ inversion @ vec.conj()).toarray()
        vec = vec @ sp.csr_matrix(theta_coefficients(op, key, reps, states, phases, partner))
        columns.append(vec)
    V = sp.hstack(columns, format="csr")
    assert V.shape == (dim, dim)
    assert abs(V.conj().T @ V - eye).max() <= 1e-12
    blocked = V.conj().T @ oracle @ V
    spans = dict(zip(sectors, (slice(a, a + len(r)) for a, r in zip(
        np.cumsum([0, *map(len, sectors.values())]), sectors.values()))))
    outside = 1 - block_diag(*(np.ones((len(r), len(r))) for r in sectors.values()))
    assert np.max(np.abs(blocked * outside)) <= 1e-12
    for key, B in op.blocks.items():
        assert np.max(np.abs(blocked[spans[key], spans[key]] - B)) <= 1e-12
    # the blocks left out share the spectra of the kept ones
    spectra = np.sort(np.concatenate([np.linalg.eigvalsh(blocked[s, s]) for s in spans.values()]))
    assert np.max(np.abs(op.eigenvalues() - spectra)) <= 1e-12


def zero_kernel(d=1):
    return HoppingKernel({tuple([0] * d): 0.0}, d)


# -- CAR and basis bookkeeping -------------------------------------------------


def test_car_relations_two_sites():
    assert car_max_violation(FockBasis(2)) <= 1e-14


def test_sector_completeness():
    for n in (1, 2, 3):
        basis = FockBasis(n)
        for blocking in ("number", "parity"):
            dims = sum(len(v) for v in basis.sectors(blocking).values())
            assert dims == 4**n


def test_capacity_cap():
    with pytest.raises(CapacityError):
        FockBasis(9)
    with pytest.raises(CapacityError):
        build_kac_hamiltonian(
            ModelParams(beta=1.0, hopping=zero_kernel(), f_plus=None, f_minus=None),
            LatticeBox(1, 2, "open"),
            dimension_cap=64,
        )


def test_block_leak_detection():
    # a pairing operator does not conserve particle number
    basis = FockBasis(1)
    H = _Sites(pair_field=1.0).matrix(basis)
    with pytest.raises(KaclabError):
        FockOperator.from_sparse(basis, H, "number")


# -- spectra of the builder examples ----------------------------------------------


def test_kac_hamiltonian_all_couplings_zero_is_zero_operator():
    mp = ModelParams(beta=1.0, hopping=zero_kernel(), f_plus=None, f_minus=None)
    op = build_kac_hamiltonian(mp, LatticeBox(1, 0, "open"))
    assert np.all(op.eigenvalues() == 0.0)


def test_approximating_at_origin_equals_hopping_only():
    mf = MeanFieldParams(beta=1.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=1.0)
    box = LatticeBox(1, 1, "periodic")
    op = build_approximating_hamiltonian(mf, 0.0, 0.0, box)
    free = build_meanfield_hamiltonian(
        MeanFieldParams(beta=1.0, hopping=discrete_laplacian(1)), box
    )
    assert np.allclose(op.eigenvalues(), free.eigenvalues(), atol=1e-14)


def test_single_site_chemical_potential_spectrum():
    mu = 0.7
    mf = MeanFieldParams(beta=1.0, hopping=HoppingKernel({(0,): mu}, 1))
    op = build_meanfield_hamiltonian(mf, LatticeBox(1, 0, "open"))
    assert np.allclose(op.eigenvalues(), [0.0, mu, mu, 2 * mu], atol=1e-14)


def test_single_site_density_repulsion_spectrum():
    eta = 0.9
    mf = MeanFieldParams(beta=1.0, hopping=zero_kernel(), eta_plus=eta)
    op = build_meanfield_hamiltonian(mf, LatticeBox(1, 0, "open"))
    assert np.allclose(op.eigenvalues(), [0.0, eta, eta, 4 * eta], atol=1e-14)


def test_single_site_pair_attraction_spectrum():
    eta = 0.6
    mf = MeanFieldParams(beta=1.0, hopping=zero_kernel(), eta_minus=eta)
    op = build_meanfield_hamiltonian(mf, LatticeBox(1, 0, "open"))
    # doubly occupied state carries -eta; the rest are untouched
    assert np.allclose(op.eigenvalues(), [-eta, 0.0, 0.0, 0.0], atol=1e-14)


def test_single_site_approximating_spectrum():
    mf = MeanFieldParams(beta=1.0, hopping=zero_kernel(), eta_minus=1.0)
    op = build_approximating_hamiltonian(mf, 1.0, 0.0, LatticeBox(1, 0, "open"))
    assert np.allclose(op.eigenvalues(), [-1.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_approximating_gauge_rotation_spectrum():
    mf = MeanFieldParams(beta=1.0, hopping=zero_kernel(), eta_minus=1.0)
    box = LatticeBox(1, 0, "open")
    op_real = build_approximating_hamiltonian(mf, 1.0, 0.0, box)
    op_imag = build_approximating_hamiltonian(mf, 1.0j, 0.0, box)
    assert np.allclose(op_real.eigenvalues(), op_imag.eigenvalues(), atol=1e-14)


def test_two_site_hopping_one_particle_ground_state():
    # bare 2-site chain, hopping -1: N=1 sector ground energy is -1 per spin
    basis = FockBasis(2)
    t = np.array([[0.0, -1.0], [-1.0, 0.0]])
    op = FockOperator.from_sparse(basis, _Sites(t=t).matrix(basis), "number")
    n1 = np.concatenate([
        np.linalg.eigvalsh(B)
        for key, B in op.blocks.items()
        if key[0] == 1
    ])
    assert n1.min() == pytest.approx(-1.0, abs=1e-14)


def test_hermiticity_of_assembled_hamiltonians():
    lap = discrete_laplacian(1)
    gauss = PlainGaussian(1.0, d=1)
    mix = GaussianMixture([(0.5, (2.0,))], d=1)
    box = LatticeBox(1, 1, "periodic")
    mp = ModelParams(beta=1.0, hopping=lap, f_plus=gauss, f_minus=mix,
                     gamma_plus=0.4, gamma_minus=0.3)
    mf = MeanFieldParams(beta=1.0, hopping=lap, eta_plus=1.0, eta_minus=0.5)
    ops = [
        build_kac_hamiltonian(mp, box),
        build_meanfield_hamiltonian(mf, box),
        build_approximating_hamiltonian(mf, 0.3 * np.exp(0.7j), 0.2, box),
    ]
    for op in ops:  # the complex-c_- approximant too: it is built gauge-fixed
        assert_theta_real(op)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("L", [0, 1, 2])
def test_blocks_match_kronecker_oracle(L, boundary):
    rng = np.random.default_rng(7 + 10 * L + (boundary == "periodic"))
    box = LatticeBox(1, L, boundary)
    n = box.n_sites
    zero = np.zeros((n, n))

    def symmetric():
        m = rng.normal(size=(n, n))
        return m + m.T

    # every assembly term at once, with a pair field: parity blocks
    t, v, w = symmetric(), symmetric(), symmetric()
    kw = dict(density_onebody=rng.normal(), double_occ=rng.normal(),
              pair_field=abs(complex(rng.normal(), rng.normal())))
    basis = FockBasis(n)
    # the site data hold the on-site terms on the diagonals of t and pair_w
    H = _Sites(t=t + kw["density_onebody"] * np.eye(n), v_plus=v,
               pair_w=w + kw["double_occ"] * np.eye(n), pair_field=kw["pair_field"]).matrix(basis)
    op = FockOperator.from_sparse(basis, H, "parity")
    assert_blocks_match(op, oracle_hamiltonian(n, t, v, w, **kw))

    h0, h1, h2 = rng.normal(size=3)
    hop = HoppingKernel({(0,): h0, (1,): h1, (-1,): h1, (2,): h2, (-2,): h2}, 1)
    T = hopping_matrix(hop, box)
    translation = translation_operator(n) if boundary == "periodic" else None
    f_plus = PlainGaussian(rng.uniform(0.5, 2.0), d=1)
    f_minus = GaussianMixture([(rng.uniform(0.2, 1.0), (rng.uniform(0.5, 3.0),))],
                              d=1)
    g_plus, g_minus = rng.uniform(0.2, 0.8, size=2)
    mp = ModelParams(beta=1.0, hopping=hop, f_plus=f_plus, f_minus=f_minus,
                     gamma_plus=g_plus, gamma_minus=g_minus, include_onsite_correction=True)
    onsite = dict(density_onebody=-0.5 * g_plus * float(f_plus.eval(np.zeros(1))),
                  double_occ=0.5 * g_minus * float(f_minus.eval(np.zeros(1))))
    assert_blocks_match(
        build_kac_hamiltonian(mp, box),
        oracle_hamiltonian(n, T, kac_coupling_matrix(f_plus, g_plus, box),
                           -kac_coupling_matrix(f_minus, g_minus, box), **onsite),
        translation,
    )

    e_plus, e_minus = rng.uniform(0.1, 2.0, size=2)
    mf = MeanFieldParams(beta=1.0, hopping=hop, eta_plus=e_plus, eta_minus=e_minus)
    assert_blocks_match(
        build_meanfield_hamiltonian(mf, box),
        oracle_hamiltonian(n, T, np.full((n, n), e_plus / n), np.full((n, n), -e_minus / n)),
        translation,
    )

    c_minus = complex(*rng.normal(size=2))
    c_plus = complex(*rng.normal(size=2))

    def approximating_oracle(c):
        return oracle_hamiltonian(n, T, zero, zero,
                                  density_onebody=2 * math.sqrt(e_plus) * c_plus.real,
                                  pair_field=-math.sqrt(e_minus) * c)

    for c in (c_minus.real, c_minus):  # the blocks are those of the gauge-fixed H(|c|)
        op = build_approximating_hamiltonian(mf, c, c_plus, box)
        assert_theta_real(op)
        assert_blocks_match(op, approximating_oracle(abs(c)), translation)
    # the last build, at c_-, has the Gibbs observables of H(c_-), the amplitude rotated
    want, _ = kronecker_gibbs(approximating_oracle(c_minus), 1.0, n)
    assert_gibbs_match(gibbs_observables(op, 1.0), want)


@pytest.mark.parametrize("L", [0, 1, 2, 3])
def test_momentum_spectra_match_trivial_group(L):
    # one COO matrix per Hamiltonian, blocked by (charges, k) on the periodic
    # basis and by charges alone on a bare-count basis of the same size
    rng = np.random.default_rng(101 + L)
    box = LatticeBox(1, L, "periodic")
    n = box.n_sites
    momentum, trivial = FockBasis(box), FockBasis(n)
    hop = HoppingKernel({(0,): rng.normal(), (1,): rng.normal(), (2,): rng.normal()}, 1)
    mp = ModelParams(beta=1.0, hopping=hop, f_plus=PlainGaussian(rng.uniform(0.5, 2.0), d=1),
                     f_minus=GaussianMixture([(0.6, (rng.uniform(0.5, 3.0),))], d=1),
                     gamma_plus=0.45, gamma_minus=0.3, include_onsite_correction=True)
    mf = MeanFieldParams(beta=1.0, hopping=hop, eta_plus=0.8, eta_minus=1.3)
    c_minus, c_plus = 0.4 * np.exp(0.9j), 0.35
    # the site data of the approximant are those of the gauge-fixed H(|c_-|)
    cases = [(_kac_sites(mp, box).matrix(trivial), "number"),
             (_meanfield_sites(mf, box).matrix(trivial), "number"),
             (_approximating_sites(mf, c_minus, c_plus, box).matrix(trivial), "parity")]
    for H, blocking in cases:
        op = FockOperator.from_sparse(momentum, H, blocking)
        assert_theta_real(op)
        assert sum(op.mult[k] * dim for k, dim in op.sector_dimensions().items()) == 4**n
        if blocking == "parity" and n == 7:
            # trivial parity blocks have order 8192: compare with the closed form
            expected = quasifree_spectrum(mf, c_minus, c_plus, momentum.momenta)
        else:
            expected = FockOperator.from_sparse(trivial, H, blocking).eigenvalues()
        assert np.max(np.abs(op.eigenvalues() - expected)) <= 1e-12


def quasifree_spectrum(mf, c_minus, c_plus, momenta):
    """Spectrum of the approximating Hamiltonian of a periodic chain in
    closed form: one two-mode block (k up, -k down) per momentum."""
    shift, g = mf.approximating_fields(c_minus, c_plus)
    eps = dispersion(mf.hopping, momenta) + shift
    big = np.sqrt(eps**2 + abs(g) ** 2)
    levels = np.zeros(1)
    for block in np.stack([eps - big, eps, eps, eps + big], axis=1):
        levels = np.add.outer(levels, block).ravel()
    return np.sort(levels)


def plain_sectors(basis, H, blocking):
    """The plain (N, 2S_z) or parity sectors of the occupation basis: each
    one's states and its block, restricted from the global matrix H by
    scipy alone."""
    H = sp.csr_matrix(H)
    label = (basis.n_tot * (2 * basis.n_sites + 1) + basis.n_up if blocking == "number"
             else basis.n_tot & 1)
    for idx in (np.flatnonzero(label == c) for c in np.unique(label)):
        yield idx, H[idx][:, idx].toarray()


def plain_sector_spectrum(basis, H, blocking):
    """Spectrum of H from its plain sectors."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(B)
                                   for _, B in plain_sectors(basis, H, blocking)]))


def plain_sector_gibbs(basis, H, blocking, beta):
    """Gibbs observables of H and its sorted spectrum, from its plain
    sectors.  Number sectors need eigenvalues only: each holds one N, and
    the pair amplitude is exactly 0.  Parity sectors take their
    eigenvectors, with the number operator and (1/n) ``pair_sum`` of the
    basis, as ``kronecker_gibbs`` does."""
    n = basis.n_sites
    pair = pair_sum(basis) / n if blocking == "parity" else None
    spectra, numbers, pairs = [], [], []
    for idx, B in plain_sectors(basis, H, blocking):
        if pair is None:
            w = np.linalg.eigvalsh(B)
            numbers.append(np.full(len(w), basis.n_tot[idx[0]], float))
            pairs.append(np.zeros(len(w)))
        else:
            w, U = np.linalg.eigh(B)
            numbers.append(np.einsum("si,s,si->i", U, basis.n_tot[idx].astype(float), U))
            pairs.append(np.einsum("si,si->i", U, pair[idx][:, idx] @ U))
        spectra.append(w)
    w, number, amplitude = (np.concatenate(x) for x in (spectra, numbers, pairs))
    p = np.exp(-beta * (w - w.min()))
    p /= p.sum()
    return GibbsObservables(float(logsumexp(-beta * w)) / (beta * n), float(p @ number) / n,
                            float(p @ amplitude), float(p @ w) / n), np.sort(w)


@pytest.mark.parametrize("L,boundary", [(1, "periodic"), (2, "periodic"), (3, "periodic"),
                                        (1, "open"), (2, "open")])
def test_paired_spectra_match_plain_sectors(L, boundary):
    # Kac and mean-field Hamiltonians are real and commute with total spin,
    # so k pairs with -k and each kept block is diagonalized on its
    # lowest-weight states; their eigenvalues, each repeated by its
    # multiplicity (class size)(2S+1), give the spectrum of the plain
    # charge sectors
    rng = np.random.default_rng(211 + L)
    box = LatticeBox(1, L, boundary)
    n = box.n_sites
    hop = HoppingKernel({(0,): rng.normal(), (1,): rng.normal(), (2,): rng.normal()}, 1)
    mp = ModelParams(beta=1.0, hopping=hop, f_plus=PlainGaussian(rng.uniform(0.5, 2.0), d=1),
                     f_minus=GaussianMixture([(0.6, (rng.uniform(0.5, 3.0),))], d=1),
                     gamma_plus=0.45, gamma_minus=0.3, include_onsite_correction=True)
    mf = MeanFieldParams(beta=1.0, hopping=hop, eta_plus=0.8, eta_minus=1.3)
    bare = FockBasis(n)
    for build, matrix in ((build_kac_hamiltonian, _kac_sites(mp, box).matrix(bare)),
                          (build_meanfield_hamiltonian, _meanfield_sites(mf, box).matrix(bare))):
        op = build(mp if build is build_kac_hamiltonian else mf, box)
        assert sum(op.mult[k] * dim for k, dim in op.sector_dimensions().items()) == 4**n
        # the largest multiplicity: a k != 0 spin-(n-1)/2 block on a ring, and
        # the fully polarized state of an open chain
        assert max(op.mult.values()) == (2 * n if boundary == "periodic" else n + 1)
        expected = plain_sector_spectrum(bare, matrix, "number")
        assert np.max(np.abs(op.eigenvalues() - expected)) <= 1e-12
    if n == 7:  # 135 classes, 25 of them at k = 0 split by inversion parity,
        # give 160 real blocks (largest 175); 2 of them hold no lowest-weight
        # state, and the largest lowest-weight order is 112
        assert len(op.blocks) == 158 and max(op.sector_dimensions().values()) == 112


@pytest.mark.parametrize("L,boundary", [(1, "periodic"), (2, "periodic"), (3, "periodic"),
                                        (1, "open"), (2, "open"), (3, "open"), (2, None)])
def test_lowest_weight_blocks_match_whole_blocks(L, boundary):
    # site data of Kac and mean-field Hamiltonians: each number block is
    # diagonalized on its lowest-weight states Q, each eigenvalue counted
    # (class size)(2S+1) times; the same H as a global matrix keeps whole
    # blocks, and at up to 5 sites the plain sectors are the oracle too.
    # A bare site count (boundary None) has no translations or inversion.
    rng = np.random.default_rng(503 + L)
    box = LatticeBox(1, L, boundary or "open")
    n = box.n_sites
    basis, bare = FockBasis(box) if boundary else FockBasis(n), FockBasis(n)
    hop = HoppingKernel({(0,): rng.normal(), (1,): rng.normal(), (2,): rng.normal()}, 1)
    mp = ModelParams(beta=1.0, hopping=hop, f_plus=PlainGaussian(rng.uniform(0.5, 2.0), d=1),
                     f_minus=GaussianMixture([(0.6, (rng.uniform(0.5, 3.0),))], d=1),
                     gamma_plus=0.45, gamma_minus=0.3, include_onsite_correction=True)
    mf = MeanFieldParams(beta=1.0, hopping=hop, eta_plus=0.8, eta_minus=1.3)
    for sites in (_kac_sites(mp, box), _meanfield_sites(mf, box)):
        op = FockOperator.from_sparse(basis, sites, "number")
        whole = FockOperator.from_sparse(basis, sites.matrix(basis), "number")
        assert op.lowest and not whole.lowest
        assert sum(op.mult[k] * dim for k, dim in op.sector_dimensions().items()) == 4**n
        for key, lowest in op.lowest.items():
            Q = lowest.dense(len(op.blocks[key]))
            assert np.max(np.abs(Q.T @ Q - np.eye(Q.shape[1]))) <= 1e-12
        assert np.max(np.abs(op.eigenvalues() - whole.eigenvalues())) <= 1e-12
        for key, (w, V) in op.eigensystem(vectors=True).items():  # in the block's basis
            B = op.blocks[key]
            assert V.shape == (len(B), len(w))
            assert np.max(np.abs(B @ V - V * w), initial=0.0) <= 1e-12 * max(1.0, np.abs(w).max())
        if n <= 5:
            expected = plain_sector_spectrum(bare, sites.matrix(bare), "number")
            assert np.max(np.abs(op.eigenvalues() - expected)) <= 1e-12
        got, want = gibbs_observables(op, 1.1), gibbs_observables(whole, 1.1)
        for field in ("pressure", "density", "energy_per_site"):
            assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12


def total_spin(basis):
    """S^2 = S^- S^+ + S_z^2 + S_z from the annihilators of the basis."""
    n = basis.n_sites
    s_plus = sum(basis.annihilator(basis.mode(x, 0)).T @ basis.annihilator(basis.mode(x, 1))
                 for x in range(n))
    s_z = sp.diags(0.5 * (basis.n_up - (basis.n_tot - basis.n_up)))
    return s_plus.T @ s_plus + s_z @ s_z + s_z


def test_swap_invariant_matrix_without_total_spin_keeps_whole_blocks():
    # site data commute with S^2; J sum_x S^z_x S^z_{x+1} on a ring keeps
    # the up <-> down swap, the translations and the inversion but not total
    # spin.  As a global matrix it keeps whole blocks, with 2 S_z paired
    # with -2 S_z, and the spectrum of the plain sectors
    box = LatticeBox(1, 2, "periodic")
    n = box.n_sites
    basis, bare = FockBasis(box), FockBasis(n)
    mp = ModelParams(beta=1.0, hopping=discrete_laplacian(1), f_plus=PlainGaussian(1.0, d=1),
                     f_minus=PlainGaussian(2.0, d=1), gamma_plus=0.45, gamma_minus=0.3)
    sites = _kac_sites(mp, box)
    s_z = 0.5 * (bare.occ[:, :n] - bare.occ[:, n:])
    H = sites.matrix(bare) + sp.diags(0.8 * (s_z * np.roll(s_z, -1, axis=1)).sum(axis=1))
    S2 = total_spin(bare)
    assert abs(S2 @ sites.matrix(bare) - sites.matrix(bare) @ S2).max() <= 1e-12
    assert abs(S2 @ H - H @ S2).max() > 0.1
    op = FockOperator.from_sparse(basis, H, "number")
    assert not op.lowest and max(op.mult.values()) == 4
    expected = plain_sector_spectrum(bare, H, "number")
    assert np.max(np.abs(op.eigenvalues() - expected)) <= 1e-12


def assert_gibbs_match(got, want):
    for field in ("pressure", "density", "pair_amplitude"):
        assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12


def assert_theta_real(op):
    """A real operator stores float64 blocks, each exactly symmetric."""
    for B in op.blocks.values():
        assert B.dtype == np.float64 and np.array_equal(B, B.T)


@pytest.mark.parametrize("L,boundary", [(1, "periodic"), (2, "periodic"), (3, "periodic"),
                                        (1, "open"), (2, "open")])
def test_theta_real_blocks_match_plain_sectors(L, boundary):
    # Kac, mean-field and real-c approximating Hamiltonians have Theta as a
    # symmetry: real symmetric blocks with the spectra and Gibbs
    # observables of the plain sectors of the global matrix.  The 7-site
    # plain parity sectors have order 8192, so there the approximating
    # Hamiltonian is compared with its quasi-free finite-grid values.
    rng = np.random.default_rng(401 + L)
    box = LatticeBox(1, L, boundary)
    n = box.n_sites
    bare = FockBasis(n)
    hop = HoppingKernel({(0,): rng.normal(), (1,): rng.normal(), (2,): rng.normal()}, 1)
    beta = 1.3
    mp = ModelParams(beta=beta, hopping=hop, f_plus=PlainGaussian(rng.uniform(0.5, 2.0), d=1),
                     f_minus=GaussianMixture([(0.6, (rng.uniform(0.5, 3.0),))], d=1),
                     gamma_plus=0.45, gamma_minus=0.3, include_onsite_correction=True)
    mf = MeanFieldParams(beta=beta, hopping=hop, eta_plus=0.8, eta_minus=1.3)
    c_minus, c_plus = 0.45, 0.3
    cases = [(build_kac_hamiltonian(mp, box), _kac_sites(mp, box), "number"),
             (build_meanfield_hamiltonian(mf, box), _meanfield_sites(mf, box), "number"),
             (build_approximating_hamiltonian(mf, c_minus, c_plus, box),
              _approximating_sites(mf, c_minus, c_plus, box), "parity")]
    for op, sites, blocking in cases:
        assert_theta_real(op)
        got = gibbs_observables(op, beta)
        if blocking == "parity":  # real H: <B> = 0 and B is not built
            assert abs(got.pair_amplitude) > 1e-2 and got.pair_amplitude.imag == 0.0
        if blocking == "parity" and n == 7:
            quad = QuadratureSpec(points_per_axis=n)
            pair, density = bz_gibbs_expectations(mf, c_minus, c_plus, quad)
            want = GibbsObservables(finite_grid_pressure(mf, c_minus, c_plus, L), density,
                                    pair, 0.0)
            expected = quasifree_spectrum(mf, c_minus, c_plus, op.basis.momenta)
        else:
            want, expected = plain_sector_gibbs(bare, sites.matrix(bare), blocking, beta)
        assert np.max(np.abs(op.eigenvalues() - expected)) <= 1e-12
        assert_gibbs_match(got, want)


def test_inversion_asymmetric_operators_are_rejected():
    # an operator of the box without the inversion is no Hamiltonian of it:
    # translation-invariant site data whose density coupling is not even in
    # x - y (as site matrices; H holds only v + v^T, which is even), and a
    # global matrix with sum_x n_{x,up} n_{x+1,down}
    box = LatticeBox(1, 2, "periodic")
    n = box.n_sites
    basis, bare = FockBasis(box), FockBasis(n)
    x = np.arange(n)
    t = hopping_matrix(discrete_laplacian(1), box)
    v_plus = np.array([0.0, 0.7, 0.2, -0.1, 0.4])[(x[:, None] - x[None, :]) % n]
    up, down = basis.occ[:, :n], basis.occ[:, n:]
    chiral = sp.diags((up * np.roll(down, -1, axis=1)).sum(axis=1) * 0.5)
    asymmetric = [_Sites(t=t, v_plus=v_plus), _Sites(t=t).matrix(basis) + chiral]
    for H in asymmetric:
        with pytest.raises(KaclabError, match="not invariant under the inversion x -> -x"):
            FockOperator.from_sparse(basis, H, "number")
        # a bare site count has no inversion to check
        FockOperator.from_sparse(bare, H, "number")


def test_spin_field_breaks_only_the_spin_flip_pairing():
    # h sum_x n_{x,up} conserves (N, S_z) and is real, but is not invariant
    # under up <-> down: the S_z blocks keep multiplicity 1, k <-> -k pairs
    box = LatticeBox(1, 2, "periodic")
    n = box.n_sites
    basis, bare = FockBasis(box), FockBasis(n)
    t = hopping_matrix(discrete_laplacian(1), box)
    H = (_Sites(t=t, v_plus=np.full((n, n), 0.3)).matrix(bare) + sp.diags(0.7 * bare.n_up)).tocoo()
    op = FockOperator.from_sparse(basis, H, "number")
    assert set(op.mult.values()) == {1, 2}
    charges = {key[:2] for key in op.blocks}
    assert all((N, -sz) in charges for N, sz in charges)
    assert np.max(np.abs(op.eigenvalues() - plain_sector_spectrum(bare, H, "number"))) <= 1e-12
    flipped = FockOperator.from_sparse(basis, _Sites(t=t).matrix(bare), "number")
    assert 4 in flipped.mult.values()


def approximating_oracle_case(L, c_minus):
    """The approximating Hamiltonian of a periodic chain at c_-, built by
    the package and as the dense Kronecker-string matrix of the oracle."""
    box = LatticeBox(1, L, "periodic")
    n = box.n_sites
    mf = MeanFieldParams(beta=1.5, hopping=discrete_laplacian(1), eta_plus=0.8, eta_minus=1.3)
    zero = np.zeros((n, n))
    H = oracle_hamiltonian(n, hopping_matrix(mf.hopping, box), zero, zero,
                           density_onebody=2 * math.sqrt(0.8) * 0.35,
                           pair_field=-math.sqrt(1.3) * c_minus)
    return build_approximating_hamiltonian(mf, c_minus, 0.35, box), H


@pytest.mark.parametrize("c_minus", [0.4 * np.exp(0.9j), -0.4], ids=["complex", "negative"])
@pytest.mark.parametrize("L", [1, 2])
def test_gauge_fixed_approximant_matches_kronecker_oracle(L, c_minus):
    # H(c_-) = U H(|c_-|) U^dag: the real blocks of H(|c_-|) give the
    # spectrum, pressure and density of H(c_-), and the pair amplitude
    # rotated by exp(-i arg c_-) (-1 for the negative c_-, where realness
    # does not change but the gauge does); the oracle is the global matrix
    # at c_- itself, diagonalized by numpy
    op, H = approximating_oracle_case(L, c_minus)
    assert_theta_real(op)
    assert op.pair_phase == pytest.approx(np.exp(-1j * np.angle(c_minus)), abs=1e-15)
    if L == 2:  # kept at k = 0 (two halves) and at one k of each pair +-k
        assert sorted(op.mult.values()) == [1] * 4 + [2] * 4
    want, spectrum = kronecker_gibbs(H, 1.5, op.basis.n_sites)
    assert np.max(np.abs(op.eigenvalues() - spectrum)) <= 1e-12
    assert abs(want.pair_amplitude) > 1e-2
    assert_gibbs_match(gibbs_observables(op, 1.5), want)


def test_complex_global_matrix_is_rejected():
    # the 5-site approximant at complex c_- as a global matrix: its imaginary
    # part is not dropped; complex operators must be gauge-fixed first
    _, H = approximating_oracle_case(2, 0.4 * np.exp(0.9j))
    for basis in (FockBasis(LatticeBox(1, 2, "periodic")), FockBasis(5)):
        with pytest.raises(KaclabError, match="complex operators must be gauge-fixed"):
            FockOperator.from_sparse(basis, sp.csr_matrix(H), "parity")


@pytest.mark.parametrize("L", [1, 2])
def test_paired_gibbs_observables_match_trivial_group(L):
    # real c_-: the (parity, k) blocks pair k with -k, and their real
    # symmetric blocks give real pair terms
    box = LatticeBox(1, L, "periodic")
    n = box.n_sites
    bare = FockBasis(n)
    mf = MeanFieldParams(beta=1.5, hopping=discrete_laplacian(1), eta_plus=0.8, eta_minus=1.3)
    H = _approximating_sites(mf, 0.45, 0.3, box).matrix(bare)
    # plus a random real parity-conserving matrix summed over the
    # translations and the inversion: no further symmetry
    rng = np.random.default_rng(5 + L)
    A = 0.05 * rng.normal(size=(4**n, 4**n))
    A[(bare.n_tot[:, None] + bare.n_tot[None, :]) % 2 == 1] = 0.0
    basis = FockBasis(box)

    def moved(M, image, sign):
        out = np.empty_like(M)
        out[np.ix_(image, image)] = M * np.outer(sign, sign)
        return out

    generic = np.zeros_like(A)
    for _ in range(n):
        generic += A + A.T
        A = moved(A, *basis.generators[0])
    generic += moved(generic, *basis.inversion)
    for matrix in (H, H + sp.coo_matrix(generic)):
        paired = FockOperator.from_sparse(FockBasis(box), matrix, "parity")
        trivial = FockOperator.from_sparse(bare, matrix, "parity")
        assert 2 in paired.mult.values() and set(trivial.mult.values()) == {1}
        got, want = gibbs_observables(paired, 1.5), gibbs_observables(trivial, 1.5)
        assert abs(want.pair_amplitude) > 1e-2
        for field in ("pressure", "density", "pair_amplitude", "energy_per_site"):
            assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12


def test_basis_is_built_once_per_box():
    mp = ModelParams(beta=1.0, hopping=discrete_laplacian(1), f_plus=None, f_minus=None)
    op1 = build_kac_hamiltonian(mp, LatticeBox(1, 1, "periodic"))
    op2 = build_kac_hamiltonian(mp, LatticeBox(1, 1, "periodic"))
    assert op1.basis is op2.basis
    assert build_kac_hamiltonian(mp, LatticeBox(1, 1, "open")).basis is not op1.basis
    with pytest.raises(CapacityError, match="exceeds cap 63"):
        build_kac_hamiltonian(mp, LatticeBox(1, 1, "periodic"), dimension_cap=63)


def test_translation_invariance_check():
    # hopping that is not circulant is no Hamiltonian of the periodic box
    box = LatticeBox(1, 1, "periodic")
    basis = FockBasis(box)
    t = hopping_matrix(discrete_laplacian(1), box)
    t[0, 1] = t[1, 0] = -1.5
    with pytest.raises(KaclabError, match="not invariant under the translations"):
        FockOperator.from_sparse(basis, _Sites(t=t).matrix(basis), "number")
    FockOperator.from_sparse(FockBasis(box.n_sites), _Sites(t=t).matrix(basis), "number")


def assert_same_operator(op, oracle):
    """Same kept blocks, entries to 1e-12, and the same spectrum.  Under
    number blocking, site data keep only the blocks that hold lowest-weight
    states, each with its spin multiplicity; under parity blocking, the
    same blocks with the same multiplicities."""
    assert op.blocking == oracle.blocking and set(op.blocks) <= set(oracle.blocks)
    if op.blocking == "parity":
        assert op.mult == oracle.mult
    for key, B in op.blocks.items():
        assert B.shape == oracle.blocks[key].shape
        assert np.max(np.abs(B - oracle.blocks[key]), initial=0.0) <= 1e-12
    assert np.max(np.abs(op.eigenvalues() - oracle.eigenvalues())) <= 1e-12


@pytest.mark.parametrize("boundary", ["periodic", "open"])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_representative_build_matches_global_matrix(L, boundary):
    # the builders fill the blocks from the representative columns of the
    # site data; from_sparse of the global matrix is the oracle
    rng = np.random.default_rng(307 + L)
    box = LatticeBox(1, L, boundary)
    n = box.n_sites
    basis = FockBasis(box)
    hop = HoppingKernel({(0,): rng.normal(), (1,): rng.normal(), (2,): rng.normal()}, 1)
    mp = ModelParams(beta=1.0, hopping=hop, f_plus=PlainGaussian(rng.uniform(0.5, 2.0), d=1),
                     f_minus=GaussianMixture([(0.6, (rng.uniform(0.5, 3.0),))], d=1),
                     gamma_plus=0.45, gamma_minus=0.3, include_onsite_correction=True)
    mf = MeanFieldParams(beta=1.0, hopping=hop, eta_plus=0.8, eta_minus=1.3)
    assert_same_operator(build_kac_hamiltonian(mp, box), FockOperator.from_sparse(
        basis, _kac_sites(mp, box).matrix(basis), "number"))
    assert_same_operator(build_meanfield_hamiltonian(mf, box), FockOperator.from_sparse(
        basis, _meanfield_sites(mf, box).matrix(basis), "number"))
    if n == 7:
        return  # 7-site parity blocks hold hundreds of MB
    for c_minus in (0.45, 0.4 * np.exp(0.9j)):  # both built gauge-fixed, at |c_-|
        H = _approximating_sites(mf, abs(c_minus), 0.35, box).matrix(basis)
        op = build_approximating_hamiltonian(mf, c_minus, 0.35, box)
        assert_theta_real(op)
        assert_same_operator(op, FockOperator.from_sparse(basis, H, "parity"))


def periodic_sites(box):
    """Translation-invariant site data of every kind on a periodic chain."""
    n = box.n_sites
    return dict(t=hopping_matrix(discrete_laplacian(1), box) + 0.2 * np.eye(n),
                v_plus=np.full((n, n), 0.3),
                pair_w=-kac_coupling_matrix(PlainGaussian(1.0, d=1), 0.4, box) - 0.1 * np.eye(n))


@pytest.mark.parametrize("name", ["t", "v_plus", "pair_w"])
def test_site_matrix_guard_rejects_non_invariant_terms(name):
    box = LatticeBox(1, 2, "periodic")
    basis = FockBasis(box)
    sites = periodic_sites(box)
    sites[name] = sites[name].copy()
    sites[name][0, 1] = sites[name][1, 0] = 1.5  # no longer circulant
    for H in (_Sites(**sites), _Sites(**sites).matrix(basis)):
        with pytest.raises(KaclabError, match="not invariant under the translations"):
            FockOperator.from_sparse(basis, H, "number")
    # a bare site count has no translations to check
    FockOperator.from_sparse(FockBasis(box.n_sites), _Sites(**sites), "number")


@pytest.mark.parametrize("delta", [1e-10, 3e-11, 1e-11, 1e-12, 1e-15])
@pytest.mark.parametrize("name,entry", [("t", (0, 1)), ("t", (2, 2)), ("v_plus", (0, 3)),
                                        ("v_plus", (1, 1)), ("pair_w", (4, 0)),
                                        ("pair_w", (3, 3))])
def test_site_matrix_guard_rejects_what_the_matrix_check_rejects(name, entry, delta):
    box = LatticeBox(1, 2, "periodic")
    basis = FockBasis(box)
    sites = periodic_sites(box)
    sites[name] = sites[name].copy()
    x, y = entry
    sites[name][x, y] += delta
    sites[name][y, x] = sites[name][x, y]

    def rejects(H):
        try:
            FockOperator.from_sparse(basis, H, "number")
        except KaclabError as err:
            assert "not invariant under the translations" in str(err)
            return True
        return False

    by_matrix, by_sites = rejects(_Sites(**sites).matrix(basis)), rejects(_Sites(**sites))
    assert by_sites or not by_matrix
    if delta >= 1e-10:
        assert by_matrix
    if delta <= 1e-15:  # rounding-level noise passes both
        assert not by_sites


def test_site_leak_message_matches_the_matrix_check():
    # the leak of a pair field under number blocking, counted over every
    # state from the representative columns (of translations and inversion
    # on inversion-symmetric site data); it is reported before a broken
    # translation, as by the matrix check
    box = LatticeBox(1, 2, "periodic")
    basis = FockBasis(box)
    sites = periodic_sites(box)
    for t in (sites["t"], np.diag(np.arange(5.0))):
        messages = []
        for H in (_Sites(**dict(sites, t=t, pair_field=0.3)),
                  _Sites(**dict(sites, t=t, pair_field=0.3)).matrix(basis)):
            with pytest.raises(KaclabError, match="outside the declared 'number' sectors") as err:
                FockOperator.from_sparse(basis, H, "number")
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def spy_on_plans(monkeypatch):
    """A list that receives every plan that from_sparse makes."""
    made, make = [], fock._plan

    def spy(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(fock, "_plan", spy)
    return made


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_site_plans_are_made_once_per_pattern(boundary, monkeypatch):
    # every build matches the blocks of its global matrix (whose plan is
    # made for it alone); site data of one pattern share one plan, whatever
    # their values, and each new pattern gets its own
    box = LatticeBox(1, 2, boundary)
    basis = FockBasis(box)
    basis._lowest_weights()  # the spin maps make a plan of S^2 of their own, once per basis
    made = spy_on_plans(monkeypatch)

    def build(sites):
        before = len(made)
        op = FockOperator.from_sparse(basis, sites, "number")
        new_plans = len(made) - before
        assert_same_operator(op, FockOperator.from_sparse(basis, sites.matrix(basis), "number"))
        return new_plans

    def kac(gamma, hopping=discrete_laplacian(1), f_minus=PlainGaussian(2.0, d=1), **kw):
        return _kac_sites(ModelParams(beta=1.0, hopping=hopping, f_plus=PlainGaussian(1.0, d=1),
                                      f_minus=f_minus, gamma_plus=gamma, gamma_minus=gamma, **kw),
                          box)

    assert build(kac(0.5)) == 1
    assert build(kac(0.2)) == 0  # a new gamma: the same plan
    # the on-site correction only moves the diagonal: the same plan
    assert build(kac(0.3, include_onsite_correction=True)) == 0
    next_nearest = HoppingKernel({(1,): -1.0, (-1,): -1.0, (2,): 0.3, (-2,): 0.3}, 1)
    assert build(kac(0.5, hopping=next_nearest)) == 1
    assert build(kac(0.2, hopping=next_nearest)) == 0
    assert build(kac(0.5, f_minus=None)) == 1  # eta_- = 0: no pair hopping
    assert build(kac(0.2, f_minus=None)) == 0
    assert len(basis._plans) == 3


def test_cached_plans_keep_every_check(monkeypatch):
    # after a clean build has cached its plan, a pair field under number
    # blocking still leaks, with the count of every state's orbit, and
    # site data that break a translation or the inversion are still
    # rejected; a complex global pair field 0.3i P + h.c. leaks with the
    # same count, as the leak is checked before realness
    box = LatticeBox(1, 2, "periodic")
    basis = FockBasis(box)
    sites = periodic_sites(box)
    FockOperator.from_sparse(basis, _Sites(**sites), "number")
    FockOperator.from_sparse(basis, _Sites(**sites, pair_field=0.3), "parity")
    made = spy_on_plans(monkeypatch)
    pairs = pair_sum(basis)
    for H in (_Sites(**sites, pair_field=0.3),
              _Sites(**sites).matrix(basis) + 0.3j * pairs - 0.3j * pairs.T):
        with pytest.raises(KaclabError, match="^operator has 2560 nonzero matrix elements outside "
                                              "the declared 'number' sectors$"):
            FockOperator.from_sparse(basis, H, "number")
    shifted = dict(sites, t=sites["t"].copy())
    shifted["t"][0, 0] = 0.5
    n = box.n_sites
    x = np.arange(n)
    chiral = dict(sites, v_plus=np.array([0.0, 0.7, 0.2, -0.1, 0.4])[(x[:, None] - x) % n])
    for broken, symmetry in ((shifted, "translations"), (chiral, "inversion x -> -x")):
        for blocking, g in (("number", 0.0), ("parity", 0.3)):
            with pytest.raises(KaclabError, match=f"not invariant under the {symmetry}"):
                FockOperator.from_sparse(basis, _Sites(**broken, pair_field=g), blocking)
    assert made == []  # each of these was rejected with a cached plan in hand


# -- pressure ------------------------------------------------------------------------


def test_pressure_zero_operator():
    mf = MeanFieldParams(beta=1.0, hopping=zero_kernel())
    op = build_meanfield_hamiltonian(mf, LatticeBox(1, 0, "open"))
    assert pressure(op, 1.0) == pytest.approx(math.log(4.0), rel=1e-15)


@pytest.mark.parametrize("beta", [0.0, -1.0])
def test_thermodynamics_reject_nonpositive_beta(beta):
    mf = MeanFieldParams(beta=1.0, hopping=discrete_laplacian(1), eta_minus=1.0)
    box = LatticeBox(1, 1, "open")
    for op in (build_meanfield_hamiltonian(mf, box),
               build_approximating_hamiltonian(mf, 0.3, 0.2, box)):
        for thermo in (pressure, gibbs_observables):
            with pytest.raises(ConfigError, match="beta must be positive"):
                thermo(op, beta)


@pytest.mark.parametrize("beta,mu", [(1.0, 0.7), (2.5, -0.3), (4.0, 0.0)])
def test_pressure_single_site_two_level_formula(beta, mu):
    mf = MeanFieldParams(beta=beta, hopping=HoppingKernel({(0,): mu}, 1))
    op = build_meanfield_hamiltonian(mf, LatticeBox(1, 0, "open"))
    expected = 2.0 / beta * math.log(1.0 + math.exp(-beta * mu))
    assert pressure(op, beta) == pytest.approx(expected, rel=1e-13)
    if mu == 0.0:
        assert pressure(op, beta) == pytest.approx(2 * math.log(2.0) / beta, rel=1e-14)


def test_pressure_two_site_hopping_against_kron_oracle():
    basis = FockBasis(2)
    t = np.array([[0.0, -1.0], [-1.0, 0.0]])
    op = FockOperator.from_sparse(basis, _Sites(t=t).matrix(basis), "number")
    beta = 1.0
    p_pkg = pressure(op, beta)

    # oracle: dense 16x16 built from explicit Kronecker strings
    modes = kron_modes(4)
    up0, up1, dn0, dn1 = modes  # up block then down block
    H = np.zeros((16, 16))
    for (adag, a) in [(up0, up1), (up1, up0), (dn0, dn1), (dn1, dn0)]:
        H += -1.0 * adag.T @ a
    ev = np.linalg.eigvalsh(H)
    p_oracle = float(logsumexp(-beta * ev)) / (beta * 2)
    assert p_pkg == pytest.approx(p_oracle, abs=1e-13)


def test_translation_covariance_periodic():
    # cyclic relabeling of the sites leaves the pressure invariant
    lap = discrete_laplacian(1)
    gauss = PlainGaussian(1.0, d=1)
    box = LatticeBox(1, 1, "periodic")
    from kaclab.lattice import hopping_matrix, kac_coupling_matrix
    t = hopping_matrix(lap, box)
    V = kac_coupling_matrix(gauss, 0.4, box)
    n = box.n_sites
    perm = np.roll(np.arange(n), 1)
    basis = FockBasis(n)
    make = lambda tm, vm: FockOperator.from_sparse(
        basis, _Sites(t=tm, v_plus=vm).matrix(basis), "number"
    )
    p0 = pressure(make(t, V), 2.0)
    p1 = pressure(make(t[np.ix_(perm, perm)], V[np.ix_(perm, perm)]), 2.0)
    assert p1 == pytest.approx(p0, abs=1e-13)


def test_gauge_invariance_of_approximating_pressure():
    rng = np.random.default_rng(11)
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1),
                         eta_plus=0.8, eta_minus=1.2)
    box = LatticeBox(1, 1, "periodic")
    base = pressure(build_approximating_hamiltonian(mf, 0.4, 0.25, box), mf.beta)
    for _ in range(5):
        phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
        p_rot = pressure(
            build_approximating_hamiltonian(mf, 0.4 * phase, 0.25, box), mf.beta
        )
        assert abs(p_rot - base) <= 1e-12
    # c_plus enters through its real part only
    p_imag = pressure(
        build_approximating_hamiltonian(mf, 0.4, 0.25 + 0.7j, box), mf.beta
    )
    assert abs(p_imag - base) <= 1e-12


def test_convexity_of_log_trace_in_coupling():
    rng = np.random.default_rng(23)
    basis = FockBasis(2)
    beta = 1.7
    sectors = basis.sectors("parity")

    def random_parity_op():
        blocks = {}
        for key, idx in sectors.items():
            m = rng.normal(size=(len(idx), len(idx)))
            blocks[key] = (m + m.T) / 2
        return FockOperator(basis, "parity", blocks)

    for _ in range(10):
        h0, h1 = random_parity_op(), random_parity_op()
        lams = np.linspace(-1.0, 1.0, 5)
        vals = [
            beta * basis.n_sites * pressure(FockOperator(
                basis, "parity", {k: B + lam * h1.blocks[k] for k, B in h0.blocks.items()},
                h0.mult), beta)
            for lam in lams
        ]
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-9)


def test_kac_meanfield_single_site_coincidence():
    # on one site, gamma^d f(0) = eta makes the two Hamiltonians the same matrix
    eta = 0.75
    gamma = 0.5
    width = 1.0  # f(0) = 1, so gamma * f(0) = 0.5: rescale eta to match
    gauss = PlainGaussian(width, d=1)
    box = LatticeBox(1, 0, "open")
    mp = ModelParams(beta=2.0, hopping=zero_kernel(), f_plus=gauss, f_minus=None,
                     gamma_plus=gamma)
    mf = MeanFieldParams(beta=2.0, hopping=zero_kernel(), eta_plus=gamma * 1.0)
    op_kac = build_kac_hamiltonian(mp, box)
    op_mf = build_meanfield_hamiltonian(mf, box)
    for key in op_kac.blocks:
        assert np.allclose(op_kac.blocks[key], op_mf.blocks[key], atol=1e-15)
    assert pressure(op_kac, 2.0) == pressure(op_mf, 2.0)


def test_onsite_correction_terms():
    # exact Kac-interaction bookkeeping: -(g^d f+(0)/2) sum n and
    # +(g^d f-(0)/2) sum n_up n_dn relative to the literal Hamiltonian
    gauss_p = PlainGaussian(1.0, d=1)
    gauss_m = PlainGaussian(2.0, d=1)
    box = LatticeBox(1, 0, "open")
    kw = dict(beta=1.0, hopping=zero_kernel(), f_plus=gauss_p, f_minus=gauss_m,
              gamma_plus=0.4, gamma_minus=0.3)
    plain = build_kac_hamiltonian(ModelParams(**kw), box)
    corrected = build_kac_hamiltonian(
        ModelParams(**kw, include_onsite_correction=True), box
    )
    basis = FockBasis(1)
    n_tot = basis.n_tot.astype(float)
    docc = (basis.occ[:, 0] * basis.occ[:, 1]).astype(float)
    expected_diag = -0.5 * 0.4 * 1.0 * n_tot + 0.5 * 0.3 * 1.0 * docc
    sectors = corrected.basis.sectors("number")
    assert sum(corrected.mult[key] * len(sectors[key]) for key in corrected.blocks) == 4
    for key in corrected.blocks:
        idx = sectors[key]
        diff = corrected.blocks[key] - plain.blocks[key]
        assert np.allclose(np.diag(diff), expected_diag[idx], atol=1e-14)
        assert np.allclose(diff - np.diag(np.diag(diff)), 0.0, atol=1e-15)


# -- Gibbs observables --------------------------------------------------------------


def test_gibbs_zero_hamiltonian_half_filling():
    mf = MeanFieldParams(beta=3.0, hopping=zero_kernel())
    op = build_meanfield_hamiltonian(mf, LatticeBox(1, 1, "open"))
    obs = gibbs_observables(op, 3.0)
    assert obs.density == pytest.approx(1.0, abs=1e-13)
    assert obs.pair_amplitude == 0.0  # superselection, exact
    assert obs.energy_per_site == pytest.approx(0.0, abs=1e-13)


def test_gibbs_pair_amplitude_number_conserving_is_exact_zero():
    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1), eta_minus=1.0)
    op = build_meanfield_hamiltonian(mf, LatticeBox(1, 1, "periodic"))
    assert gibbs_observables(op, 2.0).pair_amplitude == 0.0


def test_gibbs_pair_amplitude_against_kronecker_oracle():
    beta, e_plus, e_minus = 1.7, 0.6, 1.4
    c_minus, c_plus = 0.45 * np.exp(0.9j), 0.3
    box = LatticeBox(1, 1, "open")
    n = box.n_sites
    mf = MeanFieldParams(beta=beta, hopping=discrete_laplacian(1),
                         eta_plus=e_plus, eta_minus=e_minus)
    obs = gibbs_observables(build_approximating_hamiltonian(mf, c_minus, c_plus, box), beta)

    zero = np.zeros((n, n))
    H = oracle_hamiltonian(n, hopping_matrix(mf.hopping, box), zero, zero,
                           density_onebody=2 * math.sqrt(e_plus) * c_plus,
                           pair_field=-math.sqrt(e_minus) * c_minus)
    w, U = np.linalg.eigh(H)
    weights = np.exp(-beta * (w - w[0]))
    a = kron_modes(2 * n)
    pair_op = sum(a[n + x] @ a[x] for x in range(n)) / n
    pair = np.einsum("si,st,ti->i", U.conj(), pair_op, U) @ weights / weights.sum()
    assert abs(pair) > 1e-2
    assert abs(obs.pair_amplitude - pair) <= 1e-12
    assert obs.pressure == pytest.approx(float(logsumexp(-beta * w)) / (beta * n), abs=1e-12)


def test_pair_term_holds_no_dense_pair_blocks():
    # the pair field A has the blocks of H; its diagonal in each eigenbasis
    # comes from its nonzeros, so a Gibbs call holds the eigenvectors and
    # far less than a dense copy of A's blocks, of the same size (A used
    # to be filled densely and multiplied densely: 77 MB at 7 sites)
    mf = MeanFieldParams(beta=1.5, hopping=discrete_laplacian(1), eta_plus=0.8, eta_minus=1.3)
    op = build_approximating_hamiltonian(mf, 0.45, 0.3, LatticeBox(1, 2, "periodic"))
    want = gibbs_observables(op, 1.5)  # the plans of H and A are kept from here on
    dense = sum(B.nbytes for B in op.blocks.values())
    tracemalloc.start()
    try:
        got = gibbs_observables(op, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want and abs(got.pair_amplitude) > 1e-2
    assert peak < 2 * dense


def test_gibbs_pair_amplitude_single_site_trace_oracle():
    beta = 2.0
    g = 0.3  # sqrt(eta_minus) * c_minus with eta_minus = 1
    mf = MeanFieldParams(beta=beta, hopping=zero_kernel(), eta_minus=1.0)
    op = build_approximating_hamiltonian(mf, g, 0.0, LatticeBox(1, 0, "open"))
    obs = gibbs_observables(op, beta)
    # 4-state oracle: even block [[0, -g], [-g, 0]], odd states at E=0
    z = 2.0 * math.cosh(beta * g) + 2.0
    pair_oracle = math.sinh(beta * g) / z
    assert obs.pair_amplitude.real == pytest.approx(pair_oracle, abs=1e-13)
    assert abs(obs.pair_amplitude.imag) <= 1e-14
    assert obs.pressure == pytest.approx(math.log(z) / beta, rel=1e-14)
