"""Boxes, hopping kernels, dispersions, Kac coupling matrices."""

import itertools
import math

import numpy as np
import pytest

from kaclab.errors import ConfigError
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
from kaclab.potentials import PlainGaussian, TableSpline


def zero_potential(d=1):
    r = np.linspace(0.0, 5.0, 16)
    return TableSpline(r, np.zeros_like(r), d=d)


def test_box_site_count_and_order():
    box = LatticeBox(2, 1)
    assert box.n_sites == 9
    assert box.sites[0].tolist() == [-1, -1]
    assert box.sites[-1].tolist() == [1, 1]
    # lexicographic: second coordinate fastest
    assert box.sites[1].tolist() == [-1, 0]


def test_box_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        LatticeBox(0, 1)
    with pytest.raises(ConfigError):
        LatticeBox(1, 1, boundary="twisted")


def test_kernel_symmetrization_and_rejection():
    h = HoppingKernel({(1,): -1.0}, 1)  # mirror filled in automatically
    assert h.entries[(-1,)] == -1.0
    with pytest.raises(ConfigError, match="not reflection-symmetric"):
        HoppingKernel({(1,): -1.0, (-1,): -2.0}, 1)


def test_kernel_rejects_repeated_offsets():
    with pytest.raises(ConfigError, match="not reflection-symmetric"):
        HoppingKernel([((1,), -1.0), ((1,), -2.0)], 1)


def test_kernels_are_values():
    as_dict = HoppingKernel({(0,): 2.0, (1,): -1.0, (-1,): -1.0}, 1)
    twins = [
        HoppingKernel({(0,): 2.0, (1,): -1.0, (-1,): -1.0}, 1),
        HoppingKernel([((0,), 2.0), ((1,), -1.0), ((-1,), -1.0)], 1),
        HoppingKernel({(1,): -1.0, (0,): 2.0}, 1),  # mirror filled in
        HoppingKernel([((1,), -1), ((0,), 2), ((2,), 0.0)], 1),  # ints, a zero entry
        discrete_laplacian(1),
    ]
    for twin in twins:
        assert twin == as_dict and hash(twin) == hash(as_dict)
    others = [
        HoppingKernel({(0,): 2.0, (1,): -0.5}, 1),
        HoppingKernel({(0,): 2.0, (2,): -1.0}, 1),
        HoppingKernel({(0,): 2.0}, 1),
        discrete_laplacian(2),
        HoppingKernel({(0, 0): 2.0, (1, 0): -1.0}, 2),
    ]
    for other in others:
        assert other != as_dict
    assert HoppingKernel({(0,): 0.0}, 1) != HoppingKernel({(0, 0): 0.0}, 2)  # d alone differs
    assert as_dict != dict(as_dict.entries)
    mf = [MeanFieldParams(beta=2.0, hopping=h, eta_plus=0.5) for h in (as_dict, twins[1])]
    assert mf[0] == mf[1] and hash(mf[0]) == hash(mf[1])
    f = PlainGaussian(1.0, d=1)
    mp = [ModelParams(beta=2.0, hopping=h, f_plus=f, f_minus=None) for h in (as_dict, twins[1])]
    assert mp[0] == mp[1]


def test_kernel_entries_are_read_only():
    h = discrete_laplacian(1)
    with pytest.raises(TypeError):
        h.entries[(1,)] = 5.0
    with pytest.raises(TypeError):
        del h.entries[(0,)]
    assert h == discrete_laplacian(1)


def test_discrete_laplacian_dispersion_values():
    lap = discrete_laplacian(1)
    assert dispersion(lap, [0.0]) == pytest.approx(0.0, abs=1e-15)
    assert dispersion(lap, [math.pi]) == pytest.approx(2.0 - 2.0 * math.cos(math.pi), abs=1e-12)
    assert dispersion(lap, [math.pi]) == pytest.approx(4.0, abs=1e-12)


def test_constant_dispersion_from_onsite_kernel():
    h = HoppingKernel({(0,): 0.37}, 1)
    for k in (0.0, 1.0, -2.2):
        assert dispersion(h, [k]) == 0.37


def test_dispersion_even_in_k():
    rng = np.random.default_rng(3)
    lap = discrete_laplacian(2)
    K = rng.uniform(-math.pi, math.pi, size=(50, 2))
    assert np.all(dispersion(lap, K) == dispersion(lap, -K))


def test_hopping_matrix_open_is_literal():
    lap = discrete_laplacian(1)
    box = LatticeBox(1, 1, "open")
    t = hopping_matrix(lap, box)
    expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    assert np.array_equal(t, expected)


@pytest.mark.parametrize("d,L", [(1, 0), (1, 1), (1, 2), (2, 1)])
def test_periodic_hopping_matrix_diagonalizes_to_dispersion(d, L):
    # torus fold makes the hopping circulant: eigenvalues are exactly the
    # dispersion on the discrete momentum grid, including L=0
    lap = discrete_laplacian(d)
    box = LatticeBox(d, L, "periodic")
    t = hopping_matrix(lap, box)
    assert np.array_equal(t, t.T)
    axis = 2.0 * math.pi * np.arange(-L, L + 1) / (2 * L + 1)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    K = np.stack([m.ravel() for m in mesh], axis=-1)
    expected = np.sort(np.asarray(dispersion(lap, K)).ravel())
    got = np.sort(np.linalg.eigvalsh(t))
    assert np.allclose(got, expected, atol=1e-12)


def random_kernel(rng, d, reach=4):
    """A symmetric kernel on random offsets with |z_j| <= reach, its values
    multiples of 1/8: every sum of them is exact, in any order."""
    offsets = [z for z in itertools.product(range(-reach, reach + 1), repeat=d)
               if rng.random() < 0.4]
    return HoppingKernel([(z, rng.integers(-64, 65) / 8) for z in offsets
                          if tuple(-c for c in z) >= z], d)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("d,L", [(1, 0), (1, 1), (1, 2), (2, 1)])
def test_hopping_matrix_matches_site_sum_oracle(d, L, boundary):
    # t[x,y] = sum of h(z) over z = x - y (open) or z = x - y mod 2L+1
    # (periodic), with offsets longer than the box
    rng = np.random.default_rng(100 * d + 10 * L + (boundary == "open"))
    box = LatticeBox(d, L, boundary)
    period = 2 * L + 1
    for _ in range(5):
        h = random_kernel(rng, d)
        oracle = np.zeros((box.n_sites, box.n_sites))
        for (i, x), (j, y) in itertools.product(enumerate(box.sites), repeat=2):
            for z, v in h.entries.items():
                diff = x - y - np.array(z)
                if np.all(diff == 0 if boundary == "open" else diff % period == 0):
                    oracle[i, j] += v
        assert np.array_equal(hopping_matrix(h, box), oracle)
    empty = HoppingKernel([], d)
    assert np.array_equal(hopping_matrix(empty, box), np.zeros((box.n_sites, box.n_sites)))
    assert dispersion(empty, np.zeros(d)) == 0.0
    assert np.array_equal(dispersion(empty, np.zeros((3, d))), np.zeros(3))


def test_coupling_matrix_zero_potential():
    box = LatticeBox(1, 1, "open")
    V = kac_coupling_matrix(zero_potential(), 0.5, box)
    assert np.all(V == 0.0)


def test_coupling_matrix_single_site():
    box = LatticeBox(1, 0, "open")
    p = PlainGaussian(1.0, d=1)
    V = kac_coupling_matrix(p, 0.5, box)
    assert V.shape == (1, 1)
    assert V[0, 0] == pytest.approx(0.5 * 1.0, rel=1e-15)  # gamma^d f(0)


def test_coupling_matrix_gaussian_open_box():
    box = LatticeBox(1, 1, "open")
    p = PlainGaussian(1.0, d=1)
    V = kac_coupling_matrix(p, 0.5, box)
    for i, x in enumerate(box.sites[:, 0]):
        for j, y in enumerate(box.sites[:, 0]):
            assert V[i, j] == pytest.approx(0.5 * math.exp(-0.25 * (x - y) ** 2), rel=1e-14)
    assert np.array_equal(V, V.T)


def test_coupling_matrix_periodic_is_circulant():
    box = LatticeBox(1, 2, "periodic")
    p = PlainGaussian(1.0, d=1)
    V = kac_coupling_matrix(p, 0.3, box)
    n = box.n_sites
    for i in range(n):
        for j in range(n):
            assert V[i, j] == pytest.approx(V[(i + 1) % n, (j + 1) % n], rel=1e-14)


def test_coupling_matrix_born_trend():
    # (1/|box|) sum_xy V -> fhat(0) in the gamma -> 0 after L -> infinity order
    p = PlainGaussian(1.0, d=1)
    target = p.born_zero()

    def mean_coupling(L, gamma):
        box = LatticeBox(1, L, "open")
        V = kac_coupling_matrix(p, gamma, box)
        return V.sum() / box.n_sites

    coarse = abs(mean_coupling(12, 0.4) - target)
    fine = abs(mean_coupling(60, 0.1) - target)
    assert fine < coarse


def test_gamma_open_interval_enforced():
    box = LatticeBox(1, 1, "open")
    p = PlainGaussian(1.0, d=1)
    with pytest.raises(ConfigError):
        kac_coupling_matrix(p, 1.0, box)
    lap = discrete_laplacian(1)
    with pytest.raises(ConfigError):
        ModelParams(beta=1.0, hopping=lap, f_plus=p, f_minus=None, gamma_plus=1.0)
    with pytest.raises(ConfigError):
        MeanFieldParams(beta=-1.0, hopping=lap)


def test_meanfield_params_reject_negative_eta():
    with pytest.raises(ConfigError):
        MeanFieldParams(beta=1.0, hopping=discrete_laplacian(1), eta_plus=-0.5)
