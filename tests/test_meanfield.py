"""The mean-field pressure of a box from its pair problems
(`kaclab.meanfield`) against Fock-space ED, the canonical recursion past
the ED cap, the free grid pressure and the CLI's `pressure-mf`."""

import json
from dataclasses import replace

import numpy as np
import pytest

from kaclab import fock
from kaclab.cli import main
from kaclab.errors import CapacityError, ConfigError
from kaclab.fock import build_meanfield_hamiltonian, gibbs_observables
from kaclab.lattice import (HoppingKernel, LatticeBox, MeanFieldParams, discrete_laplacian,
                            hopping_matrix)
from kaclab.meanfield import pressure_and_density
from kaclab.quasifree import finite_grid_pressure

NNN = HoppingKernel({(0,): 2.5, (1,): -1.0, (2,): -0.25}, 1)
NNN_2D = HoppingKernel({(0, 0): 4.8, (1, 0): -1.0, (0, 1): -1.0, (1, 1): -0.2, (1, -1): -0.2}, 2)
ETAS = [(0.0, 1.3), (0.7, 0.0), (0.7, 1.3), (1.5, 2.0)]  # both eta = 0 axes, two general


@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("hopping", [discrete_laplacian(1), NNN], ids=["laplacian", "nnn"])
def test_pair_problems_match_fock_ed(hopping, L):
    for box in (LatticeBox(1, L, "open"), LatticeBox(1, L, "periodic")):
        for eta_plus, eta_minus in ETAS:
            mf = MeanFieldParams(beta=1.0, hopping=hopping, eta_plus=eta_plus,
                                 eta_minus=eta_minus)
            op = build_meanfield_hamiltonian(mf, box)  # its spectrum serves every beta
            for beta in (0.5, 2.0, 8.0):
                p, density = pressure_and_density(replace(mf, beta=beta), box)
                ed = gibbs_observables(op, beta)
                assert abs(p - ed.pressure) <= 1e-12
                assert abs(density - ed.density) <= 1e-12


def canonical_pressure_and_density(mf, box):
    """Pressure and density at eta_- = 0, where H_mf = sum_j eps_j n_j +
    (eta_+/n) N^2: Z = sum_N e_N(x) exp(-beta eta_+ N^2 / n), with e_N the
    elementary symmetric polynomials of x = exp(-beta eps) over the 2n
    spin-orbitals, by the recursion of Borrmann and Franke, J. Chem. Phys.
    98, 2484 (1993)."""
    assert mf.eta_minus == 0.0
    n = box.n_sites
    e = np.zeros(2 * n + 1)
    e[0] = 1.0
    for x in np.repeat(np.exp(-mf.beta * np.linalg.eigvalsh(hopping_matrix(mf.hopping, box))), 2):
        e[1:] = e[1:] + x * e[:-1]
    N = np.arange(2 * n + 1)
    weight = e * np.exp(-mf.beta * mf.eta_plus / n * N**2)
    Z = weight.sum()
    return float(np.log(Z)) / (mf.beta * n), float(N @ weight) / (Z * n)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("L", [4, 5])
@pytest.mark.parametrize("hopping", [discrete_laplacian(1), NNN], ids=["laplacian", "nnn"])
def test_pair_problems_match_the_canonical_recursion_past_the_ed_cap(hopping, L, boundary):
    box = LatticeBox(1, L, boundary)  # 9 and 11 sites
    for beta in (0.5, 2.0, 8.0):
        for eta_plus in (0.0, 0.7, 1.5):
            mf = MeanFieldParams(beta=beta, hopping=hopping, eta_plus=eta_plus)
            p, density = pressure_and_density(mf, box, dimension_cap=4**box.n_sites)
            want_p, want_density = canonical_pressure_and_density(mf, box)
            assert abs(p - want_p) <= 1e-12
            assert abs(density - want_density) <= 1e-12


@pytest.mark.parametrize("d, L, hopping", [
    (1, 0, discrete_laplacian(1)), (1, 3, discrete_laplacian(1)), (1, 3, NNN),
    (2, 1, discrete_laplacian(2)), (2, 1, NNN_2D),
], ids=["1d-1site", "1d-7sites", "1d-nnn", "2d-3x3", "2d-3x3-nnn"])
def test_free_box_equals_the_grid_pressure(d, L, hopping):
    box = LatticeBox(d, L, "periodic")
    for beta in (0.5, 2.0, 8.0):
        mf = MeanFieldParams(beta=beta, hopping=hopping)
        p, _ = pressure_and_density(mf, box, dimension_cap=4**box.n_sites)
        assert abs(p - finite_grid_pressure(mf, 0.0, 0.0, L)) <= 1e-13


def test_pair_problems_keep_the_ed_checks():
    mf = MeanFieldParams(beta=1.0, hopping=discrete_laplacian(2), eta_plus=0.5, eta_minus=0.5)
    with pytest.raises(CapacityError, match="exceeds cap"):
        pressure_and_density(mf, LatticeBox(2, 1, "periodic"))  # 4^9 over the default cap
    with pytest.raises(ConfigError, match="dimension"):
        pressure_and_density(mf, LatticeBox(1, 1, "periodic"))


def pressure_mf_config(tmp_path, **overrides):
    data = {"schema_version": 1, "dimension": 1,
            "hopping": [[[0], 2.5], [[1], -1.0], [[2], -0.25]],
            "eta": {"plus": 0.6, "minus": 1.4}, "beta": [0.5, 4.0], "L": [0, 1, 2, 3]}
    data.update(overrides)
    path = tmp_path / "mf.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_cli_pressure_mf_builds_no_fock_basis(tmp_path, capsys, monkeypatch, boundary):
    def no_basis(*args, **kwargs):
        raise AssertionError("pressure-mf built a Fock basis")

    monkeypatch.setattr(fock.FockBasis, "__init__", no_basis)
    monkeypatch.setattr(fock, "_box_basis", no_basis)  # nor takes a cached one
    assert main(["pressure-mf", "--config", pressure_mf_config(tmp_path, boundary=boundary)]) == 0
    rows = json.loads(capsys.readouterr().out)["pressure_mf"]
    monkeypatch.undo()
    assert len(rows) == 8
    for row in rows:
        assert sorted(row) == ["L", "beta", "density", "eta_minus", "eta_plus", "pressure"]
        mf = MeanFieldParams(beta=row["beta"], hopping=NNN, eta_plus=0.6, eta_minus=1.4)
        box = LatticeBox(1, row["L"], boundary)
        ed = gibbs_observables(build_meanfield_hamiltonian(mf, box), mf.beta)
        assert abs(row["pressure"] - ed.pressure) <= 1e-12
        assert abs(row["density"] - ed.density) <= 1e-12


@pytest.mark.parametrize("overrides, code", [
    ({"L": [9]}, 4),
    ({"L": [2], "dimension_cap": 4**4}, 4),
    ({"beta": [0.0]}, 2),
    ({"beta": [-1.0]}, 2),
], ids=["over_default_cap", "over_config_cap", "beta_zero", "beta_negative"])
def test_cli_pressure_mf_exit_codes(tmp_path, capsys, overrides, code):
    assert main(["pressure-mf", "--config", pressure_mf_config(tmp_path, **overrides)]) == code
    assert capsys.readouterr().out == ""
