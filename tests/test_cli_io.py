"""Configuration parsing, result store, plot data, CLI exit codes."""

import ast
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kaclab
from kaclab import game
from kaclab.cli import main
from kaclab.config import (
    config_hash,
    parse_config,
    parse_config_dict,
    serialize_config,
)
from kaclab.errors import AccuracyError, ConfigError, InsufficientDataError
from kaclab.game import GamePoint, OptimizerSpec, payoff, strategy_boxes
from kaclab.lattice import HoppingKernel
from kaclab.potentials import GaussianMixture, PlainGaussian, Yukawa
from kaclab.quasifree import QuadratureSpec
from kaclab.store import SWEEP_COLUMNS, ResultStore, emit_plot_data
from kaclab.sweep import SweepRecord


def minimal_config(**overrides):
    data = {
        "schema_version": 1,
        "dimension": 1,
        "hopping": [[[0], 2.0], [[1], -1.0], [[-1], -1.0]],
        "potentials": {"plus": {"family": "yukawa", "c0": 1.0, "c1": 1.0, "c2": 1.0}},
        "beta": [1.0],
    }
    data.update(overrides)
    return data


def make_record(**kw):
    base = dict(d=1, L=1, beta=1.0, gamma_minus=0.5, gamma_plus=0.5,
                boundary="periodic", pressure=0.25, density=0.5,
                runtime_ms=3, config_hash="abc")
    base.update(kw)
    return SweepRecord(**base)


# -- config parsing -------------------------------------------------------------


def test_minimal_config_valid():
    cfg = parse_config_dict(minimal_config())
    assert cfg.dimension == 1
    assert cfg.f_plus.family == "yukawa"
    assert cfg.eta_plus == pytest.approx(cfg.f_plus.born_zero())
    assert cfg.eta_minus == 0.0


def test_asymmetric_hopping_rejected():
    data = minimal_config(hopping=[[[1], -1.0], [[-1], -2.0], [[0], 2.0]])
    with pytest.raises(ConfigError, match="not reflection-symmetric"):
        parse_config_dict(data)


def test_gamma_one_rejected():
    with pytest.raises(ConfigError, match="open interval"):
        parse_config_dict(minimal_config(gamma_plus=[1.0]))


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_config_dict(minimal_config(flux_capacitor=3))


def test_all_errors_reported_at_once():
    data = minimal_config(
        gamma_plus=[1.0],
        boundary="möbius",
        seed="tomorrow",
        flux_capacitor=1,
    )
    with pytest.raises(ConfigError) as exc:
        parse_config_dict(data)
    joined = "\n".join(exc.value.messages)
    assert "open interval" in joined
    assert "boundary" in joined
    assert "seed" in joined
    assert "unknown configuration key" in joined
    assert len(exc.value.messages) >= 4


@pytest.mark.parametrize("overrides, message", [
    ({"dimension": True}, "dimension: must be a positive integer"),
    ({"L": [True]}, "L: expected a nonempty list of nonnegative integers"),
    ({"hopping": [[[1.5], -1.0], [[0], 2.0]]}, "hopping offset .* must hold integers"),
    ({"quadrature": {"points_per_axis": 64.5}}, "points_per_axis must be an integer"),
    ({"optimizer": {"grid_points": 33.5}}, "grid_points must be an integer"),
    ({"beta": [True]}, "beta: expected a list of numbers"),
    ({"beta": ["2.0"]}, "beta: expected a list of numbers"),
    ({"beta": [float("inf")]}, "beta: expected a list of numbers"),
    ({"gamma_minus": [0.5, float("nan")]}, "gamma_minus: expected a list of numbers"),
    ({"gamma_minus": [0.5, True]}, "gamma_minus: expected a list of numbers"),
    ({"gamma_plus": [True]}, "gamma_plus: expected a list of numbers"),
    ({"eta": {"plus": True}}, "eta.plus: must be a nonnegative number"),
    ({"eta": {"minus": True}}, "eta.minus: must be a nonnegative number"),
    ({"eta": {"plus": float("inf")}}, "eta.plus: must be a nonnegative number"),
    ({"potentials": {"plus": {"family": "gaussian_mixture", "terms": 5}}},
     "potentials.plus: mixture needs a nonempty list of .weight, scales. terms"),
    ({"potentials": {"plus": {"family": "gaussian_mixture", "terms": [[1.0]]}}},
     "potentials.plus: mixture term .* is not a .weight, scales. pair"),
    ({"quadrature": {"tol": "x"}}, "quadrature: tol must be a number"),
    ({"quadrature": {"tol": -1.0}}, "quadrature: tol must be positive"),
    ({"quadrature": {"tol": 0.0}}, "quadrature: tol must be positive"),
    ({"include_onsite_correction": "false"}, "include_onsite_correction: must be true or false"),
    ({"potentials": {"plus": {"family": "plain_gaussian", "width": True}}},
     "potentials.plus: width must be a number"),
    ({"hopping": [[[0], "2.0"], [[1], -1.0]]}, "hopping: hopping value '2.0' .* must be a number"),
    ({"optimizer": {"xtol": "1e-9"}}, "optimizer: xtol must be a number"),
    ({"optimizer": {"tol_gap": True}}, "optimizer: tol_gap must be a number"),
    ({"optimizer": {"xtol": 0.0}}, "optimizer: tolerances must be positive"),
    ({"optimizer": {"tol_gap": -1.0}}, "optimizer: tolerances must be positive"),
    ({"potentials": {"minus": {"family": "yukawa", "c0": "1", "c1": 1.0}}},
     "potentials.minus: c0 must be a number"),
    ({"potentials": {"plus": {"family": "table_spline", "radii": [0, 1, True, 3],
                              "values": [1.0, 0.5, 0.2, 0.0]}}},
     "potentials.plus: table radii and values must be numbers"),
    ({"output_dir": ""}, "output_dir: must be a nonempty string"),
], ids=["dimension", "L", "hopping_offset", "points_per_axis", "grid_points", "beta_bool",
        "beta_string", "beta_inf", "gamma_minus_nan", "gamma_minus_bool", "gamma_plus_bool",
        "eta_plus_bool", "eta_minus_bool", "eta_plus_inf", "terms_not_list", "term_not_pair",
        "tol_string", "tol_negative", "tol_zero", "onsite_string", "width_bool",
        "hopping_value_string", "xtol_string", "tol_gap_bool", "xtol_zero", "tol_gap_negative",
        "yukawa_string", "table_bool", "output_dir_empty"])
def test_integer_fields_reject_booleans_and_fractions(overrides, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_dict(minimal_config(**overrides))


@pytest.mark.parametrize("build, message", [
    (lambda: HoppingKernel([((1.5,), -1.0)], 1), "integer"),
    (lambda: HoppingKernel([((True,), -1.0)], 1), "integer"),
    (lambda: QuadratureSpec(points_per_axis=64.5), "integer"),
    (lambda: QuadratureSpec(points_per_axis=True), "integer"),
    (lambda: OptimizerSpec(grid_points=33.5), "integer"),
    (lambda: HoppingKernel([((0,), "2.0")], 1), "must be a number"),
    (lambda: QuadratureSpec(tol="x"), "tol must be a number"),
    (lambda: QuadratureSpec(tol=-1.0), "tol must be positive"),
    (lambda: QuadratureSpec(tol=0.0), "tol must be positive"),
    (lambda: OptimizerSpec(xtol="1e-9"), "xtol must be a number"),
    (lambda: OptimizerSpec(tol_gap=True), "tol_gap must be a number"),
    (lambda: OptimizerSpec(xtol=0.0), "tolerances must be positive"),
    (lambda: OptimizerSpec(tol_gap=-1.0), "tolerances must be positive"),
    (lambda: PlainGaussian(width=True), "width must be a number"),
    (lambda: Yukawa(1.0, "1.0"), "c1 must be a number"),
    (lambda: GaussianMixture([(True, (1.0,))]), "must be positive numbers"),
    (lambda: GaussianMixture([(1.0, ("2",))]), "must be positive numbers"),
], ids=["offset_fraction", "offset_bool", "points_fraction", "points_bool",
        "grid_points", "hopping_value_string", "tol_string",
        "tol_negative", "tol_zero", "xtol_string", "tol_gap_bool", "xtol_zero",
        "tol_gap_negative", "width_bool", "yukawa_string", "mixture_weight_bool",
        "mixture_scale_string"])
def test_integer_fields_rejected_on_direct_construction(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


def test_round_trip_and_hash_stability(tmp_path):
    cfg = parse_config_dict(minimal_config(beta=[0.1, 2.0]))
    text = serialize_config(cfg)
    path = tmp_path / "exp.json"
    path.write_text(text)
    cfg2 = parse_config(str(path))
    assert cfg2.normalized == cfg.normalized
    assert config_hash(cfg2) == config_hash(cfg)
    # bit-faithful float round trip through the 17-digit format
    ugly = 0.1 + 0.2
    cfg3 = parse_config_dict(minimal_config(beta=[ugly]))
    cfg4 = parse_config_dict(json.loads(serialize_config(cfg3)))
    assert cfg4.beta[0] == ugly


README_CONFIG = {
    "schema_version": 1,
    "dimension": 1,
    "hopping": [[[0], 2.0], [[1], -1.0], [[-1], -1.0]],
    "potentials": {
        "plus": {"family": "plain_gaussian", "width": 1.0},
        "minus": {"family": "yukawa", "c0": 1.0, "c1": 1.0, "c2": 1.0},
    },
    "beta": [2.0],
    "L": [1, 2, 3],
    "gamma_minus": [0.5, 0.35, 0.25],
    "gamma_plus": [0.5, 0.35, 0.25],
    "order": "minus_first",
    "boundary": "periodic",
    "output_dir": "out",
}


@pytest.mark.parametrize("data, digest", [
    (README_CONFIG, "f350d4bc86e83453"),
    ({"schema_version": 1, "dimension": 1, "hopping": [[[0], 2.0], [[1], -1.0]],
      "eta": {"plus": 0.6, "minus": 0.4}, "beta": [2.0]}, "2b2bb9d6494613b1"),
], ids=["readme", "eta_only"])
def test_config_hash_pinned_across_versions(data, digest):
    # every stored row carries this tag: a change here orphans existing stores
    assert config_hash(parse_config_dict(data)) == digest


_CHANGED_SPEC_FIELDS = {
    "points_per_axis": 32, "tol": 1e-7, "grid_points": 11,
    "xtol": 1e-9, "tol_gap": 1e-8,
}


@pytest.mark.parametrize("section, name", [
    (section, f.name)
    for section, spec in (("quadrature", QuadratureSpec), ("optimizer", OptimizerSpec))
    for f in dataclasses.fields(spec)
])
def test_config_hash_sees_every_spec_field(section, name):
    base = config_hash(parse_config_dict(minimal_config()))
    changed = minimal_config(**{section: {name: _CHANGED_SPEC_FIELDS[name]}})
    assert config_hash(parse_config_dict(changed)) != base


def test_eta_override_beats_born_value():
    cfg = parse_config_dict(minimal_config(eta={"plus": 0.25}))
    assert cfg.eta_plus == 0.25


def test_missing_config_file():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("/nonexistent/path.json")


# -- store -------------------------------------------------------------------------


def test_csv_schema_exact_columns(tmp_path):
    store = ResultStore(str(tmp_path))
    store.append_sweep_records([make_record()])
    with open(store.sweep_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SWEEP_COLUMNS


def test_store_dedupes_identical_rows(tmp_path):
    store = ResultStore(str(tmp_path))
    rec = make_record()
    assert store.append_sweep_records([rec]) == 1
    assert store.append_sweep_records([rec]) == 0
    # a second store instance sees the persisted row and still dedupes
    store2 = ResultStore(str(tmp_path))
    assert store2.append_sweep_records([rec]) == 0
    assert len(store2.sweep_records()) == 1
    # round-trip of the stored doubles is exact
    assert store2.sweep_records()[0].pressure == rec.pressure


def test_store_round_trips_every_record_field(tmp_path):
    rec = make_record(d=2, L=3, beta=1 / 3, gamma_minus=0.1 + 0.2, gamma_plus=2.0**-40,
                      boundary="open", pressure=-1e-300, density=np.nextafter(1.0, 2.0),
                      runtime_ms=123456, config_hash="0123456789abcdef")
    ResultStore(str(tmp_path)).append_sweep_records([rec])
    assert ResultStore(str(tmp_path)).sweep_records() == [rec]


def test_store_find_by_hash_and_key(tmp_path):
    store = ResultStore(str(tmp_path))
    store.append_sweep_records([make_record(), make_record(L=2, pressure=0.5)])
    where = dict(d=1, beta=1.0, boundary="periodic")
    found = store.find_sweep_record("abc", (2, 0.5, 0.5), **where)
    assert found is not None and found.pressure == 0.5
    assert store.find_sweep_record("zzz", (2, 0.5, 0.5), **where) is None
    # every field of the record key takes part in the lookup
    for other in (dict(where, beta=4.0), dict(where, d=2), dict(where, boundary="open")):
        assert store.find_sweep_record("abc", (2, 0.5, 0.5), **other) is None


def test_store_drops_torn_trailing_row(tmp_path, caplog):
    store = ResultStore(str(tmp_path))
    store.append_sweep_records([make_record(), make_record(L=2)])
    with open(store.sweep_path, "a", encoding="utf-8") as fh:
        fh.write("1,3,1,0.5,0.")  # a crash mid-append
    with caplog.at_level("WARNING", logger="kaclab.store"):
        store2 = ResultStore(str(tmp_path))
    assert "partial trailing row" in caplog.text
    assert len(store2.sweep_records()) == 2
    # the record is recomputed and appended on a clean line
    assert store2.append_sweep_records([make_record(L=3)]) == 1
    with open(store.sweep_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SWEEP_COLUMNS
    assert [r[1] for r in rows[1:]] == ["1", "2", "3"]
    assert len(ResultStore(str(tmp_path)).sweep_records()) == 3


def test_store_append_cuts_a_row_torn_after_the_store_was_opened(tmp_path, caplog):
    # a second writer crashes mid-append after this store has read the file:
    # the next append cuts the torn row and writes on a clean line
    store = ResultStore(str(tmp_path))
    old = [make_record(), make_record(L=2)]
    store.append_sweep_records(old)
    with open(store.sweep_path, "a", encoding="utf-8") as fh:
        fh.write("1,3,1,0.5,0.")
    with caplog.at_level("WARNING", logger="kaclab.store"):
        assert store.append_sweep_records([make_record(L=4)]) == 1
    assert "dropping partial trailing row" in caplog.text
    with open(store.sweep_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SWEEP_COLUMNS
    assert [r[1] for r in rows[1:]] == ["1", "2", "4"]
    assert ResultStore(str(tmp_path)).sweep_records() == [*old, make_record(L=4)]


def test_store_torn_header_starts_over(tmp_path):
    with open(tmp_path / "sweep.csv", "w", encoding="utf-8") as fh:
        fh.write("d,L,be")
    store = ResultStore(str(tmp_path))
    assert store.sweep_records() == []
    store.append_sweep_records([make_record()])
    assert len(ResultStore(str(tmp_path)).sweep_records()) == 1


GAP_ROW = dict(beta=1.0, c_minus=0.25, c_plus=0.75, residual=1e-10, iterations=44,
               converged=True, config_hash="abc")


def test_gap_csv_empty_file_gets_header(tmp_path):
    open(tmp_path / "gap.csv", "w").close()
    store = ResultStore(str(tmp_path))
    store.append_gap_rows([GAP_ROW])
    assert [r["beta"] for r in store.gap_rows()] == ["1"]
    dat, _ = emit_plot_data("gap_vs_beta", store, "abc")
    assert Path(dat).read_text().splitlines()[1].split()[0] == "1"


def test_gap_csv_torn_row_is_cut_before_the_next_append(tmp_path, caplog):
    store = ResultStore(str(tmp_path))
    store.append_gap_rows([GAP_ROW])
    with open(store.gap_path, "a", encoding="utf-8") as fh:
        fh.write("3.0,0.1")  # a crash mid-append
    with caplog.at_level("WARNING", logger="kaclab.store"):
        store.append_gap_rows([dict(GAP_ROW, beta=2.0)])
    assert "partial trailing row" in caplog.text
    rows = store.gap_rows()
    assert [r["beta"] for r in rows] == ["1", "2"]
    assert [r["converged"] for r in rows] == ["1", "1"]


# -- plot data ----------------------------------------------------------------------


def test_plot_data_missing_records(tmp_path):
    store = ResultStore(str(tmp_path))
    with pytest.raises(InsufficientDataError):
        emit_plot_data("pressure_vs_gamma", store, "abc")


def test_plot_data_pressure_rows(tmp_path):
    store = ResultStore(str(tmp_path))
    store.append_sweep_records([
        make_record(gamma_minus=0.5), make_record(gamma_minus=0.25),
        make_record(gamma_minus=0.125),
    ])
    dat, sidecar = emit_plot_data("pressure_vs_gamma", store, "abc")
    lines = Path(dat).read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 4  # header + 3 rows
    assert os.path.exists(sidecar)


def test_plot_data_payoff_surface_monotone_axes(tmp_path):
    store = ResultStore(str(tmp_path))
    rows = [dict(beta=1.0, c_minus=cm, c_plus=cp, payoff=-(cm**2) - cp, config_hash="abc")
            for cm in (0.5, 0.0, 1.0) for cp in (1.0, 0.0)]
    store.write_game_grid(rows)
    dat, _ = emit_plot_data("payoff_surface", store, "abc")
    data = np.loadtxt(dat)
    assert data.shape == (6, 4)
    assert np.all(data[:, 0] == 1.0)  # the beta column
    assert np.all(np.diff(data[:, 1]) >= 0)  # primary axis sorted


# -- CLI ----------------------------------------------------------------------------


def write_config(tmp_path, data):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_bad_config_exit_code(tmp_path, capsys):
    for overrides, messages in [
        ({"gamma_plus": [1.0]}, ["open interval"]),
        # the zone rule is no longer a key; a config that still names one is refused
        ({"quadrature": {"scheme": "midpoint_tensor"}}, ["config error: quadrature: ", "'scheme'"]),
        # so are the strategy boxes, which follow from the model, and the switch of the check
        ({"optimizer": {"c_minus_box": [0, 1]}}, ["config error: optimizer: ", "'c_minus_box'"]),
        ({"quadrature": {"refinement_check": False}},
         ["config error: quadrature: ", "'refinement_check'"]),
        # and the step cap of the root searches and the window of the reported minima
        ({"optimizer": {"max_iter": 2}}, ["config error: optimizer: ", "'max_iter'"]),
        ({"optimizer": {"degeneracy_window": 1e-3}},
         ["config error: optimizer: ", "'degeneracy_window'"]),
    ]:
        path = write_config(tmp_path, minimal_config(**overrides))
        assert main(["validate-potential", "--config", path]) == 2
        err = capsys.readouterr().err
        assert all(message in err for message in messages)


@pytest.mark.parametrize("command, optimizer", [
    ("game", {"grid_points": 33.5}),
    ("gap", {"grid_points": 2.5}),
    ("gap", {"grid_points": 2}),
])
def test_cli_fractional_integer_field_exit_code(tmp_path, capsys, command, optimizer):
    path = write_config(tmp_path, minimal_config(optimizer=optimizer))
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    ('"beta": [Infinity]', "beta"),
    ('"beta": [1.0], "eta": {"plus": Infinity}', "eta.plus"),
], ids=["beta_inf", "eta_plus_inf"])
def test_cli_non_finite_number_exit_code(tmp_path, capsys, text, key):
    path = tmp_path / "exp.json"
    path.write_text('{"schema_version": 1, "dimension": 1, "hopping": [[[0], 2.0], [[1], -1.0]], '
                    '"L": [1], ' + text + "}")
    assert main(["pressure-mf", "--config", str(path)]) == 2
    assert f"config error: {key}:" in capsys.readouterr().err


def test_cli_validate_potential(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    assert main(["validate-potential", "--config", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["plus"]["positive_definite"] is True
    assert out["plus"]["scaling_monotone"] is True


def cold_game_config(beta, eta_minus, **overrides):
    """The 1-D Laplacian at low temperature, eta_+ = 1."""
    return minimal_config(potentials={}, beta=[beta], eta={"plus": 1.0, "minus": eta_minus},
                          **overrides)


def test_cli_accuracy_exit_code(tmp_path, capsys):
    # at beta = 24, eta_- = 2 a 32-point zone rule fails its refinement
    # check in the sharp search
    path = write_config(tmp_path, cold_game_config(24.0, 2.0,
                                                   quadrature={"points_per_axis": 32}))
    assert main(["game", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    first, second = captured.err.splitlines()
    match = re.fullmatch(r"accuracy error: quadrature not converged: "
                         r"\|(\S+) - (\S+)\| > 1e-08", first)
    assert match is not None
    fine, base = map(float, match.groups())
    assert abs(fine - 0.0012155109261529507) <= 1e-15
    assert abs(base - 0.0012159534754844494) <= 1e-15
    assert second.startswith("partial values: ")
    values = ast.literal_eval(second.removeprefix("partial values: "))
    assert sorted(values) == ["base", "refined"]
    assert (f"{values['refined']:.15g}", f"{values['base']:.15g}") == match.groups()


def test_cli_root_search_open_at_the_step_cap_exit_code(tmp_path, capsys, monkeypatch):
    # the root searches of this game close in a few steps; one still open at
    # the cap is an accuracy error, never a bracket end returned as a root
    path = write_config(tmp_path, cold_game_config(4.0, 2.0))
    cfg = parse_config(path)
    mf = cfg.meanfield_params(4.0)
    game._sharp_search.cache_clear()
    game._solved_game.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(game, "_MAX_STEPS", 2)
        with pytest.raises(AccuracyError, match="root search still open after 2 steps") as err:
            game.solve_game(mf, cfg.quadrature, cfg.optimizer)
        lo, hi = err.value.values["bracket"]
        assert 0.0 <= lo < hi
        assert main(["game", "--config", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "partial values: {'bracket': [" in captured.err
    assert main(["game", "--config", path]) == 0
    result = json.loads(capsys.readouterr().out)["game"]["4.0"]
    assert result["p_sharp"] == pytest.approx(0.0381122561, abs=1e-10)
    assert result["p_flat"] == pytest.approx(0.0381122561, abs=1e-10)
    assert result["gap_residual_sharp"] <= cfg.optimizer.tol_gap


def test_cli_capacity_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config(L=[9]))
    assert main(["pressure-ed", "--config", path]) == 4


def test_cli_pressure_commands(tmp_path, capsys):
    data = minimal_config(L=[0, 1])
    path = write_config(tmp_path, data)
    assert main(["pressure-ed", "--config", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["pressure_ed"]) == 2
    assert main(["pressure-mf", "--config", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(np.isfinite(r["pressure"]) for r in out["pressure_mf"])


def test_cli_game_gap_and_plot(tmp_path, capsys):
    out_dir = str(tmp_path / "results")
    data = minimal_config(
        potentials={
            "plus": {"family": "plain_gaussian", "width": 1.0},
            "minus": {"family": "yukawa", "c0": 1.0, "c1": 1.0, "c2": 1.0},
        },
        beta=[2.0],
        optimizer={"grid_points": 9},
    )
    path = write_config(tmp_path, data)
    assert main(["game", "--config", path, "--out", out_dir, "--dump-grid"]) == 0
    payload = json.loads(capsys.readouterr().out)
    game_out = payload["game"]["2.0"]
    assert game_out["p_flat"] >= game_out["p_sharp"] - 1e-8
    assert main(["gap", "--config", path, "--out", out_dir]) == 0
    capsys.readouterr()
    assert main(["plot-data", "--config", path, "--out", out_dir,
                 "--kind", "payoff_surface"]) == 0
    assert main(["plot-data", "--config", path, "--out", out_dir,
                 "--kind", "gap_vs_beta"]) == 0


def test_cli_calls_share_the_zone_tables_of_equal_kernels(tmp_path, capsys, monkeypatch):
    from kaclab import game, quasifree

    shapes = []
    dispersion = quasifree.dispersion

    def counting(h, k):
        shapes.append(np.shape(k))
        return dispersion(h, k)

    monkeypatch.setattr(quasifree, "dispersion", counting)
    quasifree._bz_table.cache_clear()
    game._sharp_search.cache_clear()  # and no solved game to read back
    game._solved_game.cache_clear()
    paths = []
    for i, (hopping, eta) in enumerate([
            ([[[0], 2.0], [[1], -1.0], [[-1], -1.0]], {"plus": 0.5, "minus": 1.5}),
            ([[[1], -1], [[0], 2]], {"plus": 0.2, "minus": 0.8})]):  # the same kernel
        path = tmp_path / f"exp{i}.json"
        path.write_text(json.dumps(minimal_config(
            hopping=hopping, eta=eta, beta=[2.0], optimizer={"grid_points": 9})))
        paths.append(str(path))
    for path in paths:
        assert main(["game", "--config", path]) == 0
    for path in paths:
        assert main(["gap", "--config", path]) == 0
    capsys.readouterr()
    # one table at the base resolution (also read by gap) and one at its refinement
    assert sorted(shapes) == [(64, 1), (128, 1)]


def test_cli_game_and_gap_read_back_print_what_cold_calls_print(tmp_path, capsys):
    from kaclab import game, quasifree

    path = write_config(tmp_path, minimal_config(
        potentials={}, beta=[2.0, 5.0], eta={"plus": 0.7, "minus": 1.3},
        optimizer={"grid_points": 9}))

    def clear_caches():
        quasifree._bz_table.cache_clear()
        game._sharp_search.cache_clear()
        game._solved_game.cache_clear()

    def printed(command):
        assert main([command, "--config", path]) == 0
        return capsys.readouterr().out

    cold = {}
    for command in ("game", "gap"):
        clear_caches()
        cold[command] = printed(command)
    clear_caches()
    assert [printed(c) for c in ("game", "gap", "game")] == [
        cold["game"], cold["gap"], cold["game"]]


def test_cli_parser_keeps_no_flag_between_calls(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config(beta=[2.0], optimizer={"grid_points": 9}))
    assert main(["game", "--config", path, "--dump-grid", "--out", str(tmp_path / "d")]) == 0
    assert "grid" in json.loads(capsys.readouterr().out)["game"]["2.0"]
    assert main(["game", "--config", path]) == 0
    first = capsys.readouterr().out
    assert "grid" not in json.loads(first)["game"]["2.0"]
    with pytest.raises(SystemExit) as exc:
        main(["game", "--config", path, "--dump-grid", "--threads", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["game", "--config", path]) == 0
    assert capsys.readouterr().out == first


def test_cli_kac_sweep_pipeline(tmp_path, capsys):
    out_dir = str(tmp_path / "results")
    data = minimal_config(
        potentials={"minus": {"family": "plain_gaussian", "width": 1.0}},
        beta=[2.0],
        L=[0, 1],
        gamma_minus=[0.5, 0.25, 0.125],
        gamma_plus=[0.5],
        optimizer={"grid_points": 9},
    )
    path = write_config(tmp_path, data)
    assert main(["kac-sweep", "--config", path, "--out", out_dir]) == 0
    payload = json.loads(capsys.readouterr().out)
    report = payload["kac_sweep"]["2.0"]["limit_report"]
    assert report["L_max"] == 1
    assert os.path.exists(os.path.join(out_dir, "sweep.csv"))
    # rerun: records are reused, no duplicates
    assert main(["kac-sweep", "--config", path, "--out", out_dir]) == 0
    capsys.readouterr()
    with open(os.path.join(out_dir, "sweep.csv")) as fh:
        n_rows = len(fh.read().strip().splitlines())
    assert n_rows == 1 + 2 * 3  # header + |L| * |schedule|
    assert main(["plot-data", "--config", path, "--out", out_dir,
                 "--kind", "pressure_vs_gamma"]) == 0


BOTH_POTENTIALS = {"plus": {"family": "plain_gaussian", "width": 1.0},
                   "minus": {"family": "yukawa", "c0": 1.0, "c1": 1.0, "c2": 1.0}}


def test_cli_game_grid_keeps_every_beta(tmp_path, capsys):
    out_dir = str(tmp_path / "results")
    path = write_config(tmp_path, minimal_config(potentials=BOTH_POTENTIALS, beta=[1.0, 2.0],
                                                 optimizer={"grid_points": 5}))
    assert main(["game", "--config", path, "--out", out_dir, "--dump-grid"]) == 0
    assert main(["plot-data", "--config", path, "--out", out_dir,
                 "--kind", "payoff_surface"]) == 0
    capsys.readouterr()
    with open(os.path.join(out_dir, "game_grid.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["beta"] for r in rows] == ["1"] * 25 + ["2"] * 25
    data = np.loadtxt(os.path.join(out_dir, "payoff_surface.dat"))
    assert data.shape == (50, 4)
    assert list(data[:, 0]) == [1.0] * 25 + [2.0] * 25


def test_cli_game_grid_equals_scalar_payoffs(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config(potentials=BOTH_POTENTIALS, beta=[2.0],
                                                 optimizer={"grid_points": 7}))
    assert main(["game", "--config", path, "--out", str(tmp_path / "out"), "--dump-grid"]) == 0
    result = json.loads(capsys.readouterr().out)["game"]["2.0"]
    cfg = parse_config(path)
    mf = cfg.meanfield_params(2.0)
    assert len(result["grid"]) == 49
    for cm, cp, value in result["grid"]:
        assert abs(value - payoff(mf, GamePoint(cm, cp), cfg.quadrature)) <= 1e-15
    # the game's work counters reach its JSON
    assert result["kernel_calls"] > 0 and result["payoff_evaluations"] > 0
    assert 0.0 < result["refinement_margin"] <= cfg.quadrature.tol
    # the grid spans the game's strategy boxes
    (_, cm_hi), (_, cp_hi) = strategy_boxes(mf)
    assert (result["grid"][-1][0], result["grid"][-1][1]) == (cm_hi, cp_hi)


def test_cli_game_grid_on_an_eta_axis_has_one_c_minus_node(tmp_path, capsys):
    # eta_- = 0: the c_- box is the point 0, so the grid is one row of c_+ nodes
    path = write_config(tmp_path, minimal_config(optimizer={"grid_points": 5}))
    assert main(["game", "--config", path, "--out", str(tmp_path / "out"), "--dump-grid"]) == 0
    grid = json.loads(capsys.readouterr().out)["game"]["1.0"]["grid"]
    cfg = parse_config(path)
    assert cfg.eta_minus == 0.0 < cfg.eta_plus
    assert [cm for cm, _, _ in grid] == [0.0] * 5
    assert [cp for _, cp, _ in grid] == np.linspace(
        0.0, 2.0 * math.sqrt(cfg.eta_plus), 5).tolist()


def test_cli_game_grid_keeps_other_configs(tmp_path, capsys):
    out_dir = str(tmp_path / "results")
    paths = []
    for width in (1.0, 2.0):  # two configs, one output directory
        data = minimal_config(potentials={**BOTH_POTENTIALS,
                                          "plus": {"family": "plain_gaussian", "width": width}},
                              optimizer={"grid_points": 5})
        (tmp_path / f"w{width}").mkdir()
        paths.append(write_config(tmp_path / f"w{width}", data))
        assert main(["game", "--config", paths[-1], "--out", out_dir, "--dump-grid"]) == 0
    for path in paths:
        assert main(["plot-data", "--config", path, "--out", out_dir,
                     "--kind", "payoff_surface"]) == 0
        assert np.loadtxt(os.path.join(out_dir, "payoff_surface.dat")).shape == (25, 4)


def test_cli_sweep_csv_with_other_columns_exit_code(tmp_path, capsys):
    out_dir = tmp_path / "results"
    out_dir.mkdir()
    record = vars(make_record())  # a row written before runtime_ms was a column
    old_columns = [c for c in SWEEP_COLUMNS if c != "runtime_ms"]
    (out_dir / "sweep.csv").write_text(
        ",".join(old_columns) + "\n" + ",".join(str(record[c]) for c in old_columns) + "\n")
    path = write_config(tmp_path, sweep_config())
    assert main(["kac-sweep", "--config", path, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "sweep.csv" in err and "runtime_ms" in err


@pytest.mark.parametrize("command", ["game", "gap"])
def test_cli_writes_nothing_without_out(tmp_path, capsys, monkeypatch, command):
    # game and gap print their results; only --out (or game's --dump-grid)
    # makes them write, so the configuration's output_dir stays absent
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, minimal_config(output_dir="out", optimizer={"grid_points": 9}))
    assert main([command, "--config", path]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json"]


def test_cli_gap_rerun_keeps_one_row_per_beta(tmp_path, capsys):
    # gap.csv follows the sweep.csv rule: a row per (config_hash, beta)
    path = write_config(tmp_path, minimal_config(beta=[1.0, 2.0], optimizer={"grid_points": 9}))
    for _ in range(2):
        assert main(["gap", "--config", path, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    with open(tmp_path / "gap.csv", newline="", encoding="utf-8") as fh:
        assert [r["beta"] for r in csv.DictReader(fh)] == ["1", "2"]
    assert main(["plot-data", "--config", path, "--out", str(tmp_path),
                 "--kind", "gap_vs_beta"]) == 0
    rows = (tmp_path / "gap_vs_beta.dat").read_text().splitlines()[1:]
    assert [r.split()[0] for r in rows] == ["1", "2"]


def test_store_rows_repeated_in_one_call_are_written_once(tmp_path):
    store = ResultStore(str(tmp_path))
    assert store.append_sweep_records([make_record(), make_record(pressure=0.5)]) == 1
    assert [r.pressure for r in ResultStore(str(tmp_path)).sweep_records()] == [0.25]
    assert store.append_gap_rows([GAP_ROW, dict(GAP_ROW, residual=0.0),
                                  dict(GAP_ROW, config_hash="xyz")]) == 2
    assert [(r["beta"], r["config_hash"]) for r in store.gap_rows()] == [("1", "abc"),
                                                                         ("1", "xyz")]


def test_cli_gap_csv_with_other_columns_exit_code(tmp_path, capsys):
    old_columns = [c for c in GAP_ROW if c != "iterations"]  # written before iterations
    old = ",".join(old_columns) + "\n" + ",".join(str(GAP_ROW[c]) for c in old_columns) + "\n"
    (tmp_path / "gap.csv").write_text(old)
    path = write_config(tmp_path, minimal_config())
    assert main(["gap", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "gap.csv" in err and "iterations" in err and "use a fresh output directory" in err
    assert (tmp_path / "gap.csv").read_text() == old


@pytest.mark.parametrize("command, table", [
    (["game", "--dump-grid"], "game_grid.csv"),
    (["gap"], "gap.csv"),
    (["kac-sweep"], "sweep.csv"),
    (["game"], "game_beta_{beta}.json"),
    (["kac-sweep"], "sweep_manifest_beta_{beta}.json"),
], ids=["game", "gap", "kac-sweep", "game-beta-json", "kac-sweep-manifest"])
@pytest.mark.parametrize("case", ["below_a_file", "table_is_a_directory"])
def test_cli_unusable_output_path_exit_code(tmp_path, capsys, command, table, case):
    data = sweep_config()
    path = write_config(tmp_path, data)
    if case == "below_a_file":
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "results"
        named = out_dir
    else:
        out_dir = tmp_path / "results"
        named = out_dir / table.format(beta=format(data["beta"][0], ".17g"))
        named.mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    assert main([*command, "--config", path, "--out", str(out_dir)]) == 2
    assert f"config error: {named}" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_plot_data_prints_only_its_config(tmp_path, capsys):
    out_dir = str(tmp_path / "results")
    paths = []
    for width in (1.0, 2.0):  # two configs, one output directory
        data = sweep_config(potentials={"plus": {"family": "plain_gaussian", "width": width}},
                            gamma_plus=[0.5, 0.3])
        path = tmp_path / f"width{width}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
        assert main(["kac-sweep", "--config", paths[-1], "--out", out_dir]) == 0
        assert main(["gap", "--config", paths[-1], "--out", out_dir]) == 0
    capsys.readouterr()
    assert len(ResultStore(out_dir).sweep_records()) == 24
    for kind, rows in (("pressure_vs_gamma", 12), ("gap_vs_beta", 1)):
        assert main(["plot-data", "--config", paths[0], "--out", out_dir, "--kind", kind]) == 0
        capsys.readouterr()
        lines = Path(out_dir, f"{kind}.dat").read_text().splitlines()
        assert len(lines) == 1 + rows
    # a config without stored rows is a configuration error, not an empty file
    other = write_config(tmp_path, sweep_config(beta=[3.0]))
    assert main(["plot-data", "--config", other, "--out", out_dir,
                 "--kind", "gap_vs_beta"]) == 2
    assert "no rows of config" in capsys.readouterr().err


def sweep_config(**overrides):
    data = dict(
        potentials={"minus": {"family": "plain_gaussian", "width": 1.0}},
        L=[0, 1],
        gamma_minus=[0.5, 0.25, 0.125],
        gamma_plus=[0.5],
        optimizer={"grid_points": 9},
    )
    data.update(overrides)
    return minimal_config(**data)


def test_cli_kac_sweep_rejects_repeated_box_sizes_before_writing(tmp_path, capsys):
    out_dir = tmp_path / "results"
    path = write_config(tmp_path, sweep_config(L=[1, 1]))
    assert main(["kac-sweep", "--config", path, "--out", str(out_dir)]) == 2
    assert "L: expected a nonempty list of nonnegative integers, no two equal" in (
        capsys.readouterr().err)
    assert not (out_dir / "sweep.csv").exists()


@pytest.mark.parametrize("overrides, message", [
    ({"L": [1]}, "limit report needs at least two box sizes"),
    ({"gamma_minus": [0.5, 0.25]}, "limit report needs at least three schedule points"),
    ({"gamma_plus": [0.5, 0.25], "order": "plus_first"},
     "limit report needs at least three schedule points"),
    ({"gamma_minus": [0.25, 0.5, 0.125]}, "gamma_minus_schedule must be strictly decreasing"),
], ids=["one_box_size", "two_schedule_points", "two_points_on_the_plus_first_path",
        "increasing_schedule"])
def test_cli_kac_sweep_rejects_a_plan_without_a_limit_report_before_writing(
        tmp_path, capsys, overrides, message):
    out_dir = tmp_path / "results"
    path = write_config(tmp_path, sweep_config(**overrides))
    assert main(["kac-sweep", "--config", path, "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {message}" in captured.err
    assert not (out_dir / "sweep.csv").exists()
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["game", "gap", "kac-sweep"])
@pytest.mark.parametrize("beta", [[4.0, 4.0], [2.0, 4, 4.0]], ids=["twice", "int_and_float"])
def test_cli_rejects_a_repeated_beta_before_any_output(tmp_path, capsys, command, beta):
    out_dir = tmp_path / "results"
    path = write_config(tmp_path, sweep_config(beta=beta))
    assert main([command, "--config", path, "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "beta: no two entries may be equal" in captured.err
    assert not out_dir.exists()


def test_cli_kac_sweep_keeps_rows_per_beta(tmp_path, capsys):
    out_dir = str(tmp_path / "results")
    path = write_config(tmp_path, sweep_config(beta=[1.0, 4.0]))
    assert main(["kac-sweep", "--config", path, "--out", out_dir]) == 0
    payload = json.loads(capsys.readouterr().out)["kac_sweep"]
    rows = ResultStore(out_dir).sweep_records()
    assert len(rows) == 12
    assert sorted(r.beta for r in rows) == [1.0] * 6 + [4.0] * 6
    for beta, summary in payload.items():
        stored = {r.gamma_minus: r.pressure for r in rows
                  if r.beta == float(beta) and r.L == 1}
        report = summary["limit_report"]
        assert report["pressures"] == [stored[g] for g in report["gammas"]]


def test_cli_kac_sweep_writes_one_manifest_per_beta(tmp_path, capsys):
    out_dir = tmp_path / "results"
    path = write_config(tmp_path, sweep_config(beta=[2.0000001, 2.0000002]))
    assert main(["kac-sweep", "--config", path, "--out", str(out_dir)]) == 0
    manifests = sorted(out_dir.glob("sweep_manifest_beta_*.json"))
    assert [json.loads(p.read_text())["beta"] for p in manifests] == [2.0000001, 2.0000002]


def test_cli_kac_sweep_manifest_lists_fresh_records(tmp_path, capsys):
    out_dir = tmp_path / "results"
    path = write_config(tmp_path, sweep_config())
    for fresh in (6, 0):  # the second run reuses every record
        assert main(["kac-sweep", "--config", path, "--out", str(out_dir)]) == 0
        capsys.readouterr()
        (manifest,) = out_dir.glob("sweep_manifest_beta_*.json")
        stages = json.loads(manifest.read_text())["fresh_records"]
        assert len(stages) == fresh
    with open(out_dir / "sweep.csv") as fh:
        assert next(csv.reader(fh)) == list(SWEEP_COLUMNS)
    assert main(["kac-sweep", "--config", path, "--out", str(tmp_path / "again")]) == 0
    capsys.readouterr()
    (manifest,) = (tmp_path / "again").glob("sweep_manifest_beta_*.json")
    stages = json.loads(manifest.read_text())["fresh_records"]
    assert {(s["L"], s["gamma_minus"]) for s in stages} == {
        (L, g) for L in (0, 1) for g in (0.5, 0.25, 0.125)}
    for s in stages:
        assert s["build_ms"] >= 0 and s["gibbs_ms"] >= 0
        # 1 site: four (N, 2S_z) blocks of order 1, with (1, 1) and (1, -1)
        # paired; 3 sites: 17 classes of (N, 2S_z, k) blocks, the k = 0 ones
        # split into inversion-even and -odd real blocks, 20 in all, of
        # which 18 hold lowest-weight states, the orders diagonalized
        assert (s["kept_blocks"], s["largest_block"], s["eig_dim3"]) == (
            (3, 1, 3) if s["L"] == 0 else (18, 3, 72))


def test_cli_kac_sweep_rejects_eta_other_than_its_potentials(tmp_path, capsys):
    # the Kac records depend on the potentials only; an eta block naming
    # another mean-field model used to be compared with them silently
    data = dict(README_CONFIG, L=[1, 2], eta={"plus": 0, "minus": 0})
    path = write_config(tmp_path, data)
    assert main(["kac-sweep", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    cfg = parse_config_dict(dict(README_CONFIG))
    for role, fhat0 in (("plus", cfg.eta_plus), ("minus", cfg.eta_minus)):
        assert f"eta.{role} = 0.0 differs from fhat_{role}(0) = {fhat0!r}" in err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_cli_kac_sweep_rejects_a_potential_outside_the_cone(tmp_path, capsys):
    # fhat_- of 4 exp(-x^2) cos 2x peaks at q* = 1.9, not at 0: the game at
    # eta = fhat(0) is no limit of the Kac records, which used to be
    # compared with it silently
    r = np.linspace(0.0, 8.0, 801)
    table = {"family": "table_spline", "radii": r.tolist(),
             "values": (4 * np.exp(-r**2) * np.cos(2 * r)).tolist()}
    out_dir = tmp_path / "results"
    path = write_config(tmp_path, sweep_config(potentials={"minus": table}, beta=[4.0],
                                               L=[1, 2], gamma_minus=[0.5, 0.25, 0.1]))
    assert main(["kac-sweep", "--config", path, "--out", str(out_dir)]) == 2
    assert ("potentials.minus (table_spline) is outside the cone: monotonicity_violation = "
            in capsys.readouterr().err)
    assert not (out_dir / "sweep.csv").exists()
    assert main(["validate-potential", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)["minus"]
    assert report["monotonicity_violation"] > 0.8 and not report["scaling_monotone"]


def test_package_and_cli_import_leave_fock_unloaded():
    # the ED module is imported where it is used; the package names of it
    # still resolve
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, kaclab, kaclab.cli; print('kaclab.fock' in sys.modules); "
            "kaclab.FockBasis; print('kaclab.fock' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True).stdout.split()
    assert out == ["False", "True"]


@pytest.mark.parametrize("scale, ok", [(1.0, True), (1 + 1e-13, True), (1 + 1e-11, False)])
def test_kac_sweep_eta_must_be_fhat_zero(scale, ok):
    from kaclab.cli import _check_sweep_eta

    fhat0 = parse_config_dict(sweep_config()).eta_minus
    cfg = parse_config_dict(sweep_config(eta={"minus": fhat0 * scale, "plus": 0.0}))
    if ok:
        _check_sweep_eta(cfg)
    else:
        with pytest.raises(ConfigError, match="eta.minus"):
            _check_sweep_eta(cfg)
    with pytest.raises(ConfigError, match="eta.plus"):  # f_plus is the Yukawa potential
        _check_sweep_eta(parse_config_dict(minimal_config(eta={"plus": 0.5})))


def test_cli_kac_sweep_respects_dimension_cap(tmp_path, capsys):
    out_dir = str(tmp_path / "results")
    path = write_config(tmp_path, sweep_config(L=[0, 1, 2], dimension_cap=64))
    assert main(["pressure-ed", "--config", path]) == 4
    assert main(["kac-sweep", "--config", path, "--out", out_dir]) == 0
    summary = json.loads(capsys.readouterr().out)["kac_sweep"]["1.0"]
    assert summary["records"] == 6
    assert [f["key"][0] for f in summary["failures"]] == [2, 2, 2]
    assert all("exceeds cap 64" in f["error"] for f in summary["failures"])
    assert max(r.L for r in ResultStore(out_dir).sweep_records()) == 1


def test_cli_log_level_sets_which_records_reach_stderr(tmp_path, capsys):
    # a record skipped for the cap is logged as a warning: shown at the
    # default level and at warning, hidden at error; info adds one line
    # per fresh record
    path = write_config(tmp_path, sweep_config(L=[0, 1, 2], dimension_cap=64))
    skipped = "WARNING kaclab.sweep: sweep record (2, 0.5, 0.5) skipped: Fock dimension 4^5"
    fresh = "INFO kaclab.sweep: sweep record (0, 0.5, 0.5): 3 blocks"
    for level, shown in ((None, [skipped]), ("warning", [skipped]), ("error", []),
                         ("info", [skipped, fresh])):
        args = ["kac-sweep", "--config", path, "--out", str(tmp_path / str(level))]
        assert main(args if level is None else ["--log-level", level, *args]) == 0
        err = capsys.readouterr().err
        assert [line for line in (skipped, fresh) if line in err] == shown
    with pytest.raises(SystemExit) as exc:
        main(["--log-level", "loud", "selftest"])
    assert exc.value.code == 2
    assert "invalid choice: 'loud'" in capsys.readouterr().err


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 10
    assert "PASS  mean-field pair problems vs Fock ED, 3 open, 3 and 5 periodic sites" in out
    assert "PASS  momentum vs (N, 2S_z) sectors, 5-site periodic Kac box" in out
    assert "PASS  representative build vs global matrix, 5-site periodic Kac box" in out
    assert "PASS  lowest-weight spectrum vs (N, 2S_z) sectors, 5-site periodic Kac box" in out
    assert "PASS  cached-plan Kac build vs plain sectors, 5-site periodic box" in out
    assert "PASS  complex c_- gauge vs parity sectors, 5-site periodic box" in out


FOOTPRINT_SCRIPT = """
import json, sys
from kaclab.cli import main
game_cfg, sweep_cfg, yukawa_cfg, out_dir = sys.argv[1:]
codes = [main(["game", "--config", game_cfg]), main(["gap", "--config", game_cfg]),
         main(["kac-sweep", "--config", sweep_cfg, "--out", out_dir]),
         main(["pressure-mf", "--config", sweep_cfg])]
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
codes += [main(["validate-potential", "--config", yukawa_cfg]), main(["selftest"])]
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_cli_workload_commands_load_no_scipy(tmp_path):
    # the test modules import scipy themselves, so the calls run in a fresh interpreter
    configs = {
        "game": minimal_config(potentials={}, eta={"plus": 0.5, "minus": 1.5}, beta=[2.0]),
        "sweep": minimal_config(
            potentials={"plus": {"family": "gaussian_mixture",
                                 "terms": [[0.3, [1.0]], [0.2, [2.5]]]},
                        "minus": {"family": "yukawa", "c0": 1.0, "c1": 1.5}},
            L=[1, 2], gamma_minus=[0.5, 0.4, 0.3], gamma_plus=[0.3], beta=[2.0]),
        "yukawa": minimal_config(),  # c2 > 0
    }
    paths = []
    for name, data in configs.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(data))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(kaclab.__file__))}
    run = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, *map(str, paths),
                          str(tmp_path / "results")],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["scipy"] == []
    assert result["codes"] == [0] * 6


def test_cli_flags_only_where_used(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    for argv in (["pressure-ed", "--config", path, "--out", str(tmp_path)],
                 ["game", "--config", path, "--threads", "2"],
                 ["kac-sweep", "--config", path, "--threads", "2"],
                 ["pressure-ed", "--config", path, "--tolerance-overrides", "{}"],
                 ["selftest", "--out", str(tmp_path)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_cli_failed_check_exit_code(tmp_path, capsys, monkeypatch):
    from kaclab import fock
    from kaclab.errors import KaclabError

    def out_of_range(op, beta):
        raise KaclabError("Gibbs expectations out of range: density=2.5")

    monkeypatch.setattr(fock, "gibbs_observables", out_of_range)
    path = write_config(tmp_path, minimal_config(L=[0]))
    assert main(["pressure-ed", "--config", path]) == 5
    assert "Gibbs expectations out of range" in capsys.readouterr().err


def test_seed_key_removed():
    with pytest.raises(ConfigError, match="unknown configuration key 'seed'"):
        parse_config_dict(minimal_config(seed=7))
