"""The per-layer tracer in perfbench/ still finds and fires every kaclab span.

perfbench/tracing.py wraps kaclab functions by name; a refactor that
renames or stops calling one of them would silently zero a per-layer
metric.  This runs a tiny kac-sweep, and a tiny game and gap, under the
tracer and asks for the firing self-check of each workload, without
changing anything under perfbench/.
"""

import json
import os
import sys

from kaclab import fock, game, quasifree
from kaclab.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_fires_every_sweep_span(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    import tracing

    config = {
        "schema_version": 1,
        "dimension": 1,
        "hopping": [[[0], 2.0], [[1], -1.0]],
        "potentials": {
            "plus": {"family": "gaussian_mixture", "terms": [[0.3, [1.0]]]},
            "minus": {"family": "yukawa", "c0": 1.0, "c1": 1.0},
        },
        "beta": [2.0],
        "L": [0, 1],
        "gamma_minus": [0.5, 0.35, 0.25],
        "gamma_plus": [0.5],
        "boundary": "periodic",
        "optimizer": {"grid_points": 9},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    argv = ["kac-sweep", "--config", str(path), "--out", str(tmp_path / "results")]

    quasifree._bz_table.cache_clear()  # cold, as in a fresh bench process
    fock._cached_basis.cache_clear()
    game._sharp_search.cache_clear()
    game._solved_game.cache_clear()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert main(argv) == 0
        assert main(argv) == 0  # second run reads every record back from the store
    finally:
        tracing.uninstall(undo)
    capsys.readouterr()
    assert tracer.firing_problems("sweep-1d") == []
    assert tracer.counts["sweep.records_reused"] == 6


def test_tracer_fires_every_game_span(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    import tracing

    config = {
        "schema_version": 1,
        "dimension": 1,
        "hopping": [[[0], 2.0], [[1], -1.0]],
        "eta": {"plus": 0.6, "minus": 0.4},
        "beta": [2.0],
        "optimizer": {"grid_points": 9},
    }
    path = tmp_path / "game.json"
    path.write_text(json.dumps(config))

    quasifree._bz_table.cache_clear()  # cold, as in a fresh bench process
    game._sharp_search.cache_clear()
    game._solved_game.cache_clear()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert main(["game", "--config", str(path)]) == 0
        assert main(["gap", "--config", str(path)]) == 0
    finally:
        tracing.uninstall(undo)
    capsys.readouterr()
    assert tracer.firing_problems("game-1d") == []  # this also checks that no fock. span fired
