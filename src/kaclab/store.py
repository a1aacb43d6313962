"""Append-only result persistence: CSV record files plus JSON manifests.

One store per output directory.  Sweep rows are deduplicated on
(config_hash, d, L, beta, gamma_minus, gamma_plus, boundary); re-running
an identical configuration never duplicates rows.  Numbers are written
with 17 significant digits so that stored doubles round-trip exactly.  A
partial trailing row (a crash mid-append) of sweep.csv or gap.csv is cut
from the file with a warning before the file is read or appended to, so a
new row always starts on a clean line; an append into a missing or empty
file writes the header first.  Per-beta JSON files name beta with the same
17 digits, so distinct betas never share a file.
"""

from __future__ import annotations

import csv
import json
import logging
import os

from .errors import InsufficientDataError
from .sweep import SweepRecord

__all__ = ["ResultStore", "emit_plot_data", "SWEEP_COLUMNS"]

log = logging.getLogger(__name__)

SWEEP_COLUMNS = [
    "d", "L", "beta", "gamma_minus", "gamma_plus", "boundary",
    "pressure", "density", "runtime_ms", "config_hash",
]

GAP_COLUMNS = ["beta", "c_minus", "c_plus", "residual", "iterations", "converged",
               "config_hash"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _cut_torn_row(path: str, data: bytes) -> bytes:
    """data (the file's bytes) up to its last newline; a partial trailing
    row (a crash mid-append) is cut from the file with a warning."""
    end = data.rfind(b"\n") + 1
    if end < len(data):
        log.warning("%s: dropping partial trailing row %r", path, data[end:])
        with open(path, "r+b") as fh:
            fh.truncate(end)
    return data[:end]


def _read_rows(path: str) -> list:
    if not os.path.exists(path):
        return []
    with open(path, "rb") as fh:
        data = _cut_torn_row(path, fh.read())
    return list(csv.DictReader(data.decode("utf-8").splitlines()))


def _append_rows(path: str, columns, rows) -> None:
    """Append formatted rows after cutting a torn trailing row; the header
    goes first into a missing or empty file."""
    if os.path.exists(path) and os.path.getsize(path):
        with open(path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":  # torn: read the file to find its last newline
                fh.seek(0)
                _cut_torn_row(path, fh.read())
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(columns)
        writer.writerows(rows)


def _beta_name(stem: str, beta: float) -> str:
    # beta at 17 significant digits: distinct betas never share a file
    return f"{stem}_beta_{_fmt(float(beta))}"


def _record_key(rec: SweepRecord):
    return (rec.config_hash, rec.d, rec.L, rec.beta,
            rec.gamma_minus, rec.gamma_plus, rec.boundary)


class ResultStore:
    """CSV/JSON result files under one directory; single writer, many readers."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.sweep_path = os.path.join(out_dir, "sweep.csv")
        self.gap_path = os.path.join(out_dir, "gap.csv")
        self.grid_path = os.path.join(out_dir, "game_grid.csv")
        self._sweep_rows: dict = {}
        self._load_sweep()

    # -- sweep records --------------------------------------------------------

    def _load_sweep(self):
        for row in _read_rows(self.sweep_path):
            rec = SweepRecord(
                d=int(row["d"]), L=int(row["L"]), beta=float(row["beta"]),
                gamma_minus=float(row["gamma_minus"]),
                gamma_plus=float(row["gamma_plus"]),
                boundary=row["boundary"],
                pressure=float(row["pressure"]), density=float(row["density"]),
                runtime_ms=int(row["runtime_ms"]),
                config_hash=row["config_hash"],
            )
            self._sweep_rows[_record_key(rec)] = rec

    def find_sweep_record(self, config_hash: str, key, *, d: int, beta: float,
                          boundary: str) -> SweepRecord | None:
        """The stored record of plan key (L, gamma_minus, gamma_plus), or None."""
        L, gm, gp = key
        return self._sweep_rows.get((config_hash, d, L, beta, gm, gp, boundary))

    def sweep_records(self, config_hash: str | None = None) -> list:
        rows = list(self._sweep_rows.values())
        if config_hash is not None:
            rows = [r for r in rows if r.config_hash == config_hash]
        return rows

    def append_sweep_records(self, records) -> int:
        """Append rows not already present; returns the number written."""
        fresh = [r for r in records if _record_key(r) not in self._sweep_rows]
        if not fresh:
            return 0
        _append_rows(self.sweep_path, SWEEP_COLUMNS, (
            [rec.d, rec.L, _fmt(rec.beta), _fmt(rec.gamma_minus), _fmt(rec.gamma_plus),
             rec.boundary, _fmt(rec.pressure), _fmt(rec.density), rec.runtime_ms,
             rec.config_hash]
            for rec in fresh
        ))
        for rec in fresh:
            self._sweep_rows[_record_key(rec)] = rec
        return len(fresh)

    # -- gap solutions ---------------------------------------------------------

    def append_gap_rows(self, rows) -> None:
        _append_rows(self.gap_path, GAP_COLUMNS,
                     ([_fmt(row[c]) for c in GAP_COLUMNS] for row in rows))

    def gap_rows(self) -> list:
        return _read_rows(self.gap_path)

    # -- game results / payoff grids -------------------------------------------

    def write_game_result(self, beta: float, result_dict: dict, config_hash: str):
        payload = {"beta": beta, "config_hash": config_hash, **result_dict}
        return self._write_json(_beta_name("game", beta), payload)

    def write_game_grid(self, rows) -> str:
        with open(self.grid_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["c_minus", "c_plus", "payoff"])
            for cm, cp, val in rows:
                writer.writerow([_fmt(float(cm)), _fmt(float(cp)), _fmt(float(val))])
        return self.grid_path

    def game_grid_rows(self) -> list:
        return _read_rows(self.grid_path)

    # -- manifests ---------------------------------------------------------------

    def write_manifest(self, stem: str, beta: float, payload: dict) -> str:
        """Write <stem>_beta_<beta>.json."""
        return self._write_json(_beta_name(stem, beta), payload)

    def _write_json(self, name: str, payload: dict) -> str:
        path = os.path.join(self.out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        return path


_PLOT_KINDS = ("pressure_vs_gamma", "payoff_surface", "gap_vs_beta")


def emit_plot_data(kind: str, store: ResultStore, out_dir: str | None = None) -> list:
    """Write whitespace-delimited plot data plus a sidecar description.

    No rendering happens here; the .dat files are ready for any plotting
    tool.  Raises InsufficientDataError when the store lacks the records.
    """
    if kind not in _PLOT_KINDS:
        raise InsufficientDataError(f"unknown plot kind {kind!r}; known: {_PLOT_KINDS}")
    out_dir = out_dir or store.out_dir
    os.makedirs(out_dir, exist_ok=True)
    dat_path = os.path.join(out_dir, f"{kind}.dat")
    txt_path = os.path.join(out_dir, f"{kind}.txt")

    if kind == "pressure_vs_gamma":
        rows = store.sweep_records()
        if not rows:
            raise InsufficientDataError("no sweep records in store")
        rows.sort(key=lambda r: (r.beta, r.L, -r.gamma_plus, -r.gamma_minus))
        header = "# beta L gamma_minus gamma_plus pressure density"
        lines = [
            f"{_fmt(r.beta)} {r.L} {_fmt(r.gamma_minus)} {_fmt(r.gamma_plus)} "
            f"{_fmt(r.pressure)} {_fmt(r.density)}"
            for r in rows
        ]
        description = (
            "Finite-volume pressure and density along the Kac schedules.\n"
            "Columns: beta, box size L, gamma_minus, gamma_plus, pressure, density.\n"
        )
    elif kind == "payoff_surface":
        rows = store.game_grid_rows()
        if not rows:
            raise InsufficientDataError(
                "no payoff grid in store; run `kaclab game --dump-grid` first"
            )
        parsed = sorted(
            (float(r["c_minus"]), float(r["c_plus"]), float(r["payoff"])) for r in rows
        )
        header = "# c_minus c_plus payoff"
        lines = [f"{_fmt(a)} {_fmt(b)} {_fmt(c)}" for a, b, c in parsed]
        description = (
            "Payoff samples of the thermodynamic game on the strategy grid.\n"
            "Columns: c_minus, c_plus, payoff; axes sorted ascending.\n"
        )
    else:  # gap_vs_beta
        rows = store.gap_rows()
        if not rows:
            raise InsufficientDataError("no gap solutions in store")
        rows.sort(key=lambda r: float(r["beta"]))
        header = "# beta c_minus c_plus residual converged"
        lines = [
            f"{r['beta']} {r['c_minus']} {r['c_plus']} {r['residual']} {r['converged']}"
            for r in rows
        ]
        description = (
            "Gap-equation fixed points versus inverse temperature.\n"
            "Columns: beta, c_minus, c_plus, residual, converged flag.\n"
        )

    with open(dat_path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(lines) + "\n")
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(description)
    return [dat_path, txt_path]
