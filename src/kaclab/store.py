"""Append-only result persistence: CSV record files plus JSON manifests.

One store per output directory.  Each table's columns are the fields of
its record type: sweep.csv holds SweepRecord, gap.csv holds beta, the
GapSolution and the config_hash, and game_grid.csv holds beta, the
GamePoint, its payoff and the config_hash.  Sweep rows are deduplicated on
(config_hash, d, L, beta, gamma_minus, gamma_plus, boundary) and gap rows
on (config_hash, beta); re-running an identical configuration never
duplicates rows.  Numbers are written with 17 significant digits so that
stored doubles round-trip exactly.  A partial trailing row (a crash
mid-append) of sweep.csv or gap.csv is cut from the file with a warning
before the file is read or appended to, so a new row always starts on a
clean line; a write into a missing or empty file writes the header first.  A sweep.csv, gap.csv or game_grid.csv whose
header is not its table's columns raises ConfigError before anything is
written, and so does an output directory that cannot be made or that
holds anything but a regular file under a table's name or a per-beta JSON
name (game_beta_*.json, sweep_manifest_beta_*.json).  A payoff grid
replaces only the game_grid.csv rows of its config_hash.  Per-beta JSON
files name beta with the same 17 digits, so distinct betas never share a
file.
"""

from __future__ import annotations

import csv
import json
import logging
import os
from dataclasses import fields

from .errors import ConfigError, InsufficientDataError
from .game import GamePoint, GapSolution
from .sweep import SweepRecord

__all__ = ["ResultStore", "emit_plot_data", "PLOT_KINDS", "SWEEP_COLUMNS"]

log = logging.getLogger(__name__)

SWEEP_COLUMNS = [f.name for f in fields(SweepRecord)]
GAP_COLUMNS = ["beta", *(f.name for f in fields(GapSolution)), "config_hash"]
GRID_COLUMNS = ["beta", *(f.name for f in fields(GamePoint)), "payoff", "config_hash"]

# (column, parser) of every SweepRecord field, built once for all rows
_SWEEP_PARSERS = [(f.name, {"int": int, "float": float, "str": str}[f.type])
                  for f in fields(SweepRecord)]


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


def _read_rows(path: str, columns=None) -> list:
    """The rows of a CSV file as dicts.  A header other than columns, when
    given, raises ConfigError: rows written under it would not line up."""
    if not os.path.exists(path):
        return []
    with open(path, "rb") as fh:
        data = _cut_torn_row(path, fh.read())
    reader = csv.DictReader(data.decode("utf-8").splitlines())
    if columns is not None and reader.fieldnames not in (None, columns):
        missing = [c for c in columns if c not in reader.fieldnames]
        raise ConfigError(f"{path}: columns {reader.fieldnames} are not {columns} (missing "
                          f"{missing}); use a fresh output directory")
    return list(reader)


def _write_rows(path: str, columns, rows, mode: str = "a") -> None:
    """Write rows (mappings) as `columns`, each value through _fmt.  An
    append first cuts a torn trailing row; the header goes first into a
    missing or empty file."""
    if mode == "a" and os.path.exists(path) and os.path.getsize(path):
        with open(path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":  # torn: read the file to find its last newline
                fh.seek(0)
                _cut_torn_row(path, fh.read())
    with open(path, mode, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(columns)
        writer.writerows([_fmt(row[c]) for c in columns] for row in rows)


def _beta_name(stem: str, beta: float) -> str:
    # beta at 17 significant digits: distinct betas never share a file
    return f"{stem}_beta_{_fmt(float(beta))}"


def _new_rows(rows, stored, key) -> list:
    """The rows whose key is neither among ``stored`` nor that of an earlier row."""
    seen, fresh = set(stored), []
    for row in rows:
        k = key(row)
        if k not in seen:
            seen.add(k)
            fresh.append(row)
    return fresh


def _gap_key(row) -> tuple:
    return row["config_hash"], _fmt(row["beta"])


def _record_key(rec: SweepRecord):
    return (rec.config_hash, rec.d, rec.L, rec.beta,
            rec.gamma_minus, rec.gamma_plus, rec.boundary)


class ResultStore:
    """CSV/JSON result files under one directory; single writer, many readers."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        try:
            os.makedirs(out_dir, exist_ok=True)
            names = sorted(os.listdir(out_dir))
        except OSError as err:
            raise ConfigError(f"{out_dir}: not usable as output directory ({err.strerror})")
        self.sweep_path = os.path.join(out_dir, "sweep.csv")
        self.gap_path = os.path.join(out_dir, "gap.csv")
        self.grid_path = os.path.join(out_dir, "game_grid.csv")
        # the per-beta JSON names are checked for every beta, known or not
        beta_files = [os.path.join(out_dir, name) for name in names
                      if name.startswith(("game_beta_", "sweep_manifest_beta_"))
                      and name.endswith(".json")]
        for path in (self.sweep_path, self.gap_path, self.grid_path, *beta_files):
            if os.path.exists(path) and not os.path.isfile(path):
                raise ConfigError(f"{path}: exists and is not a regular file; "
                                  f"use a fresh output directory")
        self._sweep_rows: dict = {}
        self._load_sweep()

    # -- sweep records --------------------------------------------------------

    def _load_sweep(self):
        for row in _read_rows(self.sweep_path, SWEEP_COLUMNS):
            rec = SweepRecord(*[parse(row[name]) for name, parse in _SWEEP_PARSERS])
            self._sweep_rows[_record_key(rec)] = rec

    def find_sweep_record(self, config_hash: str, key, *, d: int, beta: float,
                          boundary: str) -> SweepRecord | None:
        """The stored record of plan key (L, gamma_minus, gamma_plus), or None."""
        L, gm, gp = key
        return self._sweep_rows.get((config_hash, d, L, beta, gm, gp, boundary))

    def sweep_records(self) -> list:
        return list(self._sweep_rows.values())

    def append_sweep_records(self, records) -> int:
        """Append the records whose key is neither stored nor repeated;
        returns the number written."""
        fresh = _new_rows(records, self._sweep_rows, _record_key)
        if not fresh:
            return 0
        _write_rows(self.sweep_path, SWEEP_COLUMNS, map(vars, fresh))
        for rec in fresh:
            self._sweep_rows[_record_key(rec)] = rec
        return len(fresh)

    # -- gap solutions ---------------------------------------------------------

    def append_gap_rows(self, rows) -> int:
        """Append rows mapping every GAP_COLUMNS name to its value, except
        those whose (config_hash, beta), beta as stored, is already stored or
        repeats an earlier row; returns the number written.  A gap.csv with
        other columns raises ConfigError and is left as it is."""
        stored = map(_gap_key, _read_rows(self.gap_path, GAP_COLUMNS))
        fresh = _new_rows(rows, stored, _gap_key)
        if fresh:
            _write_rows(self.gap_path, GAP_COLUMNS, fresh)
        return len(fresh)

    def gap_rows(self) -> list:
        return _read_rows(self.gap_path)

    # -- game results / payoff grids -------------------------------------------

    def write_game_result(self, beta: float, result_dict: dict, config_hash: str):
        payload = {"beta": beta, "config_hash": config_hash, **result_dict}
        return self._write_json(_beta_name("game", beta), payload)

    def write_game_grid(self, rows) -> str:
        """Write rows mapping every GRID_COLUMNS name to its value into
        game_grid.csv in place of the stored rows of their config_hash; the
        rows of other configs stay."""
        fresh = {row["config_hash"] for row in rows}
        kept = [r for r in _read_rows(self.grid_path, GRID_COLUMNS)
                if r["config_hash"] not in fresh]
        _write_rows(self.grid_path, GRID_COLUMNS, kept + rows, mode="w")
        return self.grid_path

    # -- manifests ---------------------------------------------------------------

    def write_manifest(self, stem: str, beta: float, payload: dict) -> str:
        """Write <stem>_beta_<beta>.json."""
        return self._write_json(_beta_name(stem, beta), payload)

    def _write_json(self, name: str, payload: dict) -> str:
        path = os.path.join(self.out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        return path


# kind -> (store path attribute, columns printed as stored, sort key of a row, description)
PLOT_KINDS = {
    "pressure_vs_gamma": (
        "sweep_path", ("beta", "L", "gamma_minus", "gamma_plus", "pressure", "density"),
        lambda r: (float(r["beta"]), int(r["L"]), -float(r["gamma_plus"]),
                   -float(r["gamma_minus"])),
        "Finite-volume pressure and density along the Kac schedules.\n"
        "Columns: beta, box size L, gamma_minus, gamma_plus, pressure, density.\n",
    ),
    "payoff_surface": (
        "grid_path", ("beta", "c_minus", "c_plus", "payoff"),
        lambda r: (float(r["beta"]), float(r["c_minus"]), float(r["c_plus"])),
        "Payoff samples of the thermodynamic game on the strategy grid.\n"
        "Columns: beta, c_minus, c_plus, payoff; axes sorted ascending.\n",
    ),
    "gap_vs_beta": (
        "gap_path", ("beta", "c_minus", "c_plus", "residual", "converged"),
        lambda r: float(r["beta"]),
        "Gap-equation solutions (sharp stationary points) versus inverse temperature.\n"
        "Columns: beta, c_minus, c_plus, residual, converged flag.\n",
    ),
}


def emit_plot_data(kind: str, store: ResultStore, config_hash: str) -> list:
    """Write <kind>.dat (whitespace-delimited, the stored rows of one
    config_hash) plus a <kind>.txt description into the store directory.

    No rendering happens here; the .dat files are ready for any plotting
    tool.  Raises InsufficientDataError when the store holds no such rows.
    """
    if kind not in PLOT_KINDS:
        raise InsufficientDataError(f"unknown plot kind {kind!r}; known: {list(PLOT_KINDS)}")
    attr, columns, order, description = PLOT_KINDS[kind]
    path = getattr(store, attr)
    rows = [r for r in _read_rows(path) if r.get("config_hash") == config_hash]
    if not rows:
        raise InsufficientDataError(f"no rows of config {config_hash} in {path}")
    rows.sort(key=order)
    dat_path = os.path.join(store.out_dir, f"{kind}.dat")
    txt_path = os.path.join(store.out_dir, f"{kind}.txt")
    with open(dat_path, "w", encoding="utf-8") as fh:
        fh.write("# " + " ".join(columns) + "\n")
        fh.write("\n".join(" ".join(r[c] for c in columns) for r in rows) + "\n")
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(description)
    return [dat_path, txt_path]
