"""Per-layer spans around kaclab's public functions, installed from outside.

Nothing inside ``src/kaclab`` is changed: each traced function is replaced
by a timing wrapper at every place its name is bound (its defining module,
every kaclab module that imported it, and the package namespace), and
methods are replaced on their class.  Spans are aggregated in memory per
name as (calls, self time); self time is a span's duration minus the time
its child spans cover, so the self times of all spans add up to the time
spent inside traced code.

Counts marked as computed are derived from the arguments and results
(``FockOperator.sector_dimensions()``, array shapes), never from timing,
and must repeat exactly for the same seed and --seconds.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, qualified names traced under it)
SPANS = {
    "fock.basis": ("fock", ["FockBasis.__init__", "FockBasis.sectors"]),
    "fock.build": ("fock", ["build_kac_hamiltonian", "build_meanfield_hamiltonian",
                            "build_approximating_hamiltonian"]),
    "fock.sectors": ("fock", ["FockOperator.from_sparse"]),
    "fock.eig": ("fock", ["FockOperator.eigensystem", "FockOperator.eigenvalues"]),
    "fock.gibbs": ("fock", ["gibbs_observables", "pressure"]),
    "lattice.dispersion": ("lattice", ["dispersion"]),
    "lattice.coupling": ("lattice", ["kac_coupling_matrix", "hopping_matrix"]),
    "quasifree.pressure": ("quasifree", ["quasifree_pressure"]),
    "quasifree.expect": ("quasifree", ["bz_gibbs_expectations"]),
    "game.solve": ("game", ["solve_game"]),
    "game.payoff": ("game", ["payoff"]),
    "game.decision_rule": ("game", ["decision_rule"]),
    "game.residual": ("game", ["gap_residual"]),
    "game.gap": ("game", ["solve_gap_fixed_point"]),
    "sweep.run": ("sweep", ["run_sweep"]),
    "sweep.report": ("sweep", ["limit_report"]),
    "store.load": ("store", ["ResultStore.__init__"]),
    "store.find": ("store", ["ResultStore.find_sweep_record"]),
    "store.append": ("store", ["ResultStore.append_sweep_records", "ResultStore.append_gap_rows",
                               "ResultStore.write_manifest", "ResultStore.write_game_result",
                               "ResultStore.write_game_grid"]),
    "config.parse": ("config", ["parse_config", "parse_config_dict", "config_hash"]),
    "potentials": ("potentials", ["make_potential", "PairPotential.eval",
                                  "PairPotential.fourier", "PairPotential.born_zero"]),
    "cli.main": ("cli", ["main"]),
}

# per-layer time metric -> spans whose self times it sums
SELF_TIME = {
    "fock.basis_s": ["fock.basis"],
    "fock.build_s": ["fock.build"],
    "fock.sectors_s": ["fock.sectors"],
    "fock.eig_s": ["fock.eig"],
    "fock.gibbs_s": ["fock.gibbs"],
    "lattice.dispersion_s": ["lattice.dispersion"],
    "lattice.coupling_s": ["lattice.coupling"],
    "quasifree.pressure_s": ["quasifree.pressure"],
    "quasifree.expect_s": ["quasifree.expect"],
    "game.solve_s": ["game.solve", "game.decision_rule", "game.payoff", "game.residual"],
    "game.gap_s": ["game.gap"],
    "sweep.run_s": ["sweep.run"],
    "sweep.report_s": ["sweep.report"],
    "store.load_s": ["store.load"],
    "store.find_s": ["store.find"],
    "store.append_s": ["store.append"],
    "config.parse_s": ["config.parse"],
    "potentials.s": ["potentials"],
    "cli.self_s": ["cli.main"],
}
CALLS = {
    "lattice.dispersion_calls": "lattice.dispersion",
    "quasifree.pressure_calls": "quasifree.pressure",
    "quasifree.expect_calls": "quasifree.expect",
    "game.solves": "game.solve",
    "game.payoff_calls": "game.payoff",
    "game.decision_rule_calls": "game.decision_rule",
    "store.find_calls": "store.find",
}
# computed from arguments and results by the hooks below
COMPUTED = ["fock.eig_calls", "fock.max_sector_dim", "fock.eig_dim3", "fock.block_bytes",
            "lattice.dispersion_nodes", "game.gap_iterations", "sweep.records_fresh",
            "sweep.records_reused", "store.rows_written", "store.bytes_written"]
COMPUTED_COUNTS = COMPUTED + list(CALLS)

# Spans that must fire on their own workload, and spans that must not fire.
MUST_FIRE = {
    "sweep-1d": ["fock.basis", "fock.build", "fock.sectors", "fock.eig", "fock.gibbs",
                 "lattice.coupling", "sweep.run", "sweep.report", "store.load",
                 "store.find", "store.append", "config.parse", "potentials",
                 "game.solve", "quasifree.pressure", "lattice.dispersion"],
    "game-1d": ["game.solve", "game.payoff", "game.decision_rule", "game.gap",
                "quasifree.pressure", "quasifree.expect", "lattice.dispersion",
                "config.parse"],
}
MUST_NOT_FIRE = {"sweep-1d": (), "game-1d": ("fock.",)}


def _unit(metric):
    if metric.endswith("_s") or metric == "potentials.s":
        return "s"
    if metric in ("fock.block_bytes", "store.bytes_written"):
        return "bytes"
    return "ratio" if metric == "store.hit_ratio" else "count"


PER_LAYER = sorted(list(SELF_TIME) + list(CALLS) + COMPUTED + ["store.hit_ratio", "trace.wall_s"])


class Tracer:
    """In-memory span aggregation; one active span stack (kaclab runs one thread here)."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.max_sector_dim = 0
        self._stack = []

    def wrap(self, name, fn, hook=None):
        stack, self_s, calls, clock = self._stack, self.self_s, self.calls, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = hook(self, "pre", args, None) if hook else None
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[name] += dt - children[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dt
            if hook:
                hook(self, "post", args, (before, result))
            return result

        return traced

    def metrics(self, wall_s):
        out = {m: sum(self.self_s[s] for s in spans) for m, spans in SELF_TIME.items()}
        out.update({m: self.calls[s] for m, s in CALLS.items()})
        out.update({m: self.counts[m] for m in COMPUTED})
        out["fock.max_sector_dim"] = self.max_sector_dim
        finds = self.calls["store.find"]
        out["store.hit_ratio"] = self.counts["sweep.records_reused"] / finds if finds else 0.0
        out["trace.wall_s"] = wall_s
        return {m: {"value": out[m], "unit": _unit(m)} for m in PER_LAYER}

    def firing_problems(self, workload):
        problems = [f"span {s} fired 0 times" for s in MUST_FIRE[workload] if not self.calls[s]]
        for prefix in MUST_NOT_FIRE[workload]:
            problems += [f"span {s} fired {n} times" for s, n in self.calls.items()
                         if s.startswith(prefix) and n]
        return problems


# -- hooks computing exact counts from arguments and results ---------------------


def _count_blocks(tracer, op):
    dims = [d for d in op.sector_dimensions().values() if d]
    tracer.counts["fock.eig_calls"] += len(dims)
    tracer.counts["fock.eig_dim3"] += sum(d**3 for d in dims)
    tracer.counts["fock.block_bytes"] += sum(8 * d * d for d in dims)
    tracer.max_sector_dim = max([tracer.max_sector_dim, *dims])


def _eigensystem_hook(tracer, phase, args, payload):
    if phase == "pre":
        _count_blocks(tracer, args[0])


def _eigenvalues_hook(tracer, phase, args, payload):
    if phase == "pre" and args[0]._eigs is None:  # later calls reuse the cached spectrum
        _count_blocks(tracer, args[0])


def _dispersion_hook(tracer, phase, args, payload):
    if phase == "pre":  # k has shape (..., d): one node per leading index
        shape = getattr(args[1], "shape", ())
        tracer.counts["lattice.dispersion_nodes"] += math.prod(shape[:-1])


def _gap_hook(tracer, phase, args, payload):
    if phase == "post":
        tracer.counts["game.gap_iterations"] += payload[1].iterations


def _find_hook(tracer, phase, args, payload):
    if phase == "post" and payload[1] is not None:
        tracer.counts["sweep.records_reused"] += 1


def _run_sweep_hook(tracer, phase, args, payload):
    if phase == "pre":
        return tracer.counts["sweep.records_reused"]
    reused_before, records = payload
    reused = tracer.counts["sweep.records_reused"] - reused_before
    tracer.counts["sweep.records_fresh"] += len(records) - reused


def _store_write_hook(tracer, phase, args, payload):
    store = args[0]
    paths = (store.sweep_path, store.gap_path)
    sizes = [os.path.getsize(p) if os.path.exists(p) else 0 for p in paths]
    if phase == "pre":
        return sizes
    before, result = payload
    written = sum(after - b for after, b in zip(sizes, before))
    if isinstance(result, str):      # write_*: the whole file named by the result
        written += os.path.getsize(result)
    elif isinstance(result, int):    # append_sweep_records: rows written
        tracer.counts["store.rows_written"] += result
    tracer.counts["store.bytes_written"] += written


HOOKS = {
    "FockOperator.eigensystem": _eigensystem_hook,
    "FockOperator.eigenvalues": _eigenvalues_hook,
    "dispersion": _dispersion_hook,
    "solve_gap_fixed_point": _gap_hook,
    "ResultStore.find_sweep_record": _find_hook,
    "run_sweep": _run_sweep_hook,
    "ResultStore.append_sweep_records": _store_write_hook,
    "ResultStore.append_gap_rows": _store_write_hook,
    "ResultStore.write_manifest": _store_write_hook,
    "ResultStore.write_game_result": _store_write_hook,
    "ResultStore.write_game_grid": _store_write_hook,
}


def install(tracer):
    """Wrap every traced function at every binding; returns an undo list.

    Raises RuntimeError when an unwrapped reference to a traced function is
    left in any loaded kaclab module.
    """
    for modname, _ in SPANS.values():
        importlib.import_module(f"kaclab.{modname}")
    kaclab_modules = [m for n, m in sorted(sys.modules.items())
                      if (n == "kaclab" or n.startswith("kaclab.")) and m is not None]
    undo = []
    originals = []
    for span, (modname, qualnames) in SPANS.items():
        module = sys.modules[f"kaclab.{modname}"]
        for qual in qualnames:
            hook = HOOKS.get(qual)
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(tracer.wrap(span, raw.__func__, hook))
                    originals.append(raw.__func__)
                else:
                    new = tracer.wrap(span, raw, hook)
                    originals.append(raw)
                setattr(cls, attr, new)
                undo.append((cls, attr, raw))
                continue
            fn = getattr(module, qual)
            originals.append(fn)
            wrapped = tracer.wrap(span, fn, hook)
            for mod in kaclab_modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapped)
                        undo.append((mod, name, fn))
    leftovers = [f"{mod.__name__}.{name}" for mod in kaclab_modules
                 for name, value in vars(mod).items()
                 if any(value is fn for fn in originals)]
    if leftovers:
        uninstall(undo)
        raise RuntimeError(f"unwrapped references left: {leftovers}")
    return undo


def uninstall(undo):
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
