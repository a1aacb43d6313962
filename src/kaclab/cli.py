"""Command-line entry points.

Subcommands: validate-potential, pressure-ed, pressure-mf, game, gap,
kac-sweep, plot-data, selftest.  Exit codes: 0 success, 2 configuration
error, 3 accuracy error, 4 capacity error, 5 any other failed internal
check (e.g. operator elements outside the declared sectors, an operator
on a periodic box that is not translation invariant, an operator of a box
that is not inversion symmetric, Gibbs expectations out of range), 141
(128 + SIGPIPE, as a shell reports it) when the reader of stdout closed it
before the output was written, e.g. ``kaclab game ... | head``; files
are written before the output, and the rest of the output is dropped.
``--log-level`` (debug, info, warning or error; default warning), given
before the subcommand, sets the least level of the ``kaclab`` log records
that are written to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import game, quasifree, sweep
from .config import config_hash, parse_config
from .errors import AccuracyError, CapacityError, ConfigError, KaclabError
from .lattice import LatticeBox
from .potentials import PlainGaussian, cone_check, poisson_sum
from .store import PLOT_KINDS, ResultStore, emit_plot_data

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ACCURACY = 3
EXIT_CAPACITY = 4
EXIT_CHECK = 5
EXIT_PIPE = 141

LOG_LEVELS = ("debug", "info", "warning", "error")


def _emit(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_validate_potential(args) -> int:
    cfg = parse_config(args.config)
    reports = {}
    for role, pot in (("plus", cfg.f_plus), ("minus", cfg.f_minus)):
        if pot is None:
            continue
        report = cone_check(pot)
        reports[role] = {"family": pot.family, **report.as_dict()}
    if not reports:
        raise ConfigError(["no potentials declared in configuration"])
    _emit(reports)
    return EXIT_OK


def cmd_pressure(args) -> int:
    """pressure-ed (the Kac model) and pressure-mf (its mean-field model):
    exact pressure and density at every beta and L.  pressure-ed takes the
    first entry of each gamma schedule (`ExperimentConfig.model_params`)
    and ignores the rest, and diagonalizes the Fock space (`fock`).
    pressure-mf solves the pair problems of `meanfield` on the levels of
    the box's hopping matrix, on open and periodic boxes alike."""
    cfg = parse_config(args.config)
    mean_field = args.command == "pressure-mf"
    if mean_field:
        from .meanfield import pressure_and_density as solve
    else:
        from . import fock

        def solve(params, box, cap):
            obs = fock.gibbs_observables(fock.build_kac_hamiltonian(params, box, cap), params.beta)
            return obs.pressure, obs.density

    rows = []
    for beta in cfg.beta:
        if mean_field:
            params = cfg.meanfield_params(beta)
            model = {"eta_plus": params.eta_plus, "eta_minus": params.eta_minus}
        else:
            params = cfg.model_params(beta)
            model = {"gamma_minus": params.gamma_minus, "gamma_plus": params.gamma_plus,
                     "boundary": cfg.boundary}
        for L in cfg.L:
            p, density = solve(params, LatticeBox(cfg.dimension, L, cfg.boundary),
                               cfg.dimension_cap)
            rows.append({"beta": beta, "L": L, **model, "pressure": p, "density": density})
    _emit({args.command.replace("-", "_"): rows})
    return EXIT_OK


def cmd_game(args) -> int:
    cfg = parse_config(args.config)
    chash = config_hash(cfg)
    store = ResultStore(args.out or cfg.output_dir) if (args.out or args.dump_grid) else None
    results = {}
    grid_rows = []  # every beta's payoff grid, written once
    for beta in cfg.beta:
        mf = cfg.meanfield_params(beta)
        result = game.solve_game(mf, cfg.quadrature, cfg.optimizer)
        payload = result.as_dict()
        if args.dump_grid:  # one batched payoff per c_minus row bounds lanes x nodes in 2-D
            # grid_points nodes per box, one on a box that is the point 0
            c_minus, c_plus = (np.linspace(lo, hi, cfg.optimizer.grid_points if hi else 1)
                               for lo, hi in game.strategy_boxes(mf))
            grid = [(cm, cp, val) for cm in c_minus.tolist()
                    for cp, val in zip(c_plus.tolist(), game.payoff(
                        mf, game.GamePoint(cm, c_plus), cfg.quadrature).tolist())]
            payload["grid"] = grid
            grid_rows += [{"beta": beta, "c_minus": cm, "c_plus": cp, "payoff": val,
                           "config_hash": chash} for cm, cp, val in grid]
        results[str(beta)] = payload
        if store:
            store.write_game_result(beta, payload, chash)
    if args.dump_grid:
        store.write_game_grid(grid_rows)
    _emit({"game": results, "config_hash": chash})
    return EXIT_OK


def cmd_gap(args) -> int:
    cfg = parse_config(args.config)
    chash = config_hash(cfg)
    store = ResultStore(args.out) if args.out else None
    rows = []
    for beta in cfg.beta:
        sol = game.solve_gap_fixed_point(cfg.meanfield_params(beta), cfg.quadrature,
                                         cfg.optimizer)
        rows.append({"beta": beta, **asdict(sol), "config_hash": chash})
    if store:
        store.append_gap_rows(rows)
    _emit({"gap": rows})
    return EXIT_OK


def _check_sweep_eta(cfg) -> None:
    """ConfigError unless each eta is fhat(0) of its potential (0 without
    one) to 1e-12 relative, and each potential passes ``cone_check`` on its
    fixed grid: the Kac records depend on the potentials alone, and their
    game is that of eta = fhat(0) only inside the scaling-monotone
    positive-definite cone, where fhat peaks at 0."""
    errors = []
    for role in ("plus", "minus"):
        pot, eta = getattr(cfg, f"f_{role}"), getattr(cfg, f"eta_{role}")
        fhat0 = 0.0 if pot is None else float(pot.born_zero())
        # eta not given is parsed as fhat(0)
        if cfg.normalized["eta"][role] is not None and abs(eta - fhat0) > 1e-12 * abs(fhat0):
            errors.append(f"eta.{role} = {eta!r} differs from fhat_{role}(0) = {fhat0!r}; "
                          f"kac-sweep compares its records with the game of its potentials")
        if pot is None:
            continue
        report = cone_check(pot)
        for name, inside in (("min_fourier_value", report.positive_definite),
                             ("monotonicity_violation", report.scaling_monotone)):
            if not inside:
                errors.append(f"potentials.{role} ({pot.family}) is outside the cone: {name} = "
                              f"{getattr(report, name):.6g}; kac-sweep compares its records "
                              f"with the game at eta = fhat(0), which needs the cone")
    if errors:
        raise ConfigError(errors)


def cmd_kac_sweep(args) -> int:
    cfg = parse_config(args.config)
    _check_sweep_eta(cfg)
    chash = config_hash(cfg)
    plans = [cfg.sweep_plan(beta) for beta in cfg.beta]
    for plan in plans:  # before anything is computed or written
        sweep.check_report_plan(plan)
    store = ResultStore(args.out or cfg.output_dir)
    summary = {}
    for beta, plan in zip(cfg.beta, plans):
        failures: list = []
        stages: list = []
        records = sweep.run_sweep(plan, store=store, config_hash=chash,
                                  failures=failures, stages=stages)
        mf = cfg.meanfield_params(beta)
        game_result = game.solve_game(mf, cfg.quadrature, cfg.optimizer)
        report = sweep.limit_report(records, game_result, plan)
        summary[str(beta)] = {
            "records": len(records),
            "failures": [{"key": list(k), "error": msg} for k, msg in failures],
            "limit_report": report.as_dict(),
        }
        store.write_manifest(
            "sweep_manifest", beta,
            {"config_hash": chash, "beta": beta, "order": plan.order,
             "L_list": list(plan.L_list),
             "gamma_minus": list(plan.gamma_minus_schedule),
             "gamma_plus": list(plan.gamma_plus_schedule),
             "limit_report": report.as_dict(), "fresh_records": stages},
        )
    _emit({"kac_sweep": summary, "config_hash": chash, "out": store.out_dir})
    return EXIT_OK


def cmd_plot_data(args) -> int:
    cfg = parse_config(args.config)
    store = ResultStore(args.out or cfg.output_dir)
    paths = emit_plot_data(args.kind, store, config_hash(cfg))
    _emit({"written": paths})
    return EXIT_OK


def cmd_selftest(args) -> int:
    """Fast oracle suite: CAR algebra, two-mode trace, Poisson identity,
    ED/momentum duality, the mean-field pair problems against ED,
    momentum blocks against plain sector blocks,
    blocks built from the representatives against those of the global
    matrix, their lowest-weight spectrum against plain sectors, a build
    from a cached plan against plain sectors, the gauge-fixed approximant
    at complex c_- against plain parity sectors, and games below the
    pairing bound against the full-grid oracle."""
    from scipy.special import logsumexp

    from . import fock
    from .lattice import MeanFieldParams, ModelParams, discrete_laplacian, hopping_matrix

    checks = []

    basis = fock.FockBasis(LatticeBox(1, 0, "periodic"), dimension_cap=256)
    basis2 = fock.FockBasis(LatticeBox(1, 1, "open"), dimension_cap=256)
    car = max(fock.car_max_violation(basis), fock.car_max_violation(basis2))
    checks.append(("CAR relations (1 and 3 sites)", car, 1e-14))

    # 200 random draws at once, against a stack of 4-state Fock traces
    rng = np.random.default_rng(7)
    eps, beta = rng.uniform(-8, 8, 200), rng.uniform(0.1, 20.0, 200)
    gap = rng.uniform(0, 4, 200) * np.exp(1j * rng.uniform(0, 2 * np.pi, 200))
    h4 = np.zeros((200, 4, 4), dtype=complex)
    h4[:, 1, 1] = h4[:, 2, 2] = eps
    h4[:, 3, 3] = 2 * eps
    h4[:, 3, 0] = -np.conj(gap)
    h4[:, 0, 3] = -gap
    oracle = logsumexp(-beta[:, None] * np.linalg.eigvalsh(h4), axis=1)
    worst = float(np.max(np.abs(quasifree.per_k_log_trace(eps, gap, beta) - oracle)))
    checks.append(("two-mode closed form vs 4-state trace", worst, 1e-12))

    p = PlainGaussian(width=1.0, d=1)
    lhs, rhs = poisson_sum(p, 0.5, np.zeros(1))
    checks.append(("Poisson summation, gaussian gamma=0.5", abs(lhs - rhs), 1e-10))

    mf = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(1),
                         eta_plus=1.0, eta_minus=1.0)
    ed = fock.build_approximating_hamiltonian(mf, 0.3, 0.2, LatticeBox(1, 1, "periodic"))
    dual = abs(fock.pressure(ed, mf.beta) - quasifree.finite_grid_pressure(mf, 0.3, 0.2, 1))
    checks.append(("ED / momentum duality (L=1)", dual, 1e-10))

    # the mean-field model from the pair problems of its box, against its ED
    from .meanfield import pressure_and_density

    defect = 0.0
    for box in (LatticeBox(1, 1, "open"), LatticeBox(1, 1, "periodic"),
                LatticeBox(1, 2, "periodic")):
        obs = fock.gibbs_observables(fock.build_meanfield_hamiltonian(mf, box), mf.beta)
        p_mf, density = pressure_and_density(mf, box)
        defect = max(defect, abs(p_mf - obs.pressure), abs(density - obs.density))
    checks.append(("mean-field pair problems vs Fock ED, 3 open, 3 and 5 periodic sites",
                   defect, 1e-12))

    def sector_spectrum(H, label):
        """The spectrum of H from its plain sectors, one per value of label,
        cut out of the sparse matrix by scipy alone."""
        return np.sort(np.concatenate([
            np.linalg.eigvalsh(H[idx][:, idx].toarray())
            for idx in (np.flatnonzero(label == c) for c in np.unique(label))]))

    # one COO matrix, in paired (N, 2S_z, k) blocks and restricted to each
    # plain (N, 2S_z) sector
    box = LatticeBox(1, 2, "periodic")
    mp = ModelParams(beta=2.0, hopping=discrete_laplacian(1), f_plus=p,
                     f_minus=PlainGaussian(width=2.0, d=1), include_onsite_correction=True)
    plain = fock.FockBasis(box.n_sites)
    H = fock._kac_sites(mp, box).matrix(plain).tocsr()
    momentum = fock.FockOperator.from_sparse(fock.FockBasis(box), H, fock.NUMBER)
    charges = plain.n_tot * (2 * plain.n_sites + 1) + plain.n_up
    spectrum = sector_spectrum(H, charges)
    defect = float(np.max(np.abs(momentum.eigenvalues() - spectrum)))
    checks.append(("momentum vs (N, 2S_z) sectors, 5-site periodic Kac box", defect, 1e-12))
    # the same blocks built from the orbit representatives of the site data
    # (those that hold lowest-weight states)
    built = fock.build_kac_hamiltonian(mp, box)
    same = set(built.blocks) <= set(momentum.blocks)
    defect = max((float(np.max(np.abs(B - momentum.blocks[k]))) for k, B in built.blocks.items()),
                 default=0.0) if same else float("inf")
    checks.append(("representative build vs global matrix, 5-site periodic Kac box", defect, 1e-12))
    # their spectrum: each block on its spin-S lowest-weight states, each
    # eigenvalue counted (class size)(2S+1) times
    defect = float(np.max(np.abs(built.eigenvalues() - spectrum)))
    if sum(built.mult[k] * d for k, d in built.sector_dimensions().items()) != plain.dim:
        defect = float("inf")
    checks.append(("lowest-weight spectrum vs (N, 2S_z) sectors, 5-site periodic Kac box", defect,
                   1e-12))
    # two builds at different gamma on a fresh basis: the second scatters its
    # values by the plan that the first made
    fresh, plans = fock.FockBasis(box), []
    for gamma in (0.5, 0.25):
        sites = fock._kac_sites(replace(mp, gamma_plus=gamma, gamma_minus=gamma), box)
        cached = fock.FockOperator.from_sparse(fresh, sites, fock.NUMBER)
        plans += fresh._plans.values()
    defect = float(np.max(np.abs(cached.eigenvalues() - sector_spectrum(
        sites.matrix(plain).tocsr(), charges))))
    if len(plans) != 2 or plans[0] is not plans[1]:
        defect = float("inf")
    checks.append(("cached-plan Kac build vs plain sectors, 5-site periodic box", defect, 1e-12))
    # the approximating Hamiltonian at complex c_-, built gauge-fixed at |c_-|: its
    # spectrum, and its pair amplitude rotated by exp(-i arg c_-), against the plain
    # parity sectors of the complex global matrix, made from the annihilators alone
    c_minus, n = 0.3 * np.exp(0.7j), box.n_sites
    approx = fock.build_approximating_hamiltonian(mf, c_minus, 0.2, box)
    shift, g = mf.approximating_fields(c_minus, 0.2)
    t = np.kron(np.eye(2), hopping_matrix(mf.hopping, box) + shift * np.eye(n))  # modes x + s n
    a = [plain.annihilator(m) for m in range(plain.n_modes)]
    pairs = sum(a[x + n] @ a[x] for x in range(n))
    H = sum(t[i, j] * a[i].T @ a[j] for i, j in zip(*np.nonzero(t)))
    H = H - g * pairs - np.conj(g) * pairs.T
    w, pair = [], []
    for idx in (np.flatnonzero((plain.n_tot & 1) == c) for c in (0, 1)):
        w_c, U = np.linalg.eigh(H[idx][:, idx].toarray())
        w.append(w_c)
        pair.append(np.sum(U.conj() * (pairs[idx][:, idx] @ U), axis=0) / n)
    w, pair = np.concatenate(w), np.concatenate(pair)
    weight = np.exp(-mf.beta * (w - w.min()))
    defect = max(float(np.max(np.abs(approx.eigenvalues() - np.sort(w)))), abs(
        fock.gibbs_observables(approx, mf.beta).pair_amplitude - weight @ pair / weight.sum()))
    checks.append(("complex c_- gauge vs parity sectors, 5-site periodic box", defect, 1e-12))
    # games below the pairing bound, which search no grid, against the full-grid oracle:
    # where the c_- slope is positive at every node of both boxes (a node at c_- = 0
    # probed at xtol), both orderings are the payoff at (0, r_+(0))
    defect, opt = 0.0, game.OptimizerSpec()
    for d in (1, 2):
        model = MeanFieldParams(beta=2.0, hopping=discrete_laplacian(d), eta_plus=1.0,
                                eta_minus=1.0)
        res = game.solve_game(model)
        xs, cps = (np.linspace(lo, hi, opt.grid_points) for lo, hi in game.strategy_boxes(model))
        probe = np.where(xs > 0.0, xs, opt.xtol)
        sharp = game.decision_rule(model, xs)
        slopes = [probe - quasifree.bz_gibbs_expectations(model, probe, cp)[0]
                  for cp in [sharp.c_plus, *cps]]  # 2 (c_- - sqrt(eta_-) pair) at eta_- = 1
        positive = res.pairing_bound < 1.0 and (np.array(slopes) > 0.0).all()
        if not positive or res.other_minima or np.argmin(sharp.payoff_value) != 0:
            defect = float("inf")
        defect = max(defect, abs(res.p_sharp + sharp.payoff_value[0]),
                     abs(res.p_flat + game.decision_rule(model, 0.0).payoff_value),
                     abs(res.argmin_sharp.c_plus - sharp.c_plus[0]), res.argmin_sharp.c_minus)
    checks.append(("games below the pairing bound vs full-grid oracle, 1-D and 2-D", defect,
                   1e-12))

    failed = False
    for name, value, tol in checks:
        ok = value <= tol
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {value:.3e} (tol {tol:g})")
    if failed:
        raise AccuracyError("selftest failed")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it;
    each ``parse_args`` returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="kaclab",
        description="Kac-scaled lattice fermions: ED pressures, mean-field games, sweeps",
    )
    parser.add_argument("--log-level", choices=LOG_LEVELS, default="warning",
                        help="least level of the kaclab log records written to stderr "
                             "(default: warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, needs_config=True, out=None):
        """out: what happens without --out, for its help text; None: no --out."""
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True, help="experiment JSON file")
        if out:
            p.add_argument("--out", default=None, help=f"output directory ({out})")
        p.set_defaults(func=func)
        return p

    add("validate-potential", cmd_validate_potential)
    add("pressure-ed", cmd_pressure)
    add("pressure-mf", cmd_pressure)
    config_dir = "default: output_dir of the config"
    add("game", cmd_game, out="without it only --dump-grid writes, to output_dir of the "
        "config").add_argument("--dump-grid", action="store_true")
    add("gap", cmd_gap, out="without it nothing is written")
    add("kac-sweep", cmd_kac_sweep, out=config_dir)
    add("plot-data", cmd_plot_data, out=config_dir).add_argument(
        "--kind", required=True, choices=list(PLOT_KINDS))
    add("selftest", cmd_selftest, needs_config=False)
    return parser


class _Stderr(logging.Handler):
    """Writes each record as "LEVEL logger: message" to sys.stderr as it is
    when the record is made."""

    def emit(self, record):
        print(f"{record.levelname} {record.name}: {record.getMessage()}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    log = logging.getLogger("kaclab")
    log.setLevel(args.log_level.upper())
    if not any(isinstance(h, _Stderr) for h in log.handlers):  # one per process
        log.addHandler(_Stderr())
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader of stdout that left raises here, not at exit
        return code
    except ConfigError as err:
        for msg in err.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except AccuracyError as err:
        print(f"accuracy error: {err}", file=sys.stderr)
        if err.values is not None:
            print(f"partial values: {err.values}", file=sys.stderr)
        return EXIT_ACCURACY
    except CapacityError as err:
        print(f"capacity error: {err}", file=sys.stderr)
        return EXIT_CAPACITY
    except KaclabError as err:
        print(f"check failed: {err}", file=sys.stderr)
        return EXIT_CHECK
    except BrokenPipeError:  # the reader of stdout left early
        devnull = os.open(os.devnull, os.O_WRONLY)
        with contextlib.suppress(AttributeError, OSError, ValueError):  # no file descriptor
            os.dup2(devnull, sys.stdout.fileno())  # what is still buffered goes nowhere at exit
        os.close(devnull)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
