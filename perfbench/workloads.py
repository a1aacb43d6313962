"""Seeded inputs, operations and output checks of the two workloads.

Every workload is a closed loop: one operation starts only after the
previous one has ended.  An operation is a short sequence of in-process
``kaclab.cli.main`` calls on one generated configuration file; its checks
hold for any correct model and pin no Kac-ED pressure value.

Input rules (fixed so that later changes see the same work):
  * one beta per configuration (a multi-beta sweep reuses rows across
    beta today, so fixing that defect would change the work);
  * beta <= 8, inside the range where the default Brillouin-zone
    quadrature meets its refinement tolerance;
  * no warm-up operation: lazy caches persist across operations of one
    workload process, as they do across the beta values of one CLI call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
import traceback

import numpy as np

# Nominal cost of one block of operations at the commit that defined the
# benchmark (2-core x86_64, OpenBLAS 0.3.31, one BLAS thread).  They only
# size the job from --seconds; the job is then fixed by seed and seconds, so
# a faster program does the same work in less time.
NOMINAL_BLOCK_S = {"sweep-1d": 14.0, "game-1d": 3.3}

# resume_s is the median time of requests already answered: on sweep-1d the
# all-reused kac-sweep, asked four times in every operation; on game-1d the
# game of each block's first general model, asked again at the end of the
# block.  Single calls vary by up to 1.3x within seconds on a shared host,
# so the repeats are spread over the whole run.
SWEEP_STEPS = ["kac-sweep", "kac-sweep-again", "pressure-mf", "kac-sweep-again",
               "kac-sweep-again", "kac-sweep-again"]

P_ORDER_TOL = 1e-8    # P_sharp <= P_flat + tol
GAP_RESIDUAL_TOL = 1e-7
AXIS_EQUALITY_TOL = 1e-8

SWEEP_L = [1, 2, 3]


class Op:
    """One operation: a generated configuration and the CLI calls made on it."""

    def __init__(self, label, config, steps, axis=False, again=None):
        self.label = label
        self.config = config      # configuration tree written before the run
        self.steps = steps        # list of step names, see run_op
        self.axis = axis          # model on an eta = 0 axis (P_sharp == P_flat)
        self.again = again        # the earlier operation whose model this one asks again
        self.path = None
        self.out_dir = None


# -- input generation ----------------------------------------------------------


_TAGS = {"sweep-1d": 1, "game-1d": 2}


def _rng(seed, workload, *block):
    return np.random.default_rng([seed, _TAGS[workload], *block])


def _strata(rng, n, lo, hi):
    """n draws from [lo, hi), one in each of n equal strata, in seeded order.

    Model cost depends on these parameters, so stratified draws keep the
    spread of a run's medians from seed to seed small.
    """
    return [float(x) for x in lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n]


def _sweep_config(rng, beta):
    def gammas():  # strictly decreasing, inside (0, 1)
        top, step = rng.uniform(0.4, 0.65), rng.uniform(0.08, 0.12)
        return [float(top - i * step) for i in range(3)]

    gm, gp = gammas(), gammas()
    order = str(rng.choice(["minus_first", "plus_first"]))
    # The limit report follows the inner schedule (three points); the outer
    # schedule keeps its last point, so a configuration has 3 x 3 records.
    if order == "minus_first":
        gp = gp[-1:]
    else:
        gm = gm[-1:]
    return {
        "schema_version": 1,
        "dimension": 1,
        "hopping": [[[0], 2.0], [[1], -1.0]],
        "potentials": {
            "plus": {"family": "gaussian_mixture",
                     "terms": [[float(rng.uniform(0.15, 0.4)), [float(rng.uniform(0.5, 3.0))]]
                               for _ in range(2)]},
            "minus": {"family": "yukawa", "c0": float(rng.uniform(0.5, 1.5)),
                      "c1": float(rng.uniform(0.75, 2.0))},
        },
        "beta": [beta],
        "L": SWEEP_L,
        "gamma_minus": gm,
        "gamma_plus": gp,
        "order": order,
        "boundary": "periodic",
    }


def _game_config(hopping, dimension, beta, eta_plus, eta_minus):
    return {
        "schema_version": 1,
        "dimension": dimension,
        "hopping": hopping,
        "eta": {"plus": eta_plus, "minus": eta_minus},
        "beta": [beta],
    }


def make_ops(workload, seed, seconds):
    """The fixed operation list of one run, made from the seed alone.

    The number of blocks comes from --seconds and the nominal block cost.
    Each block has the same composition, and beta and eta are drawn in
    strata over the whole run, so the work of a run varies little from seed
    to seed while every model parameter is drawn from the seed.
    """
    blocks = max(1, round(seconds / NOMINAL_BLOCK_S[workload]))
    run_rng = _rng(seed, workload)
    ops = []
    if workload == "sweep-1d":
        betas = _strata(run_rng, blocks, 1.0, 6.0)
        for b in range(blocks):
            ops.append(Op(f"sweep{b}", _sweep_config(_rng(seed, workload, b), betas[b]),
                          SWEEP_STEPS))
        return ops
    lap = [[[0], 2.0], [[1], -1.0]]
    n = 4 * blocks
    betas, eps, ems = (_strata(run_rng, n, lo, hi) for lo, hi in ((0.5, 8.0), (0.05, 2.0),
                                                                   (0.05, 2.0)))
    for b in range(blocks):
        for i in range(4):
            k = 4 * b + i
            beta, ep, em = betas[k], eps[k], ems[k]
            axis = i == 0
            if axis:  # alternate the two axes between blocks
                ep, em = (ep, 0.0) if b % 2 == 0 else (0.0, em)
            ops.append(Op(f"g1d-{b}.{i}", _game_config(lap, 1, beta, ep, em),
                          ["game", "gap"], axis=axis))
        first = ops[-3]  # the block's first general model; kaclab keeps no game results
        ops.append(Op(f"{first.label}-again", first.config, ["game"], again=first))
    return ops


def write_inputs(ops, work_dir):
    for i, op in enumerate(ops):
        if op.again:
            op.path, op.out_dir = op.again.path, op.again.out_dir
            continue
        op.path = os.path.join(work_dir, f"op{i:03d}.json")
        op.out_dir = os.path.join(work_dir, f"out{i:03d}")
        with open(op.path, "w", encoding="utf-8") as fh:
            json.dump(op.config, fh)


# -- running and checking --------------------------------------------------------


def _call(argv):
    """Run one CLI call in process; returns (exit code, stdout, error text)."""
    from kaclab import cli

    buf, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a traceback counts as a failed operation
        return None, buf.getvalue(), traceback.format_exc()
    return code, buf.getvalue(), err.getvalue()


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check_game(payload, axis):
    problems = []
    for beta, res in payload["game"].items():
        ps, pf = res["p_sharp"], res["p_flat"]
        rs, rf = res["gap_residual_sharp"], res["gap_residual_flat"]
        if not _finite(ps, pf, rs, rf):
            problems.append(f"beta={beta}: non-finite game output")
            continue
        if ps > pf + P_ORDER_TOL:
            problems.append(f"beta={beta}: P_sharp {ps!r} > P_flat {pf!r}")
        if max(rs, rf) > GAP_RESIDUAL_TOL:
            problems.append(f"beta={beta}: gap residuals {rs:.3e}, {rf:.3e}")
        if axis and abs(ps - pf) > AXIS_EQUALITY_TOL:
            problems.append(f"beta={beta}: eta=0 axis but |P_sharp - P_flat| = {abs(ps - pf):.3e}")
    return problems


def _check_gap(payload):
    from kaclab.game import OptimizerSpec

    tol_gap = OptimizerSpec().tol_gap  # the generated configs keep the default
    problems = []
    for row in payload["gap"]:
        if not isinstance(row["converged"], bool) or not _finite(row["residual"]):
            problems.append("gap solve reported neither convergence nor failure")
        elif row["converged"] and row["residual"] > tol_gap:
            problems.append(f"gap solve claims convergence at residual {row['residual']:.3e}")
    return problems


def _check_sweep_rows(out_dir, plan_size):
    with open(os.path.join(out_dir, "sweep.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != plan_size:
        problems.append(f"sweep.csv has {len(rows)} rows, plan has {plan_size}")
    for row in rows:
        p, n = float(row["pressure"]), float(row["density"])
        if not math.isfinite(p):
            problems.append(f"non-finite pressure at L={row['L']}")
        if not 0.0 <= n <= 2.0:
            problems.append(f"density {n!r} outside [0, 2] at L={row['L']}")
    return problems


def run_op(op, before_step=None):
    """Run the operation's steps; returns (list of problems, [(step, seconds, CPU seconds)]).

    ``before_step`` is called before each step, outside the timed call.
    """
    problems, times, state = [], [], {}
    for step in op.steps:
        command = step.replace("-again", "")
        argv = [command, "--config", op.path]
        if command == "kac-sweep":
            argv += ["--out", op.out_dir]
        if before_step:
            before_step()
        t0, c0 = time.perf_counter(), time.process_time()
        code, out, err = _call(argv)
        times.append((step, time.perf_counter() - t0, time.process_time() - c0))
        if code != 0:
            problems.append(f"{step}: exit code {code}: {err.strip()[-400:]}")
            break
        payload = json.loads(out)
        if command == "game":
            problems += _check_game(payload, op.axis)
        elif command == "gap":
            problems += _check_gap(payload)
        elif command == "pressure-mf":
            rows = payload["pressure_mf"]
            if len(rows) != len(op.config["L"]):
                problems.append(f"pressure-mf returned {len(rows)} rows")
            for row in rows:
                if not _finite(row["pressure"]) or not 0.0 <= row["density"] <= 2.0:
                    problems.append(f"pressure-mf row out of range: {row}")
        else:
            problems += _check_sweep_payload(op, step, payload, state)
    return problems, times


def _check_sweep_payload(op, step, payload, state):
    problems = []
    size = len(op.config["gamma_minus"]) * len(op.config["gamma_plus"]) * len(op.config["L"])
    for beta, summary in payload["kac_sweep"].items():
        if summary["records"] != size or summary["failures"]:
            problems.append(f"{step}: {summary['records']} records of {size}, "
                            f"failures {summary['failures']}")
    with open(os.path.join(op.out_dir, "sweep.csv"), "rb") as fh:
        raw = fh.read()
    reports = {b: s["limit_report"] for b, s in payload["kac_sweep"].items()}
    if step == "kac-sweep":
        problems += _check_sweep_rows(op.out_dir, size)
        state["csv"], state["reports"] = raw, reports
    else:
        # every row must be reused, and reused rows must equal the fresh ones bit for bit
        if raw != state.get("csv"):
            problems.append("second kac-sweep changed sweep.csv")
        if reports != state.get("reports"):
            problems.append("second kac-sweep reported other values than the first")
    return problems
