"""kaclab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload game-1d --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; kaclab is imported from ``src/``
of that checkout and nothing is installed.  The run generates its inputs
from the seed, runs the workload's operations as a closed loop, checks
every output, and prints one JSON line per run as the last line of
standard output: end-to-end metrics with --trace 0, per-layer metrics from
wrapped kaclab functions with --trace 1.  The line before it is a JSON
object with the machine facts, the failure ratio, the tail percentile, the
measured run times and the calibration slowdown.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-1d", "game-1d")
SETUP_PROBES = 3  # fresh processes before the measured phase, and as many after it
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1  # on a few shared cores, more threads measure the scheduler
# Median time of the calibration kernel on the machine that defined the
# benchmark (2-core x86_64, OpenBLAS 0.3.31, one BLAS thread).  Run times
# are reported at that speed; see _calibration.
CALIBRATION_REF_S = 0.07
CALIBRATION_EVERY_S = 0.5


def _nproc():
    return len(os.sched_getaffinity(0))


def _pin_blas_threads():
    """Must run before numpy is imported; set in the environment so that the
    set-up probes use the same value, whatever the caller's environment says.
    """
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)


def _import_kaclab():
    src = ROOT / "src"
    if not (src / "kaclab" / "__init__.py").is_file():
        sys.exit(f"run.py: no kaclab sources under {src}; run from a kaclab checkout")
    sys.path.insert(0, str(src))
    import kaclab
    import kaclab.cli  # noqa: F401  (the entry point every operation calls)

    if Path(kaclab.__file__).resolve().parent != (src / "kaclab").resolve():
        sys.exit(f"run.py: imported kaclab from {kaclab.__file__}, not from {src}")
    return kaclab


def _machine():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": _nproc(), "cpu": cpu,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
    }


def _work_dir():
    path = ROOT / ".perfbench-work" / str(os.getpid())
    path.mkdir(parents=True)
    return path


def _remove_work_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def _probe(args):
    """Set-up only: import kaclab, write the inputs, report ready, clean up."""
    from workloads import make_ops, write_inputs

    _import_kaclab()
    work = _work_dir()
    write_inputs(make_ops(args.workload, args.seed, args.seconds), str(work))
    print("ready", flush=True)
    _remove_work_dir(work)


def _setup_times(args):
    """Process start to inputs ready, measured in fresh processes."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"run.py: set-up probe failed with exit code {code}")
        times.append(ready)
    return times


def _tail(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    With fewer samples than that allows, the maximum (percentile 100).
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = n - TAIL_BEYOND
    return xs[k - 1], 100.0 * k / n


def _calibration():
    """A fixed kernel, timed between the CLI calls of an untraced run.

    On a shared host single-core speed swings by 15-40% over minutes, and
    kaclab slows with it.  The kernel does kaclab's two kinds of work, small
    numpy calls from a Python loop (the BZ quadrature) and a dense ``eigh``
    larger than the L2 cache (ED), and no kaclab code.  Run times are divided
    by the median kernel time of the run over CALIBRATION_REF_S, which
    removes most of the swing and none of a change to kaclab.  The kernel
    runs before a call once CALIBRATION_EVERY_S have passed since it last
    ran, so its samples spread evenly over the run.
    Returns (the hook to call before each CLI call, the kernel's samples).
    """
    import numpy as np

    rng = np.random.default_rng(0)
    vec = rng.random(64)
    mat = rng.random((500, 500))
    mat += mat.T
    samples, last = [], -math.inf

    def before_call():
        nonlocal last
        t0 = time.perf_counter()
        if t0 - last < CALIBRATION_EVERY_S:
            return
        for _ in range(3000):
            float(np.tensordot(vec, vec, 1))
        np.linalg.eigh(mat)
        last = time.perf_counter()
        samples.append(last - t0)

    return before_call, samples


def _run_ops(ops, before_step):
    """The measured phase: every operation in order.

    Returns the wall and CPU time of the CLI calls, the times of the
    operations, the times of the repeated requests (resume_s) and the
    failures.  An operation that asks an earlier model again is timed as a
    resume, not as an operation.  Output checks and calibration are not timed.
    """
    from workloads import run_op

    wall = cpu = 0.0
    op_times, resume_times, failures = [], [], []
    for op in ops:
        try:
            problems, times = run_op(op, before_step)
        except Exception as err:  # an unexpected output shape is a failed operation
            problems, times = [f"{type(err).__name__}: {err}"], []
        dt = sum(t for _, t, _ in times)
        wall += dt
        cpu += sum(c for _, _, c in times)
        if problems:
            failures.append({"op": op.label, "problems": problems[:5]})
        if op.again:
            resume_times.append(dt)
        else:
            op_times.append(dt)
            resume_times += [t for step, t, _ in times if step == "kac-sweep-again"]
    return wall, cpu, op_times, resume_times, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _pin_blas_threads()
    if args.probe:
        return _probe(args)

    from workloads import make_ops, write_inputs

    _import_kaclab()
    work = _work_dir()
    try:
        ops = make_ops(args.workload, args.seed, args.seconds)
        write_inputs(ops, str(work))
        setup = _setup_times(args)  # before and after the measured phase, to sample more of the run

        tracer = undo = kernel = None
        calibration = []
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            undo = tracing.install(tracer)
        else:
            kernel, calibration = _calibration()
        wall, cpu, op_times, resume_times, failures = _run_ops(ops, kernel)
        if undo:
            tracing.uninstall(undo)
        setup += _setup_times(args)
    finally:
        _remove_work_dir(work)

    tail, tail_pct = _tail(op_times)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": _machine(),
        "fail_ratio": len(failures) / len(ops), "op_count": len(op_times),
        "op_tail_percentile": tail_pct, "setup_probes_s": setup, "failures": failures,
    }
    raw = {"wall_s": wall, "cpu_s": cpu, "op_p50_s": statistics.median(op_times),
           "op_tail_s": tail, "resume_s": statistics.median(resume_times)}
    info["measured_s"] = raw
    if tracer:
        self_check = tracer.firing_problems(args.workload)
        info.update(computed_counts=tracing.COMPUTED_COUNTS, self_check=self_check or "passed")
        metrics = tracer.metrics(wall)
    else:
        self_check = []
        slowdown = statistics.median(calibration) / CALIBRATION_REF_S
        info.update(calibration_samples=len(calibration), slowdown=slowdown)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        metrics.update({name: {"value": value / slowdown, "unit": "ref_s"}
                        for name, value in raw.items()})
    print(json.dumps(info))
    print(json.dumps({"correct": not failures and not self_check, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    if self_check:
        print(f"run.py: firing self-check failed: {self_check}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
