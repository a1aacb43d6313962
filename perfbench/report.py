"""Run every workload for one seed and print each metric by name and unit.

    python3 perfbench/report.py --seed 7 [--seconds 30] [--workloads game-1d ...]

Per workload: one untraced run (end-to-end metrics), then two traced runs
(per-layer metrics).  It prints the tracing overhead as traced wall_s
minus the untraced run's measured wall_s, and checks that the computed counts of the two
traced runs are identical.  Exit code 1 if a run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from tracing import COMPUTED_COUNTS  # noqa: E402


def _run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit(f"{workload} --trace {trace} printed no result:\n{proc.stderr}")
    info, result = (json.loads(ln) for ln in lines[-2:])
    return proc.returncode, info, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        code, info, plain = _run(workload, args.seed, args.seconds, 0)
        print(f"== {workload}  seed {args.seed}  machine {json.dumps(info['machine'])}")
        for name, m in plain["metrics"].items():
            print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'fail_ratio':<28} {info['fail_ratio']:>14.6g} ({plain['failed']} of "
              f"{plain['attempted']} operations)")
        print(f"  op_tail_s is p{info['op_tail_percentile']:.4g} of {info['op_count']} operations")
        traced = [_run(workload, args.seed, args.seconds, 1) for _ in range(2)]
        layer = traced[0][2]["metrics"]
        for name, m in layer.items():
            print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
        overhead = layer["trace.wall_s"]["value"] - info["measured_s"]["wall_s"]
        print(f"  {'tracing overhead':<28} {overhead:>14.6g} s (traced wall_s - untraced measured wall_s)")
        drift = [c for c in COMPUTED_COUNTS
                 if layer[c]["value"] != traced[1][2]["metrics"][c]["value"]]
        print(f"  computed counts repeat exactly: {'yes' if not drift else drift}")
        print(f"  firing self-check: {traced[0][1]['self_check']}, {traced[1][1]['self_check']}")
        ok &= (code == 0 and plain["correct"] and not drift
               and all(c == 0 and r["correct"] for c, _, r in traced))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
