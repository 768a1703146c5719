"""Run one evtrack benchmark workload and print its metrics.

    python3 perfbench/run.py --workload offline-64x64-q256 --seed 1 --seconds 20 --trace 0

Run from the repository root. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The lines before it give the same numbers for people, with sample counts,
the failure share, the output digest and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _single_blas_thread() -> int:
    """Run BLAS and OpenMP on one thread. A multi-threaded BLAS call waits
    for its slowest thread, so on a shared host a neighbour that takes one
    core slows every call; one thread keeps the timings steady. Must run
    before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return 1


def _environment(nproc: int, blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "nproc": nproc,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = _nproc()
    blas_threads = _single_blas_thread()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "evtrack", "__init__.py")):
        print(f"evtrack sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = _environment(nproc, blas_threads)
    result = workloads.run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                                    bool(args.trace), work_dir=ROOT)

    if not result.attempted:
        print("no operation was attempted", file=sys.stderr)
        return 1
    notes = result.notes
    share = result.failed / result.attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"units {notes.get('units')}  latency samples {notes.get('samples')}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  failed {result.failed} of {result.attempted} operations ({share:.1%})")
    if "efa" in notes:
        print(f"  efa at {workloads.EFA_DELTA_PX:g} px: {notes['efa']:.4f}")
    print(f"  output digest {notes.get('digest')}")
    if args.trace:
        print(f"  span self times vs root span: {notes.get('self_time_gap', float('nan')):.2%} apart")
        for names, value, rel, bound in notes.get("shares", []):
            verdict = "as chosen" if (value >= bound if rel == ">=" else value <= bound) else "NOT as chosen"
            print(f"  share {names}: {value:.1%} (chosen for {rel} {bound:.0%}): {verdict}")
    for problem in result.problems[:20]:
        print(f"  problem: {problem}")
    print("env " + json.dumps(env, sort_keys=True))
    correct = result.failed == 0 and not result.problems and bool(result.metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
