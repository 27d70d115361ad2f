#!/usr/bin/env python3
"""Benchmark of the sddeimpulse CLI: one seeded workload per process.

Run from anywhere inside a checkout (the package is imported from src/):

    python3 bench/run.py --workload grid-reduced --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

One pass runs the workload's command sequence through sddeimpulse.cli.main
on a fresh run directory.  Passes repeat at the same seed until --seconds
are used up (at least two: the second is the determinism check).

--trace 0 reports the end-to-end metrics of untraced passes.  --trace 1 runs
one untraced pass, then traced passes, and reports the per-layer metrics.
Every metric is printed by name with its unit; the last stdout line is one
JSON object {correct, attempted, failed, metrics}.  Run artifacts, the
generated config and result.json land in .bench_out/ under the checkout.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="workload name, or 'all' for every workload")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one timed set-up in a fresh interpreter, see measure_setup
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cap_blas_threads():
    """Cap BLAS threads at the cores this process may use; numpy reads the
    variables when it loads, so this runs before any import of it."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def main(argv=None):
    args = parse_args(argv)
    package = os.path.join(SRC, "sddeimpulse")
    if not (os.path.isfile(os.path.join(package, "__init__.py"))
            and os.path.isdir(os.path.join(ROOT, "configs"))):
        print(f"error: {ROOT} holds no sddeimpulse checkout "
              "(src/sddeimpulse and configs/ are required)", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    blas_cap = cap_blas_threads()
    sys.path.insert(0, SRC)
    import sddeimpulse
    if os.path.dirname(os.path.abspath(sddeimpulse.__file__)) != package:
        print(f"error: sddeimpulse imported from {sddeimpulse.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import harness
    import workloads

    if args.workload == "all":
        return harness.run_all(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    if args.setup_only is not None:
        ops = harness.setup(args.workload, args.seed, args.setup_only)[2]
        return 0 if all(ops.values()) else 1
    return harness.Bench(args.workload, args.seed, args.seconds, args.trace,
                         blas_cap).run()


if __name__ == "__main__":
    sys.exit(main())
