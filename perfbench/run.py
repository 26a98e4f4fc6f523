#!/usr/bin/env python3
"""Run one clipcodec benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload encode-tiny32 --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The last line of standard output is the result
object; the line before it is a ``{"detail": ...}`` record with the
environment, the stream sha256 and the sample count of every timing.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare() -> None:
    """Pin native thread pools to one thread and put ``src/`` on the path.

    Must run before numpy is first imported: the pools read these
    variables once, when they start.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "clipcodec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no clipcodec sources under {SRC}")
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    import bench
    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(have {', '.join(bench.WORKLOADS)})")
    return bench.main(args.workload, args.seed, args.seconds,
                      bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
