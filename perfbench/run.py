"""Benchmark msknn end to end, or trace its layers.

    python3 perfbench/run.py --workload uci --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from `src/`. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Full results, the
environment and (when tracing) the spans are written to `perfbench/out/`.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Cap the BLAS pool at the cores this process may use; call before numpy loads."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = nproc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("uci", "rates", "large", "query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "msknn" / "__init__.py").is_file():
        print(f"no msknn package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import runner

    result = runner.run(args.workload, args.seed, args.seconds, bool(args.trace), HERE / "out")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
