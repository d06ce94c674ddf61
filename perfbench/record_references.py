"""Record the default-seed outputs the benchmark checks against.

    python3 perfbench/record_references.py

Writes perfbench/references.json: the `uci` and `large` accuracy columns,
the `rates` mean_excess column and the `query` predictions, each from one
pass at the default seed. Run it only when a change is meant to alter these
outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import cap_blas_threads  # noqa: E402

cap_blas_threads()
from workloads import DEFAULT_SEED, REFERENCES, WORKLOADS  # noqa: E402


def main() -> int:
    refs = {}
    for name, cls in WORKLOADS.items():
        wl = cls(DEFAULT_SEED, HERE / "out")
        output, _, failed = wl.run_pass()
        if failed:
            print(f"{name}: {len(failed)} failed calls; nothing recorded", file=sys.stderr)
            return 1
        refs[name] = wl.reference(output)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
