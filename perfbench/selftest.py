"""Self-tests of the benchmark's checks and tracer.

    python3 perfbench/selftest.py

Each test runs a workload for a fraction of a second in this process; the
whole file takes about a minute. It is not named test_*.py, so the
repository's own test suite does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import cap_blas_threads  # noqa: E402

cap_blas_threads()

import msknn  # noqa: E402
import runner  # noqa: E402
from tracer import PROBES, Tracer, TracerError, resolve  # noqa: E402


def _snapshot() -> dict:
    """Identity of every attribute of every msknn module and of the probed classes."""
    owners = [m for name, m in sys.modules.items() if name.startswith("msknn")]
    owners += [resolve(name)[0] for name, _, _ in PROBES]
    return {(id(o), k): id(v) for o in owners for k, v in vars(o).items()}


def _run(workload: str, seed: int, trace: bool) -> dict:
    quiet = contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO())
    with tempfile.TemporaryDirectory() as tmp, quiet[0], quiet[1]:
        return runner.run(workload, seed, 0.01, trace, Path(tmp))


class BenchmarkSelfTest(unittest.TestCase):
    def test_clean_run_is_correct(self):
        result = _run("uci", 1, trace=False)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_wrong_neighbour_index_raises_error_rate(self):
        original = msknn.bench.knn_search_batch

        def swapped(train, queries, k_max):
            idx, dist = original(train, queries, k_max)
            idx[:, [0, 1]] = idx[:, [1, 0]]
            return idx, dist

        msknn.bench.knn_search_batch = swapped
        try:
            result = _run("uci", 1, trace=False)
        finally:
            msknn.bench.knn_search_batch = original
        self.assertGreater(result["failed"] / result["attempted"], 0)
        self.assertFalse(result["correct"])

    def test_missing_probed_name_fails_the_traced_run(self):
        # as if the package had renamed a function the tracer still probes
        probes = PROBES + (("msknn.bench._renamed_scorer", "bench.score", None),)
        before = _snapshot()
        original = runner.Tracer
        runner.Tracer = lambda: Tracer(probes)
        try:
            with self.assertRaises(TracerError):
                _run("uci", 1, trace=True)
        finally:
            runner.Tracer = original
        self.assertEqual(_snapshot(), before)

    def test_untraced_run_leaves_the_package_unchanged(self):
        before = _snapshot()
        _run("query", 1, trace=False)
        self.assertEqual(_snapshot(), before)

    def test_traced_run_restores_the_package(self):
        before = _snapshot()
        result = _run("rates", 1, trace=True)
        self.assertEqual(_snapshot(), before)
        self.assertTrue(result["correct"])
        self.assertGreater(result["metrics"]["trace.coverage"]["value"], 0.9)

    def test_self_time_excludes_children(self):
        tracer = Tracer(probes=())
        tracer.names = ["cli.main", "bench.run", "neighbors.search"]
        tracer.starts = [0.0, 1.0, 2.0]
        tracer.ends = [10.0, 9.0, 5.0]
        tracer.parents = [-1, 0, 1]
        self.assertEqual(tracer.self_times(), {"cli.main": 2.0, "bench.run": 5.0, "neighbors.search": 3.0})


if __name__ == "__main__":
    unittest.main()
