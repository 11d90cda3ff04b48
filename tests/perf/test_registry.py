"""The op-benchmark registry: coverage, timing contract, and hygiene."""

import numpy as np
import pytest

import repro.perf as perf
from repro.perf.registry import OpBenchmark, run_benchmark


class TestCoverage:
    def test_every_plan_op_class_is_covered(self):
        """The CI gate's core invariant, pinned here too: no op class in
        repro.infer.plan without a registered benchmark."""
        assert perf.missing_ops() == frozenset()

    def test_plan_op_discovery_sees_all_known_ops(self):
        assert perf.plan_op_names() >= {
            "LinearOp",
            "AffineOp",
            "ActivationOp",
            "QuantizeOp",
            "Int8LinearOp",
            "DequantizeOp",
        }

    def test_gather_scatter_path_is_tracked(self):
        assert "GatherScratch" in perf.covered_ops()

    def test_registered_is_name_sorted_and_unique(self):
        names = [bench.name for bench in perf.registered()]
        assert names == sorted(names)
        assert len(names) == len(set(names))


class TestBenchmarkContract:
    @pytest.mark.parametrize(
        "bench", perf.registered(), ids=lambda bench: bench.name
    )
    def test_build_returns_callable_and_rows(self, bench):
        fn, rows = bench.build()
        assert callable(fn)
        assert rows > 0
        assert fn() is not None

    def test_workloads_are_deterministic(self):
        """build() twice must produce identical outputs — fixed-seed
        fixtures are what make report-to-report deltas meaningful."""
        (entry,) = [
            b for b in perf.registered() if b.name == "int8_linear_block597"
        ]
        fn_a, _ = entry.build()
        fn_b, _ = entry.build()
        np.testing.assert_array_equal(fn_a(), fn_b())


class TestThroughputFloors:
    @pytest.mark.parametrize(
        "name", ["int8_linear_block597", "linear_f32_block597"]
    )
    def test_linear_kernels_above_floor(self, name):
        """The ML path's linear kernels keep >= 1e5 rows/s.

        On a quiet 2-vCPU host int8 reads 175-330k rows/s and float32
        1.6-3.4M, so the floor catches a several-fold regression.  It
        assumes no CPU-bound neighbours: OpenBLAS threads sharing the
        CPUs with busy processes read far lower."""
        (entry,) = [b for b in perf.registered() if b.name == name]
        assert run_benchmark(entry) >= 1.0e5


class TestRunner:
    def test_run_benchmark_reports_rows_per_s(self):
        bench = OpBenchmark(
            name="noop", op="Test", build=lambda: ((lambda: 0), 100)
        )
        rows_per_s = run_benchmark(bench, rounds=2, min_time=0.001)
        assert rows_per_s > 0

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):

            @perf.register("linear_f32_block597", op="LinearOp")
            def _clash():  # pragma: no cover - never called
                return (lambda: 0), 1

    def test_run_all_covers_every_entry(self):
        results = perf.run_all(rounds=1, min_time=0.0005)
        assert set(results) == {b.name for b in perf.registered()}
        assert all(v > 0 for v in results.values())
