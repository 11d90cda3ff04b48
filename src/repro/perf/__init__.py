"""Op-level performance program: tracked microbenchmarks per kernel.

``repro.perf.registry`` holds the registry and runner;
``repro.perf.ops`` registers one benchmark per inference kernel
(imported here so the registry is populated as a side effect of
``import repro.perf``).  ``scripts/ci_checks.py`` gates on coverage —
every op class in ``repro.infer.plan`` must have an entry — and
``tests/perf/test_registry.py`` holds throughput floors on the ML
path's linear kernels.
"""

from repro.perf import ops as _ops  # noqa: F401  (registers benchmarks)
from repro.perf.registry import (
    DEFAULT_MIN_TIME,
    DEFAULT_ROUNDS,
    OpBenchmark,
    covered_ops,
    missing_ops,
    plan_op_names,
    register,
    registered,
    required_ops,
    run_all,
    run_benchmark,
)

__all__ = [
    "DEFAULT_MIN_TIME",
    "DEFAULT_ROUNDS",
    "OpBenchmark",
    "covered_ops",
    "missing_ops",
    "plan_op_names",
    "register",
    "registered",
    "required_ops",
    "run_all",
    "run_benchmark",
]
