"""Op-level microbenchmark registry.

Every hot kernel in the inference runtime registers a tracked
:class:`OpBenchmark` here (see ``repro.perf.ops``), so performance is a
*program*, not an afterthought: :func:`run_all` times the whole
registry as per-op rows/s, and ``scripts/ci_checks.py`` fails the build
if any op class exported by ``repro.infer.plan`` lacks a registered
benchmark.

A benchmark is a named factory: ``build()`` constructs the workload
once (weights, input blocks, arenas) and returns ``(fn, rows)`` where
``fn`` evaluates the kernel on ``rows`` input rows.  The runner then
times repeated calls and reports rows/s, best-of-rounds — the standard
defense against background-load noise on a shared machine.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from typing import Callable

#: Timed rounds per benchmark; the best (minimum) round is reported.
DEFAULT_ROUNDS = 3

#: Target seconds per timed round: calls are batched until one round
#: takes at least this long, so per-call timer overhead stays negligible
#: even for microsecond kernels.
DEFAULT_MIN_TIME = 0.02


@dataclass(frozen=True)
class OpBenchmark:
    """One registered kernel benchmark.

    Attributes:
        name: Registry key, e.g. ``"int8_linear_block597"``.
        op: Kernel class (or subsystem) this entry covers, e.g.
            ``"Int8LinearOp"`` or ``"GatherScratch"`` — what the CI
            coverage gate matches against.
        build: Zero-argument factory returning ``(fn, rows)``: a
            closure evaluating the kernel, and the input rows per call.
    """

    name: str
    op: str
    build: Callable[[], tuple[Callable[[], object], int]]


_REGISTRY: dict[str, OpBenchmark] = {}


def register(name: str, op: str):
    """Decorator: register ``build`` under ``name``, covering ``op``."""

    def _register(build):
        if name in _REGISTRY:
            raise ValueError(f"duplicate benchmark name {name!r}")
        _REGISTRY[name] = OpBenchmark(name=name, op=op, build=build)
        return build

    return _register


def registered() -> tuple[OpBenchmark, ...]:
    """All registered benchmarks, in name order."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def covered_ops() -> frozenset[str]:
    """Kernel/class names with at least one registered benchmark."""
    return frozenset(bench.op for bench in _REGISTRY.values())


def plan_op_names() -> frozenset[str]:
    """Op classes exported by ``repro.infer.plan`` (the coverage bar).

    An "op" is any public class in the plan module with an ``apply``
    execution method — the set the CI perf gate requires benchmarks
    for.  Discovered by inspection so a newly added op class fails the
    gate until someone benchmarks it.
    """
    from repro.infer import plan

    return frozenset(
        name
        for name, obj in vars(plan).items()
        if inspect.isclass(obj)
        and obj.__module__ == plan.__name__
        and callable(getattr(obj, "apply", None))
    )


#: Hot kernels outside ``repro.infer.plan`` that the coverage gate also
#: requires benchmarks for, by subsystem-qualified name.  The skymap
#: entries are the hierarchical sky search's two kernels (level
#: evaluation and the split-evaluate-merge refine step) — the cost the
#: Fig.-6 loop pays per emitted confidence region.  The localization
#: entries are the approximate/refine step the loop repeats every
#: iteration: robust refinement and capped chi-square scoring.  Source
#: generation, photon transport and digitization are where a simulation
#: campaign spends most of its time.
EXTRA_REQUIRED_OPS = frozenset(
    {
        "detector.digitize",
        "localization.capped_chi_square",
        "localization.refine_source",
        "physics.transport",
        "skymap.evaluate_cells",
        "skymap.refine_level",
        "sources.generate",
    }
)


def required_ops() -> frozenset[str]:
    """Every op name the CI coverage gate requires a benchmark for."""
    return plan_op_names() | EXTRA_REQUIRED_OPS


def missing_ops() -> frozenset[str]:
    """Required ops without a registered benchmark (CI gate input)."""
    return required_ops() - covered_ops()


def run_benchmark(
    bench: OpBenchmark,
    rounds: int = DEFAULT_ROUNDS,
    min_time: float = DEFAULT_MIN_TIME,
) -> float:
    """Time one benchmark; return rows/s (best of ``rounds``).

    The workload is built once, then calibrated: calls per round double
    until a round reaches ``min_time``.  Every subsequent round reuses
    that call count, and the fastest round wins.
    """
    fn, rows = bench.build()
    fn()  # warm-up: touch caches, trigger lazy allocations
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= min_time:
            break
        calls *= 2
    best = elapsed
    for _ in range(rounds - 1):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - t0)
    return calls * rows / best


def run_all(
    rounds: int = DEFAULT_ROUNDS, min_time: float = DEFAULT_MIN_TIME
) -> dict[str, float]:
    """Run every registered benchmark; return name -> rows/s."""
    return {
        bench.name: run_benchmark(bench, rounds=rounds, min_time=min_time)
        for bench in registered()
    }
