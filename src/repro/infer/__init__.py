"""Planned, batched inference runtime for the trained networks.

Compiles a trained ``Module`` tree into a flat execution plan (fused
Linear+activation stages, eval-mode BatchNorm as precomputed affines,
train-only layers elided), executes it in pre-allocated activation
arenas, and exposes pluggable engines the localization pipeline and the
campaign runner consume.  See ``docs/inference.md`` for semantics and
the parity guarantees and how throughput is measured.
"""

from repro.infer.arena import DEFAULT_MICRO_BATCH, ActivationArena
from repro.infer.batch import GatherScratch, localize_many
from repro.infer.engine import (
    INFER_BACKENDS,
    PLANNED_DTYPES,
    EagerEngine,
    InferRequest,
    PlannedEngine,
    build_engine,
    evaluate_request,
)
from repro.infer.plan import (
    ACTIVATIONS,
    DEFAULT_PLAN_DTYPE,
    ActivationOp,
    AffineOp,
    DequantizeOp,
    InferencePlan,
    Int8LinearOp,
    LinearOp,
    QuantizeOp,
    compile_int8_plan,
    compile_plan,
)

__all__ = [
    "ACTIVATIONS",
    "ActivationArena",
    "ActivationOp",
    "AffineOp",
    "DEFAULT_MICRO_BATCH",
    "DEFAULT_PLAN_DTYPE",
    "DequantizeOp",
    "EagerEngine",
    "GatherScratch",
    "INFER_BACKENDS",
    "InferRequest",
    "InferencePlan",
    "Int8LinearOp",
    "LinearOp",
    "PLANNED_DTYPES",
    "PlannedEngine",
    "QuantizeOp",
    "build_engine",
    "compile_int8_plan",
    "compile_plan",
    "evaluate_request",
    "localize_many",
]
