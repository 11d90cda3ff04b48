"""Inference engines: pluggable evaluation backends for the ML pipeline.

The pipeline's localization loop does not call the network bundles
directly any more — it emits :class:`InferRequest` items (see
``MLPipeline.localize_requests``) and an *engine* answers them:

* :class:`EagerEngine` (backend ``"reference"``) delegates to the trained
  bundles' own ``predict_proba`` / ``predict_deta`` — the original code
  path.  It answers ``MLPipeline.localize(engine=None)`` and is the
  parity reference the planned path is tested against.
* :class:`PlannedEngine` (backends ``"planned"`` / ``"int8"``) evaluates
  compiled :class:`~repro.infer.plan.InferencePlan` programs with
  pre-allocated arenas.  Post-processing (sigmoid, logit clipping, the
  dEta clip-and-exp) is delegated back to the *bundle's* own helper
  methods, so the planned path cannot drift from the eager definition.

Engines are plain picklable objects: campaigns compile plans once in the
parent and ship the engine to workers through the executor's common
payload (broadcast once per campaign, not per chunk).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.infer.plan import InferencePlan, compile_int8_plan, compile_plan
from repro.models.quantized import Int8BackgroundNet

#: Recognized inference backends.
INFER_BACKENDS = ("reference", "planned", "int8")

#: Compute dtypes accepted for float plans.  float32 is the runtime
#: default (deployment-grade, sgemm-backed); float64 is the bit-parity
#: mode the campaign driver selects by default.
PLANNED_DTYPES = ("float32", "float64")

#: Request kinds :func:`evaluate_request` answers, in the fixed order a
#: batching round evaluates them.
REQUEST_KINDS = ("background", "deta")


@dataclass(frozen=True)
class InferRequest:
    """One network-evaluation request emitted by the localization loop.

    Attributes:
        kind: ``"background"`` (wants per-ring background probabilities)
            or ``"deta"`` (wants per-ring predicted ``d eta``).
        features: ``(m, f)`` raw (unscaled) ring features.
    """

    kind: str
    features: np.ndarray


class EagerEngine:
    """Reference backend: the bundles' original per-call evaluation."""

    backend = "reference"

    def __init__(self, background_net, deta_net) -> None:
        self.background_net = background_net
        self.deta_net = deta_net

    def background_proba(self, features: np.ndarray) -> np.ndarray:
        """Background probability per ring, shape ``(m,)``."""
        return self.background_net.predict_proba(features)

    def deta(self, features: np.ndarray) -> np.ndarray:
        """Predicted ``d eta`` per ring, shape ``(m,)``."""
        return self.deta_net.predict_deta(features)


class PlannedEngine:
    """Planned backend: compiled plans + arena execution.

    Attributes:
        backend: ``"planned"`` or ``"int8"`` (cosmetic — the plan type
            is determined by the bundle at build time).
        background_plan: Compiled background-net plan (float or INT8).
        deta_plan: Compiled dEta-net plan (always float, as in the paper:
            the INT8 deployment runs "in conjunction with the FP32
            version of the dEta model").
    """

    def __init__(
        self,
        backend: str,
        background_net,
        deta_net,
        background_plan: InferencePlan,
        deta_plan: InferencePlan,
    ) -> None:
        self.backend = backend
        self.background_net = background_net
        self.deta_net = deta_net
        self.background_plan = background_plan
        self.deta_plan = deta_plan

    def background_proba(self, features: np.ndarray) -> np.ndarray:
        """Background probability per ring, shape ``(m,)``."""
        x = self.background_net.scaler.transform(features)
        logit = self.background_plan.run(x)[:, 0]
        return self.background_net.proba_from_logit(logit)

    def deta(self, features: np.ndarray) -> np.ndarray:
        """Predicted ``d eta`` per ring, shape ``(m,)``."""
        x = self.deta_net.scaler.transform(features)
        raw = self.deta_plan.run(x)[:, 0]
        return self.deta_net.deta_from_raw(raw)


def evaluate_request(engine, request: InferRequest) -> np.ndarray:
    """Answer one :class:`InferRequest` with the given engine."""
    if request.kind == "background":
        return engine.background_proba(request.features)
    if request.kind == "deta":
        return engine.deta(request.features)
    raise ValueError(f"unknown request kind {request.kind!r}")


def build_engine(
    pipeline,
    backend: str = "planned",
    micro_batch: int | None = None,
    dtype: str | np.dtype | None = None,
):
    """Build an inference engine for a trained ``MLPipeline``.

    Args:
        pipeline: The trained pipeline (FP32 or INT8 background bundle).
        backend: ``"reference"`` (eager bundles), ``"planned"`` (compiled
            plans — float for a ``BackgroundNet``, automatically INT8 for
            an ``Int8BackgroundNet``), or ``"int8"`` (same as planned but
            *requires* the INT8 bundle, failing loudly otherwise).
        micro_batch: Arena tile rows; None keeps the plan default.
        dtype: Compute dtype for the *float* plans (the background plan
            when not quantized, and always the dEta plan): one of
            :data:`PLANNED_DTYPES`.  None keeps the runtime default
            (float32); pass ``"float64"`` for bit-identity with the
            eager bundles.  Integer plans are unaffected — the INT8
            chain is bit-exact at any setting.

    Returns:
        An :class:`EagerEngine` or :class:`PlannedEngine`.

    Raises:
        ValueError: Unknown backend or dtype, or ``"int8"`` requested
            for a pipeline whose background bundle is not quantized.
    """
    if backend not in INFER_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; options: {INFER_BACKENDS}"
        )
    if dtype is not None and np.dtype(dtype).name not in PLANNED_DTYPES:
        raise ValueError(
            f"unsupported plan dtype {dtype!r}; options: {PLANNED_DTYPES}"
        )
    bg = pipeline.background_net
    deta_net = pipeline.deta_net
    if backend == "reference":
        return EagerEngine(bg, deta_net)
    kwargs = {} if micro_batch is None else {"micro_batch": micro_batch}
    float_kwargs = dict(kwargs)
    if dtype is not None:
        float_kwargs["dtype"] = np.dtype(dtype)
    if isinstance(bg, Int8BackgroundNet):
        bg_plan = compile_int8_plan(bg.model, **kwargs)
    elif backend == "int8":
        raise ValueError(
            "int8 backend requires an Int8BackgroundNet bundle; quantize "
            "the pipeline first (models.quantized.quantize_background_net)"
        )
    else:
        bg.model.eval()
        bg_plan = compile_plan(bg.model, **float_kwargs)
    deta_net.model.eval()
    deta_plan = compile_plan(deta_net.model, **float_kwargs)
    return PlannedEngine(backend, bg, deta_net, bg_plan, deta_plan)
