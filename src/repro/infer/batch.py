"""Campaign-level batched localization and its gather buffer.

Per-event inference evaluates each event's ring features alone — a few
hundred rows per network call.  :func:`localize_many` instead submits
many events' request generators to one
:class:`~repro.serve.scheduler.MicroBatchScheduler` and drains it: every
round gathers the pending feature blocks of the same kind across *all*
live events into one block, evaluates the engine once, and scatters the
row slices back to their generators.  The serving layer runs the same
rounds, which is why served outcomes equal ``localize_many`` outcomes
when the clients submit together.

**Determinism.**  Each event keeps its own ``Generator`` and its own
request stream, and requests within one event are answered strictly in
order, so every event consumes exactly the RNG draws and control flow it
would alone — batched outcomes are reproducible and independent of which
events share a group.  Per-row network outputs under cross-event
concatenation match per-event evaluation to the ulp but not always
bit-for-bit (BLAS kernels are shape-dependent), which is why campaign
batching is opt-in (``TrialConfig.event_batch > 1``) while the default
per-event path stays bit-identical to eager.  See
``docs/inference.md``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.infer.engine import build_engine
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


class GatherScratch:
    """Reusable gather buffer for one request kind.

    Every batching round concatenates the pending feature blocks of each
    request kind.  A campaign of thousands of events runs thousands of
    rounds, so a fresh gather array per kind per round is pure churn.
    This scratch keeps one growable ``(capacity, width)`` array per kind
    and copies blocks into its head instead; the array only ever grows
    (geometrically), so a steady-state campaign allocates nothing after
    warm-up.

    The returned view is consumed synchronously — the engine's scaler
    ``transform`` produces a fresh array before any plan touches it — so
    handing out a view of the scratch across rounds is safe.
    """

    def __init__(self) -> None:
        self._buf: np.ndarray | None = None
        self.grows = 0

    def gather(self, blocks: list[np.ndarray]) -> np.ndarray:
        """Concatenate ``blocks`` row-wise into the reusable buffer.

        A single block is returned as-is (no copy); multiple blocks are
        copied into the scratch and a head view is returned.

        Raises:
            ValueError: Empty ``blocks``, a non-2D block, or blocks with
                mismatched widths or dtypes (a silent mismatch would
                scatter garbage rows back to the wrong events).
        """
        if not blocks:
            raise ValueError("gather() needs at least one feature block")
        width = _checked_width(blocks)
        if len(blocks) == 1:
            return blocks[0]
        rows = sum(int(b.shape[0]) for b in blocks)
        dtype = blocks[0].dtype
        buf = self._buf
        if (
            buf is None
            or buf.shape[0] < rows
            or buf.shape[1] != width
            or buf.dtype != dtype
        ):
            capacity = rows if buf is None else max(rows, 2 * buf.shape[0])
            self._buf = buf = np.empty((capacity, width), dtype=dtype)
            self.grows += 1
        offset = 0
        for block in blocks:
            n = int(block.shape[0])
            buf[offset : offset + n] = block
            offset += n
        return buf[:rows]


def _checked_width(blocks: list[np.ndarray]) -> int:
    """Common feature width of ``blocks`` (all 2D, one width, one dtype)."""
    first = blocks[0]
    if first.ndim != 2:
        raise ValueError(f"feature blocks must be 2D, got ndim={first.ndim}")
    width = int(first.shape[1])
    for block in blocks[1:]:
        if block.ndim != 2:
            raise ValueError(
                f"feature blocks must be 2D, got ndim={block.ndim}"
            )
        if int(block.shape[1]) != width:
            raise ValueError(
                f"mixed feature widths in gather: {width} vs {block.shape[1]}"
            )
        if block.dtype != first.dtype:
            raise ValueError(
                f"mixed dtypes in gather: {first.dtype} vs {block.dtype}"
            )
    return width


def localize_many(
    pipeline,
    event_sets,
    rngs,
    engine=None,
    halt_after: int | None = None,
) -> list:
    """Localize many exposures with lock-step batched inference.

    Adds one :class:`~repro.serve.scheduler.ServeJob` per exposure (job
    id = input index) to a fresh scheduler and flushes it until no
    request is pending.

    Args:
        pipeline: A trained ``MLPipeline``.
        event_sets: One digitized ``EventSet`` per exposure.
        rngs: One ``numpy.random.Generator`` per exposure (never shared —
            sharing would interleave draw order across events).
        engine: Inference engine answering the gathered requests; None
            builds the default planned engine for ``pipeline``.
        halt_after: Anytime knob forwarded to every event's loop.

    Returns:
        One ``MLPipelineOutcome`` per exposure, in input order.

    Raises:
        ValueError: ``event_sets`` and ``rngs`` differ in length.
        Exception: A localization failed (for example ``ValueError`` for
            an unknown request kind): that job's own exception — the
            lowest input index's if several failed — raised once every
            other job has finished.
    """
    # serve is built on infer, so infer loads its scheduler lazily.
    from repro.serve.scheduler import MicroBatchScheduler, ServeJob

    event_sets = list(event_sets)
    rngs = list(rngs)
    if len(event_sets) != len(rngs):
        raise ValueError("need exactly one rng per event set")
    if engine is None:
        engine = build_engine(pipeline, "planned")

    clock = time.monotonic
    scheduler = MicroBatchScheduler(engine, clock=clock)
    with obs_trace.span("infer.localize_many"):
        jobs = [
            ServeJob(
                i,
                pipeline.localize_requests(events, rng, halt_after=halt_after),
                clock(),
            )
            for i, (events, rng) in enumerate(zip(event_sets, rngs))
        ]
        for job in jobs:
            scheduler.add(job)
        while scheduler.pending_requests:
            scheduler.flush("drain")
        obs_metrics.inc("infer.gather_rounds", scheduler.rounds)
    for job in jobs:
        if job.error is not None:
            raise job.error
    return [job.outcome for job in jobs]
