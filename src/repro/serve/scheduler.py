"""Micro-batch scheduler: coalesce requests across clients, flush in rounds.

The one gather → evaluate → scatter core of the ML pipeline: the server
drives it, and :func:`repro.infer.batch.localize_many` drains it for
campaigns.  Each admitted localization is a :class:`ServeJob` wrapping
the event's ``localize_requests`` generator.  Jobs file
:class:`InferRequest`\\ s into a pending set; a *flush* runs one lock-step
round over the whole set — for each request kind, gather every pending
feature block (reusing :class:`~repro.infer.batch.GatherScratch`),
evaluate the fused engine once, scatter the row slices back, and advance
each generator to its next request or its outcome.  Jobs are processed
in ascending ``job_id`` (submission) order within a round, so batching
is FIFO-fair, and clients that submit together get exactly the groupings
of ``localize_many`` — served outcomes are then bit-identical to the
batch path.

Flush *triggers* (checked by :meth:`MicroBatchScheduler.due`):

* **size** — pending requests reach ``BatchPolicy.max_requests`` or
  pending feature rows reach ``BatchPolicy.max_rows``; flush now, the
  batch is as big as we allow.
* **deadline** — the oldest pending request has waited
  ``BatchPolicy.deadline_s``; flush what we have.  The deadline is the
  coalescing window: raising it trades single-request latency for bigger
  fused batches.

The scheduler is deliberately synchronous and asyncio-free — the server
owns the event loop and calls :meth:`add`/:meth:`due`/:meth:`flush`; a
fake ``clock`` makes trigger semantics unit-testable without sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.infer.batch import GatherScratch
from repro.infer.engine import REQUEST_KINDS, InferRequest, evaluate_request
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


@dataclass(frozen=True)
class BatchPolicy:
    """Flush-trigger knobs for the micro-batch scheduler.

    Attributes:
        max_rows: Flush when pending feature rows reach this many.
        max_requests: Flush when this many requests are pending.
        deadline_s: Flush when the oldest pending request has waited
            this long (seconds); ``0`` flushes on every scheduler pass.
    """

    max_rows: int = 65536
    max_requests: int = 64
    deadline_s: float = 0.002

    def __post_init__(self) -> None:
        if self.max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {self.max_rows}")
        if self.max_requests < 1:
            raise ValueError(
                f"max_requests must be >= 1, got {self.max_requests}"
            )
        if self.deadline_s < 0:
            raise ValueError(
                f"deadline_s must be >= 0, got {self.deadline_s}"
            )


class ServeJob:
    """One in-flight localization: a request generator plus bookkeeping.

    Attributes:
        job_id: Monotonic submission id (defines FIFO order in a round).
        gen: The event's ``localize_requests`` generator.
        request: The currently pending :class:`InferRequest` (None while
            being evaluated or after completion).
        outcome: The ``MLPipelineOutcome`` once the generator returns.
        error: The exception if the generator raised instead.
        done: True once ``outcome`` or ``error`` is set.
        t_submit: Clock reading at submission (latency measurement).
        t_enqueue: Clock reading when ``request`` was filed (deadline
            trigger input).
        rounds: Fused rounds this job has participated in.
        future: Slot for the server's completion future (opaque here —
            the scheduler never touches asyncio).
    """

    __slots__ = ("job_id", "gen", "request", "outcome", "error", "done",
                 "t_submit", "t_enqueue", "rounds", "future")

    def __init__(self, job_id: int, gen, t_submit: float) -> None:
        self.job_id = job_id
        self.gen = gen
        self.request: InferRequest | None = None
        self.outcome = None
        self.error: BaseException | None = None
        self.done = False
        self.t_submit = t_submit
        self.t_enqueue = t_submit
        self.rounds = 0
        self.future = None


class MicroBatchScheduler:
    """Lock-step micro-batcher over many clients' request generators.

    Attributes:
        engine: The fused inference engine answering gathered requests.
        policy: The :class:`BatchPolicy` flush triggers.
        live: Jobs added and not yet completed.
        rounds: Total flush rounds executed.
        flush_reasons: ``reason -> count`` over all flushes.
    """

    def __init__(self, engine, policy: BatchPolicy | None = None,
                 clock=time.monotonic) -> None:
        self.engine = engine
        self.policy = policy if policy is not None else BatchPolicy()
        self.live = 0
        self.rounds = 0
        self.rows_flushed = 0
        self.flush_reasons: dict[str, int] = {}
        self._clock = clock
        self._pending: dict[int, ServeJob] = {}
        self._scratch = {kind: GatherScratch() for kind in REQUEST_KINDS}

    @property
    def pending_requests(self) -> int:
        """Number of requests currently awaiting a flush."""
        return len(self._pending)

    def pending_rows(self) -> int:
        """Total feature rows across the pending requests."""
        return sum(
            int(job.request.features.shape[0])
            for job in self._pending.values()
        )

    def add(self, job: ServeJob) -> list[ServeJob]:
        """Register a job and advance it to its first request.

        Returns:
            The jobs completed by the add — ``[job]`` when the generator
            finished without ever needing the engine, else ``[]``.
        """
        self.live += 1
        completed: list[ServeJob] = []
        self._advance(job, None, completed)
        return completed

    def due(self, now: float | None = None) -> str | None:
        """The trigger name if a flush should fire now, else None."""
        if not self._pending:
            return None
        if len(self._pending) >= self.policy.max_requests:
            return "size"
        if self.pending_rows() >= self.policy.max_rows:
            return "size"
        if now is None:
            now = self._clock()
        oldest = min(job.t_enqueue for job in self._pending.values())
        if now - oldest >= self.policy.deadline_s:
            return "deadline"
        return None

    def next_deadline(self) -> float | None:
        """Clock time when the deadline trigger fires (None when idle)."""
        if not self._pending:
            return None
        oldest = min(job.t_enqueue for job in self._pending.values())
        return oldest + self.policy.deadline_s

    def flush(self, reason: str = "deadline") -> list[ServeJob]:
        """Run one fused round over every pending request.

        Requests are snapshot at entry; generators advanced by the round
        file their *next* request into a fresh pending set, evaluated by
        a later flush.

        Args:
            reason: The trigger that fired (recorded in
                :attr:`flush_reasons` and the flush counters).

        Returns:
            Jobs completed during this round, in FIFO (job id) order.
        """
        ready, self._pending = self._pending, {}
        completed: list[ServeJob] = []
        rows = 0
        with obs_trace.span("serve.flush"):
            for kind in REQUEST_KINDS:
                ids = [j for j in sorted(ready) if ready[j].request.kind == kind]
                if not ids:
                    continue
                blocks = [ready[j].request.features for j in ids]
                lengths = [int(b.shape[0]) for b in blocks]
                merged = evaluate_request(
                    self.engine,
                    InferRequest(kind, self._scratch[kind].gather(blocks)),
                )
                offset = 0
                for j, n in zip(ids, lengths):
                    job = ready.pop(j)
                    job.request = None
                    job.rounds += 1
                    self._advance(job, merged[offset : offset + n], completed)
                    offset += n
                rows += sum(lengths)
            for job in ready.values():  # unhandled kinds: fail, don't hang
                job.request = None
                job.error = ValueError(
                    f"unknown request kind from job {job.job_id}"
                )
                job.done = True
                self.live -= 1
                completed.append(job)
        self.rounds += 1
        self.rows_flushed += rows
        self.flush_reasons[reason] = self.flush_reasons.get(reason, 0) + 1
        obs_metrics.inc("serve.rounds")
        obs_metrics.inc(f"serve.flush.{reason}")
        obs_metrics.observe("serve.batch_rows", float(rows))
        return sorted(completed, key=lambda job: job.job_id)

    def _advance(self, job: ServeJob, payload, completed: list[ServeJob]) -> None:
        """Step a job's generator; file its next request or finish it."""
        try:
            if payload is None:
                request = next(job.gen)
            else:
                request = job.gen.send(payload)
        except StopIteration as stop:
            job.outcome = stop.value
            job.done = True
            self.live -= 1
            completed.append(job)
            if obs_trace.is_enabled():
                obs_metrics.observe(
                    "serve.request_ms", (self._clock() - job.t_submit) * 1e3
                )
        except Exception as exc:  # surface in the job, keep the batch alive
            job.error = exc
            job.done = True
            self.live -= 1
            completed.append(job)
            obs_metrics.inc("serve.job_errors")
        else:
            job.request = request
            job.t_enqueue = self._clock()
            self._pending[job.job_id] = job
