"""Persistent campaign executor: one pool, many map calls.

A fresh ``spawn`` pool per call (the seed's design) made a figure
campaign (dozens of sweep points, each mapping trials over a pool) pay
interpreter startup + ``import numpy`` per point and pickle every
argument and result through pipes.  :class:`CampaignExecutor` fixes
both failure modes:

* **Pool lifetime** — workers are spawned once and reused across campaign
  stages and sweep points.  ``get_executor`` keeps one live executor per
  worker count for the whole process (shut down atexit), so independent
  call sites share the same warm pool.
* **Transport** — large NumPy arrays travel via
  ``multiprocessing.shared_memory`` (:mod:`repro.parallel.shm`); only an
  object skeleton crosses the pipe.  Campaign-constant context (geometry,
  response, trained pipeline, config) is broadcast to each worker *once*
  per change instead of per task.
* **Threads** — a worker's BLAS/OpenMP pools start at one thread
  (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``)
  unless the caller's environment sizes them: the workers are the
  parallelism.
* **Scheduling** — tasks are dispatched in dynamically sized chunks:
  small enough that heterogeneous exposures load-balance across workers,
  large enough that per-chunk overhead stays negligible.  Results are
  reassembled in input order, and per-task seeds are the caller's
  responsibility (one ``SeedSequence.spawn`` child per task), so results
  are bit-identical regardless of worker count or chunking.

Fault tolerance
---------------

Flight-software campaigns must survive a worker OOM-kill or segfault
without losing the whole run.  The executor therefore treats worker death
as a recoverable event:

* A dead worker is detected from the dispatch loop, **respawned** in
  place (same worker id, fresh process), the cached ``common`` payload is
  re-broadcast to it, and the chunk it was running is **redispatched**.
* Each chunk carries a bounded retry budget (``max_retries``): a chunk
  that kills ``max_retries + 1`` consecutive workers is declared
  poisonous and raises :class:`CampaignWorkerError` carrying the full
  failure history.  The pool itself stays healthy and usable.
* ``task_timeout`` arms a **soft per-chunk timeout** of
  ``task_timeout * tasks_in_chunk`` seconds; a hung worker is killed and
  handled exactly like a crashed one.
* Every message is tagged with a **map epoch** so results from a chunk
  that was redispatched (or from a map interrupted by
  ``KeyboardInterrupt``) are recognized and discarded instead of
  corrupting a later call.
* Shared-memory hygiene: ``map`` unlinks every in-flight input block on
  *any* exit path, segments owned by reaped workers are swept after the
  map (and on ``close``), and pool startup runs a janitor that removes
  segments orphaned by previously crashed runs
  (:func:`repro.parallel.shm.sweep_stale`).

Recovery never changes results: chunk payloads are immutable and per-task
seeds are caller-supplied, so a redispatched chunk recomputes bit-identical
values.  Counters ``executor.worker_restarts`` / ``executor.chunk_retries``
/ ``executor.timeouts`` surface recovery activity in traces, and the same
numbers are always available (traced or not) in
:attr:`CampaignExecutor.stats`.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import threading
import time
import traceback
from collections.abc import Callable, Sequence

from repro.obs import aggregate as obs_aggregate
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.parallel import shm as shm_transport

#: Dispatch roughly this many chunks per worker so a slow exposure on one
#: worker is absorbed by the others picking up the remaining chunks.
CHUNKS_PER_WORKER = 4

#: Never let a chunk grow beyond this many tasks, whatever the workload.
MAX_CHUNK_TASKS = 64

#: Base respawn backoff; attempt ``k`` for a chunk waits ``k`` times this.
RESTART_BACKOFF_S = 0.05

#: Thread-pool sizes a worker starts at 1 unless the parent's environment
#: sets them: BLAS starts one thread per CPU in every process, so ``N``
#: workers on ``N`` CPUs would otherwise run ``N x N`` BLAS threads.
_WORKER_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Serializes the set-start-restore of those variables in ``os.environ``.
_SPAWN_ENV_LOCK = threading.Lock()

#: Process-wide fault-tolerance defaults, adjustable via :func:`configure`
#: (the CLI's ``--max-retries`` / ``--task-timeout`` land here).
DEFAULTS = {"max_retries": 2, "task_timeout": None}  # reprolint: disable=WRK001 -- parent-side knobs read at executor construction; workers never touch it

_UNSET = object()


class CampaignWorkerError(RuntimeError):
    """A task failed in a worker: raised an exception, or killed
    ``max_retries + 1`` workers in a row.  Carries the remote traceback
    or the per-attempt failure history."""


def auto_chunksize(n_tasks: int, n_workers: int) -> int:
    """Chunk size balancing dispatch overhead against load balance."""
    if n_tasks <= 0 or n_workers <= 0:
        return 1
    per_worker = -(-n_tasks // (CHUNKS_PER_WORKER * n_workers))  # ceil div
    return max(1, min(per_worker, MAX_CHUNK_TASKS))


def configure(max_retries: int | None = None,
              task_timeout: float | None = _UNSET) -> None:
    """Set process-wide fault-tolerance defaults and update live pools.

    Args:
        max_retries: Redispatches allowed per chunk (None keeps current).
        task_timeout: Soft per-task timeout in seconds; ``None`` disables
            timeouts (omit the argument to keep the current value).
    """
    if max_retries is not None:
        DEFAULTS["max_retries"] = max(0, int(max_retries))
    if task_timeout is not _UNSET:
        DEFAULTS["task_timeout"] = (
            None if task_timeout is None else float(task_timeout)
        )
    for ex in _EXECUTORS.values():
        if max_retries is not None:
            ex.max_retries = DEFAULTS["max_retries"]
        if task_timeout is not _UNSET:
            ex.task_timeout = DEFAULTS["task_timeout"]


def _worker_main(worker_id: int, inbox, results) -> None:
    """Worker loop: apply chunks, ship results back via shared memory."""
    common = None
    pending_unlink: list[shm_transport.PackedPayload] = []
    while True:
        msg = inbox.get()
        # The parent has necessarily consumed every result we sent before
        # it sent this message, so earlier result blocks can be released.
        for payload in pending_unlink:
            shm_transport.unlink(payload)
        pending_unlink.clear()
        if msg is None:
            return
        kind = msg[0]
        if kind == "common":
            common = pickle.loads(msg[1])
            continue
        _, epoch, chunk_id, fn, packed_args, obs_flags = msg
        # Telemetry mirrors the parent's live configuration per chunk
        # (tracer + optional profiler / resource monitor, see
        # repro.obs.aggregate.worker_flags).  Spans, metrics, and profile
        # samples recorded while running the chunk are snapshotted and
        # piggy-backed on the result message.
        obs_aggregate.apply_worker_flags(obs_flags)
        try:
            with obs_trace.span("executor.chunk") as chunk_span:
                args = shm_transport.unpack(packed_args)
                if common is None:
                    out = [fn(a) for a in args]
                else:
                    out = [fn(common, a) for a in args]
                packed = shm_transport.pack(out)
            obs_metrics.observe(
                "executor.worker_busy_ms", chunk_span.duration_ms
            )
            pending_unlink.append(packed)
            results.put(
                ("ok", epoch, worker_id, chunk_id, packed,
                 obs_aggregate.snapshot_and_reset())
            )
        except BaseException:
            results.put(
                ("err", epoch, worker_id, chunk_id, traceback.format_exc(),
                 obs_aggregate.snapshot_and_reset())
            )


class CampaignExecutor:
    """Persistent, crash-recovering worker pool for Monte-Carlo campaigns.

    With ``n_workers <= 1`` the executor degrades to an in-process serial
    map (no processes, no shared memory) with the same semantics —
    including error semantics: a raising task surfaces as
    :class:`CampaignWorkerError` at every worker count — so callers never
    branch on worker count.

    Args:
        n_workers: Number of worker processes (<=1 runs serially).
        start_method: Multiprocessing start method (``spawn`` matches the
            seed behavior and works everywhere).
        max_retries: Redispatches allowed per chunk before it is declared
            poisonous (default from :data:`DEFAULTS`).
        task_timeout: Soft per-task timeout in seconds; a chunk of ``k``
            tasks may run ``k * task_timeout`` seconds before its worker
            is killed and the chunk retried.  ``None`` disables timeouts
            (omit the argument to take the :data:`DEFAULTS` value).

    Attributes:
        stats: Always-on recovery counters (``worker_restarts``,
            ``chunk_retries``, ``timeouts``) — the untraced mirror of the
            ``executor.*`` obs counters.
    """

    def __init__(self, n_workers: int, start_method: str = "spawn",
                 max_retries: int | None = None,
                 task_timeout: float | None = _UNSET):
        self.n_workers = int(n_workers)
        self.max_retries = (DEFAULTS["max_retries"] if max_retries is None
                            else max(0, int(max_retries)))
        self.task_timeout = (DEFAULTS["task_timeout"]
                             if task_timeout is _UNSET else task_timeout)
        self.stats = {"worker_restarts": 0, "chunk_retries": 0, "timeouts": 0}
        self._common_digest: str | None = None
        self._common_payload: bytes | None = None
        self._procs: list = []
        self._inboxes: list = []
        self._results = None
        self._closed = False
        self._epoch = 0
        self._dead_pids: set[int] = set()
        if self.n_workers <= 1:
            return
        # Janitor: a previous run that crashed (or was SIGKILLed) may have
        # left segments behind; reclaim them before creating new ones.
        shm_transport.sweep_stale()
        self._ctx = mp.get_context(start_method)
        self._results = self._ctx.Queue()
        self._inboxes = [None] * self.n_workers
        self._procs = [None] * self.n_workers
        for wid in range(self.n_workers):
            self._spawn_worker(wid)

    def _spawn_worker(self, wid: int) -> None:
        """(Re)create worker ``wid`` with a fresh inbox and process.

        The worker inherits this process's environment at ``start``, with
        each ``_WORKER_THREAD_VARS`` variable it leaves unset set to 1;
        ``os.environ`` is restored before returning.
        """
        inbox = self._ctx.SimpleQueue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, inbox, self._results),
            daemon=True,
            name=f"campaign-worker-{wid}",
        )
        with _SPAWN_ENV_LOCK:
            added = [name for name in _WORKER_THREAD_VARS if name not in os.environ]
            try:
                for name in added:
                    os.environ[name] = "1"
                proc.start()
            finally:
                for name in added:
                    os.environ.pop(name, None)
        self._inboxes[wid] = inbox
        self._procs[wid] = proc

    # -- lifecycle -----------------------------------------------------------

    @property
    def is_serial(self) -> bool:
        """True when mapping runs in-process (no pool)."""
        return self.n_workers <= 1

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (empty when serial)."""
        return [p.pid for p in self._procs]

    def close(self) -> None:
        """Shut the pool down; the executor is unusable afterwards."""
        if self._closed:
            return
        self._closed = True
        for inbox in self._inboxes:
            try:
                inbox.put(None)
            except (OSError, ValueError):
                pass
        closed_pids = set(self._dead_pids)
        for proc in self._procs:
            closed_pids.add(proc.pid)
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs.clear()
        self._inboxes.clear()
        self._dead_pids.clear()
        if closed_pids:
            # A worker terminated between pack and unlink leaves a block
            # behind; everything it owned is reclaimable now.
            shm_transport.sweep_stale(extra_pids=closed_pids)

    def __enter__(self) -> "CampaignExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- mapping -------------------------------------------------------------

    def map(
        self,
        fn: Callable,
        args: Sequence,
        common: object | None = None,
        chunksize: int | None = None,
    ) -> list:
        """Map ``fn`` over ``args``, preserving input order.

        Args:
            fn: Importable (module-level) callable.  Called as ``fn(a)``,
                or ``fn(common, a)`` when a common payload is given.
            args: Per-task arguments.
            common: Campaign-constant context shared by every task
                (geometry, response, trained models, ...).  Broadcast to
                each worker once and cached there until it changes, so
                repeated ``map`` calls with the same context pay nothing.
            chunksize: Tasks per dispatch unit (auto-sized when None).

        Returns:
            ``[fn(a) for a in args]`` (respectively with ``common``),
            independent of worker count and chunking.

        Raises:
            CampaignWorkerError: A task raised (remote traceback attached;
                identical semantics at every worker count), or a chunk
                exhausted its retry budget killing workers.  The pool
                survives and stays usable either way.
            RuntimeError: The executor was closed.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        args = list(args)
        if not args:
            return []
        if self.is_serial:
            try:
                if common is None:
                    return [fn(a) for a in args]
                return [fn(common, a) for a in args]
            except Exception as exc:
                raise CampaignWorkerError(
                    f"campaign task failed in worker:\n{traceback.format_exc()}"
                ) from exc

        with obs_trace.span("executor.map") as map_span:
            return self._map_parallel(fn, args, common, chunksize, map_span)

    def _map_parallel(
        self,
        fn: Callable,
        args: list,
        common: object | None,
        chunksize: int | None,
        map_span,
    ) -> list:
        """Parallel body of :meth:`map` (telemetry merged under ``map_span``)."""
        obs_flags = obs_aggregate.worker_flags()
        trace_on = obs_flags is not None
        self._epoch += 1
        epoch = self._epoch
        self._broadcast_common(common)
        size = chunksize or auto_chunksize(len(args), self.n_workers)
        bounds = [(lo, min(lo + size, len(args))) for lo in range(0, len(args), size)]
        chunks: dict[int, shm_transport.PackedPayload] = {}
        dispatch_time: dict[int, float] = {}
        results: list = [None] * len(args)
        done_chunks: set[int] = set()
        in_flight: dict[int, int] = {}      # wid -> chunk_id
        started: dict[int, float] = {}      # wid -> dispatch monotonic time
        attempts: dict[int, list[str]] = {}  # chunk_id -> failure history
        first_error: str | None = None
        next_chunk = 0
        poll_s = 1.0
        if self.task_timeout is not None:
            poll_s = min(1.0, max(0.05, self.task_timeout / 2.0))

        def send_chunk(wid: int, cid: int) -> None:
            packed = chunks.get(cid)
            if packed is None:
                lo, hi = bounds[cid]
                packed = shm_transport.pack(args[lo:hi])
                chunks[cid] = packed
            if trace_on:
                dispatch_time[cid] = time.perf_counter()
            in_flight[wid] = cid
            started[wid] = time.monotonic()
            self._inboxes[wid].put(("chunk", epoch, cid, fn, packed, obs_flags))

        def dispatch_next(wid: int) -> None:
            nonlocal next_chunk
            send_chunk(wid, next_chunk)
            next_chunk += 1

        def reap_and_respawn(wid: int, reason: str) -> None:
            """Replace a dead/hung worker; retry or condemn its chunk."""
            proc = self._procs[wid]
            proc.join(timeout=5.0)
            self._dead_pids.add(proc.pid)
            self.stats["worker_restarts"] += 1
            obs_metrics.inc("executor.worker_restarts")
            cid = in_flight.pop(wid, None)
            started.pop(wid, None)
            history = None
            if cid is not None and cid not in done_chunks:
                history = attempts.setdefault(cid, [])
                history.append(reason)
                # Backoff grows with consecutive failures of this chunk,
                # giving a transiently starved machine room to recover.
                time.sleep(RESTART_BACKOFF_S * len(history))
            self._spawn_worker(wid)
            if self._common_payload is not None:
                self._inboxes[wid].put(("common", self._common_payload))
            if history is None:
                return
            if len(history) > self.max_retries:
                detail = "\n".join(
                    f"  attempt {i + 1}: {r}" for i, r in enumerate(history)
                )
                raise CampaignWorkerError(
                    f"chunk {cid} (tasks {bounds[cid][0]}..{bounds[cid][1]}) "
                    f"killed {len(history)} consecutive workers; giving up "
                    f"after {self.max_retries} retries:\n{detail}"
                )
            self.stats["chunk_retries"] += 1
            obs_metrics.inc("executor.chunk_retries")
            send_chunk(wid, cid)

        def check_workers() -> None:
            """Kill hung workers, then respawn every dead one."""
            if self.task_timeout is not None:
                now = time.monotonic()
                for wid, cid in list(in_flight.items()):
                    proc = self._procs[wid]
                    if not proc.is_alive():
                        continue  # handled by the death scan below
                    lo, hi = bounds[cid]
                    budget = self.task_timeout * (hi - lo)
                    if now - started[wid] > budget:
                        self.stats["timeouts"] += 1
                        obs_metrics.inc("executor.timeouts")
                        proc.kill()
                        reap_and_respawn(
                            wid,
                            f"worker {proc.name} (pid {proc.pid}) exceeded "
                            f"the soft chunk timeout ({budget:.1f}s for "
                            f"{hi - lo} tasks) and was killed",
                        )
            for wid, proc in enumerate(self._procs):
                if not proc.is_alive():
                    reap_and_respawn(
                        wid,
                        f"worker {proc.name} (pid {proc.pid}) died with "
                        f"exitcode {proc.exitcode}",
                    )

        try:
            for wid in range(min(self.n_workers, len(bounds))):
                dispatch_next(wid)
            while len(done_chunks) < len(bounds):
                try:
                    status, r_epoch, wid, chunk_id, payload, snap = \
                        self._results.get(timeout=poll_s)
                except queue_mod.Empty:
                    check_workers()
                    continue
                if r_epoch != epoch:
                    # Leftover from an interrupted or poisoned earlier map;
                    # its producer is gone or mid-teardown, so reclaim the
                    # result block here instead of relying on it.
                    if status == "ok":
                        shm_transport.unlink(payload)
                    continue
                if chunk_id in done_chunks:
                    # A worker we condemned (timeout kill racing completion)
                    # still delivered; the redispatch already supplied this
                    # chunk.  Identical bytes either way — drop it.
                    if status == "ok":
                        shm_transport.unlink(payload)
                    continue
                if in_flight.get(wid) == chunk_id:
                    in_flight.pop(wid)
                    started.pop(wid, None)
                done_chunks.add(chunk_id)
                packed_in = chunks.pop(chunk_id, None)
                if packed_in is not None:
                    # The worker has consumed this chunk's input block.
                    shm_transport.unlink(packed_in)
                if trace_on:
                    self._record_chunk_telemetry(
                        snap, chunk_id, dispatch_time, map_span
                    )
                if status == "ok":
                    out = shm_transport.unpack(payload)
                    lo, hi = bounds[chunk_id]
                    results[lo:hi] = out
                elif first_error is None:
                    first_error = payload
                if next_chunk < len(bounds) and self._procs[wid].is_alive():
                    dispatch_next(wid)
            # Each worker's final result block stays mapped until its next
            # inbox message (next map call or shutdown) — a bounded backlog
            # of one block per worker, traded for an ack-free protocol.
            if first_error is not None:
                raise CampaignWorkerError(
                    f"campaign task failed in worker:\n{first_error}"
                )
            return results
        finally:
            # Every exit path — success, poisoned chunk, task error,
            # KeyboardInterrupt — releases the parent-owned input blocks
            # still in flight and reclaims segments orphaned by workers
            # that died while owning one.
            for packed in chunks.values():
                shm_transport.unlink(packed)
            chunks.clear()
            if self._dead_pids:
                shm_transport.sweep_stale(extra_pids=self._dead_pids)
                self._dead_pids.clear()

    @staticmethod
    def _record_chunk_telemetry(
        snap: dict | None,
        chunk_id: int,
        dispatch_time: dict[int, float],
        map_span,
    ) -> None:
        """Merge a worker chunk snapshot and derive dispatch-side metrics.

        Queue wait is turnaround minus the worker's in-chunk busy time —
        the cost of the chunk sitting in the inbox plus result-queue
        latency plus shm transfer, i.e. everything the executor adds.
        """
        obs_aggregate.merge_snapshot(snap, parent_span_id=map_span.span_id)
        obs_metrics.inc("executor.chunks")
        t0 = dispatch_time.pop(chunk_id, None)
        if t0 is None:
            return
        turnaround_ms = (time.perf_counter() - t0) * 1e3
        obs_metrics.observe("executor.chunk_turnaround_ms", turnaround_ms)
        busy_ms = None
        if snap:
            for ev in reversed(snap.get("events", ())):
                if ev.get("type") == "span" and ev.get("name") == "executor.chunk":
                    busy_ms = ev["dur_ms"]
                    break
        if busy_ms is not None:
            obs_metrics.observe(
                "executor.queue_wait_ms", max(0.0, turnaround_ms - busy_ms)
            )

    def _broadcast_common(self, common: object | None) -> None:
        """Ship the campaign context to every worker if it changed.

        ``common=None`` clears any previously broadcast context so a later
        common-free ``map`` goes back to calling ``fn(a)``.  The pickled
        payload is kept so a respawned worker can be re-primed without
        the caller re-passing it.
        """
        if common is None:
            if self._common_digest is None:
                return
            payload = pickle.dumps(None, protocol=pickle.HIGHEST_PROTOCOL)
            digest = None
        else:
            payload = pickle.dumps(common, protocol=pickle.HIGHEST_PROTOCOL)
            digest = hashlib.sha256(payload).hexdigest()
            if digest == self._common_digest:
                return
        for inbox in self._inboxes:
            inbox.put(("common", payload))
        self._common_digest = digest
        self._common_payload = payload if digest is not None else None

# -- process-wide executor registry -----------------------------------------

_EXECUTORS: dict[int, CampaignExecutor] = {}  # reprolint: disable=WRK001 -- parent-side registry; never populated inside workers


def get_executor(n_workers: int) -> CampaignExecutor:
    """Return the process-wide executor for ``n_workers``, creating it once.

    The returned executor must *not* be closed by the caller; it is shared
    across call sites and shut down atexit (or via
    :func:`shutdown_executors`).  New executors take the fault-tolerance
    settings in :data:`DEFAULTS` (see :func:`configure`).
    """
    n_workers = max(1, int(n_workers))
    ex = _EXECUTORS.get(n_workers)
    if ex is None or ex._closed:
        ex = CampaignExecutor(n_workers)
        _EXECUTORS[n_workers] = ex
    return ex


def shutdown_executors() -> None:
    """Close every registry executor (idempotent)."""
    for ex in list(_EXECUTORS.values()):
        ex.close()
    _EXECUTORS.clear()


def _atexit_shutdown() -> None:
    # Only the parent process should tear the registry down; a spawned
    # worker importing this module must not touch it.
    if os.getpid() == _REGISTRY_PID:
        shutdown_executors()


_REGISTRY_PID = os.getpid()
atexit.register(_atexit_shutdown)
