"""Serve workload: ``serve_load``.

* **Closed phase** — ``N_CLIENTS`` clients each submit (``wait=True``),
  await the reply and submit again, against a server with
  ``queue_limit=2`` and ``BatchPolicy(max_requests=2, deadline_s=0.001)``:
  small fused rounds (~900 rows).  It gives the latency metrics.
* **Burst phase** — requests on a seeded Poisson schedule above the
  server's capacity, submitted with ``wait=False`` to a default-config
  server: large fused rounds (5-18k rows).  Latency counts from each
  request's due time; completed requests over the time from the first due
  send to the last completion is the goodput, the throughput metric.

Events come from a pre-simulated pool, so physics is not in the loop, and
no sky map is computed.  The traced pass wraps the scheduler's ``flush`` and
``add`` on the server instance and answers inference through a timing
engine proxy.
"""

from __future__ import annotations

import asyncio
import functools
import time
from dataclasses import dataclass

import numpy as np

from bench import N_CLIENTS
from bench.core import (
    SUBRUNS,
    RunResult,
    SpanLog,
    TimedEngine,
    errors_valid,
    outcomes_equal,
    percentile,
    poisson_schedule,
    repeated_setup,
    rss_peak_mb,
    subrun_medians,
)
from bench.inputs import exposure_pool, instrument, op_rng, small_pipeline
from repro.infer import build_engine, localize_many
from repro.serve import (
    AdmissionError,
    BatchPolicy,
    LocalizationServer,
    ServeConfig,
    serve_events,
)

_WARMUP_STREAM, _CLOSED_STREAM, _BURST_STREAM = 7, 8, 9

#: Closed-phase server: one slot and one fused request per client.
CLOSED_CONFIG = ServeConfig(
    queue_limit=N_CLIENTS,
    policy=BatchPolicy(max_requests=N_CLIENTS, deadline_s=0.001),
)

#: Served outcomes checked against ``localize_many``.
PARITY_REQUESTS = 8


@dataclass(frozen=True)
class ServeSpec:
    """Sizes of the serve workload.

    Attributes:
        pool_size: Pre-simulated exposures (requests cycle through them).
        warmup: Requests served lock-step at the end of each set-up.
        min_closed_per_client: Closed-phase requests per client even when
            the time is up first.
        burst_requests: Requests in the burst.  At the default rate the
            backlog peaked at 70-135 requests, below the default
            ``queue_limit`` of 256, so nothing is shed.
        burst_rate_per_s: Burst arrival rate, above the ~70-90 req/s the
            server sustains on two cores.  At 120 req/s the backlog reached
            the queue limit and capacity fell to ~80 req/s while requests
            were shed, so the goodput stopped measuring a steady server.
    """

    pool_size: int = 32
    warmup: int = 8
    min_closed_per_client: int = 100
    burst_requests: int = 400
    burst_rate_per_s: float = 100.0


SERVE = ServeSpec()


async def closed_loop(submit, make_request, n_clients: int, seconds: float,
                      min_per_client: int, counts=None, log: SpanLog | None = None):
    """Clients that each wait for a reply before sending their next request.

    Client ``c``'s ``r``-th request is request ``k = r * n_clients + c``.
    Each client keeps going until ``seconds`` have passed and it has sent
    ``min_per_client`` requests, or sends exactly ``counts[c]`` when given.

    Returns:
        ``({k: (start, end, outcome)}, wall_s)``.
    """
    results = {}
    t_start = time.perf_counter()

    def more(c: int, r: int) -> bool:
        if counts is not None:
            return r < counts[c]
        return r < min_per_client or time.perf_counter() - t_start < seconds

    async def client(c: int) -> None:
        r = 0
        while more(c, r):
            k = r * n_clients + c
            t0 = time.perf_counter()
            outcome = await submit(*make_request(k))
            t1 = time.perf_counter()
            results[k] = (t0, t1, outcome)
            if log is not None:
                log.add("serve.request", k, t0, t1)
            r += 1

    await asyncio.gather(*(client(c) for c in range(n_clients)))
    return results, time.perf_counter() - t_start


async def open_loop(submit, make_request, due, log: SpanLog | None = None):
    """Send request ``k`` at ``due[k]`` seconds, whether or not replies came.

    A request refused at admission (``AdmissionError``) yields None.

    Returns:
        ``(t0, results, lateness_s)``: the start time, per request
        ``(latency_s from its due time, outcome, completion time)`` or None,
        and how late the generator sent each request.
    """
    t0 = time.perf_counter()
    lateness = []

    async def one(k: int, t_due: float):
        t_send = time.perf_counter()
        try:
            outcome = await submit(*make_request(k))
        except AdmissionError:
            return None
        t_done = time.perf_counter()
        if log is not None:
            log.add("serve.request", k, t_send, t_done)
        return t_done - t_due, outcome, t_done

    tasks = []
    for k, offset in enumerate(due):
        t_due = t0 + offset
        delay = t_due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(max(0.0, time.perf_counter() - t_due))
        tasks.append(asyncio.ensure_future(one(k, t_due)))
    return t0, await asyncio.gather(*tasks), lateness


def _server(pipeline, engine, config, log: SpanLog | None) -> LocalizationServer:
    """A server; with ``log``, its engine, ``flush`` and ``add`` are timed."""
    if log is None:
        return LocalizationServer(pipeline, engine=engine, config=config)
    timed = TimedEngine(engine, log)
    timed.parent = "serve.flush"
    server = LocalizationServer(pipeline, engine=timed, config=config)
    scheduler = server.scheduler
    flush, add = scheduler.flush, scheduler.add

    def timed_flush(reason: str = "deadline"):
        timed.id = scheduler.rounds
        with log.span("serve.flush", None, scheduler.rounds):
            return flush(reason)

    def timed_add(job):
        with log.span("serve.add", None, job.job_id):
            return add(job)

    scheduler.flush, scheduler.add = timed_flush, timed_add
    return server


def closed_phase(pipeline, engine, make_request, seconds: float, min_per_client: int,
                 counts=None, log: SpanLog | None = None):
    """Run the closed phase on a fresh server; returns (results, wall, stats)."""
    async def main():
        server = _server(pipeline, engine, CLOSED_CONFIG, log)
        async with server:
            results, wall = await closed_loop(
                functools.partial(server.submit, wait=True), make_request,
                N_CLIENTS, seconds, min_per_client, counts, log,
            )
        return results, wall, server.stats()

    return asyncio.run(main())


def burst_phase(pipeline, engine, make_request, due, log: SpanLog | None = None):
    """Run the burst on a fresh default-config server.

    Returns:
        ``(results, lateness, wall, stats)`` where ``wall`` runs from the
        first due send to the last completion.
    """
    async def main():
        server = _server(pipeline, engine, ServeConfig(), log)
        async with server:
            t0, results, lateness = await open_loop(server.submit, make_request, due, log)
        return t0, results, lateness, server.stats()

    t0, results, lateness, stats = asyncio.run(main())
    done = [r for r in results if r is not None]
    wall = max(r[2] for r in done) - (t0 + due[0])
    return results, lateness, wall, stats


def run(spec: ServeSpec, seed: int, seconds: float, trace: bool,
        setup_repeats: int = 3) -> RunResult:
    """Run the serve workload; see the module docstring."""
    res = RunResult()
    geometry, response, _ = instrument("adapt")
    pipeline = small_pipeline(geometry, response)
    pool = exposure_pool(geometry, response, seed, spec.pool_size)

    def request(stream: int):
        return lambda k: (pool[k % len(pool)].events, op_rng(seed, stream, k))

    def truth(k: int) -> np.ndarray:
        return pool[k % len(pool)].source_direction

    def build():
        engine = build_engine(pipeline, "planned", dtype="float32")
        warm = request(_WARMUP_STREAM)
        serve_events(pipeline, *zip(*map(warm, range(spec.warmup))), engine=engine)
        return engine

    setup_s, engine = repeated_setup(build, setup_repeats)
    closed_request, burst_request = request(_CLOSED_STREAM), request(_BURST_STREAM)
    due = poisson_schedule(seed, spec.burst_requests, spec.burst_rate_per_s)
    closed_seconds = max(0.0, seconds - spec.burst_requests / spec.burst_rate_per_s)

    closed, closed_wall, _ = closed_phase(
        pipeline, engine, closed_request, closed_seconds, spec.min_closed_per_client
    )
    burst, _, burst_wall, burst_stats = burst_phase(pipeline, engine, burst_request, due)
    burst_done = {k: r for k, r in enumerate(burst) if r is not None}
    res.attempted = len(closed) + len(burst)
    res.failed = len(burst) - len(burst_done)

    _parity_gate(res, pipeline, engine, closed_request, min(PARITY_REQUESTS, len(closed)))
    errors = [o.error_degrees(truth(k)) for k, (_, _, o) in closed.items()]
    errors += [o.error_degrees(truth(k)) for k, (_, o, _) in burst_done.items()]
    res.gate("errors_valid", errors_valid(errors), "an error is non-finite or outside [0, 180]")
    res.gate(
        "burst_accounted",
        len(burst_done) + burst_stats["admission"]["rejected"] == len(burst),
        "burst requests neither completed nor refused",
    )
    if trace:
        _traced_pass(res, pipeline, engine, closed_request, burst_request, due,
                     closed, closed_wall)

    timing = subrun_medians([closed[k][:2] for k in sorted(closed)])
    level = timing.pop("level")
    res.e2e = {
        "setup_s": setup_s,
        "rss_peak_mb": rss_peak_mb(),
        "throughput_per_s": len(burst_done) / burst_wall,
        "latency_p50_ms": timing["latency_p50_ms"],
        "latency_tail_ms": timing["latency_tail_ms"],
    }
    burst_latencies = [r[0] for r in burst_done.values()]
    res.notes += [
        f"closed: {len(closed)} requests in {closed_wall:.2f} s "
        f"({len(closed) / closed_wall:.1f} req/s); latency medians over {SUBRUNS} "
        f"sub-runs, latency_tail at p{100 * level:.0f}",
        f"burst: {len(burst_done)}/{len(burst)} served in {burst_wall:.2f} s, "
        f"peak in flight {burst_stats['admission']['peak_in_flight']}, "
        f"latency from due p50 {percentile(burst_latencies, 0.5) * 1e3:.0f} ms",
    ]
    return res


def _parity_gate(res: RunResult, pipeline, engine, make_request, n: int) -> None:
    """Serving the first ``n`` closed-phase inputs together equals ``localize_many``."""
    def inputs():  # (events, rngs) with fresh generators on every call
        return zip(*map(make_request, range(n)))

    served = serve_events(pipeline, *inputs(), engine=engine)
    batched = localize_many(pipeline, *inputs(), engine=engine)
    mismatched = sum(not outcomes_equal(a, b) for a, b in zip(served, batched))
    res.gate("served_equals_localize_many", mismatched == 0,
             f"{mismatched} of {n} served outcomes differ from localize_many")


def _traced_pass(res: RunResult, pipeline, engine, closed_request, burst_request, due,
                 closed: dict, untraced_wall: float) -> None:
    """Replay both phases on instrumented servers; derive per-layer metrics."""
    counts = [sum(1 for k in closed if k % N_CLIENTS == c) for c in range(N_CLIENTS)]
    closed_log, burst_log = SpanLog(), SpanLog()
    traced, closed_wall, closed_stats = closed_phase(
        pipeline, engine, closed_request, 0.0, 0, counts, closed_log
    )
    mismatched = sum(not outcomes_equal(traced[k][2], o) for k, (_, _, o) in closed.items())
    res.gate("traced_equals_untraced", traced.keys() == closed.keys() and mismatched == 0,
             f"{mismatched} traced closed-phase outcomes differ from untraced")
    burst, lateness, burst_wall, burst_stats = burst_phase(
        pipeline, engine, burst_request, due, burst_log
    )
    completed = sum(r is not None for r in burst)

    for phase, log in (("closed", closed_log), ("burst", burst_log)):
        for span in log.spans:
            span["id"] = f"{phase}:{span['id']}"
    res.spans = closed_log.spans + burst_log.spans

    res.set_layers(
        {
            **_phase_layers("closed", closed_log, closed_stats, closed_wall, len(traced)),
            **_phase_layers("burst", burst_log, burst_stats, burst_wall, completed),
            "serve.closed.req_per_s": len(traced) / closed_wall,
            "serve.burst.peak_in_flight": float(burst_stats["admission"]["peak_in_flight"]),
            "serve.burst.rejected": float(burst_stats["admission"]["rejected"]),
            "loadgen.burst.late_p95_ms": percentile(lateness, 0.95) * 1e3,
            "loadgen.burst.late_max_ms": max(lateness) * 1e3,
            "trace_overhead_pct": 100.0 * (closed_wall - untraced_wall) / untraced_wall,
        },
        ("serve", "run"),
    )


def _phase_layers(phase: str, log: SpanLog, stats: dict, wall: float,
                  completed: int) -> dict[str, float]:
    """Scheduler, engine and pipeline shares of one phase's wall time."""
    flush_s, add_s, infer_s = (log.total_s(n) for n in ("serve.flush", "serve.add", "infer"))
    infer = log.named("infer")
    rounds = stats["rounds"]
    return {
        f"serve.{phase}.rounds_per_req": rounds / completed,
        f"serve.{phase}.rows_per_round": stats["rows_flushed"] / rounds,
        f"serve.{phase}.deadline_flush_frac": stats["flush_reasons"].get("deadline", 0) / rounds,
        f"serve.{phase}.flush_busy_frac": flush_s / wall,
        f"serve.{phase}.idle_frac": 1.0 - (flush_s + add_s) / wall,
        f"infer.{phase}.busy_frac": infer_s / wall,
        f"infer.{phase}.rows_per_call": sum(s["rows"] for s in infer) / len(infer),
        f"pipeline.{phase}.busy_frac": (flush_s - infer_s + add_s) / wall,
    }
