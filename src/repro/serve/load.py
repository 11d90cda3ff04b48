"""Closed-loop load generator for the localization service.

The serve deliverable is a throughput/latency curve, not just unit
tests: :func:`run_load` drives a fresh :class:`LocalizationServer` with
``n_clients`` concurrent closed-loop clients — each client submits a
localization, awaits the outcome, and immediately submits the next —
and reports sustained request rate plus exact (nearest-rank) latency
percentiles.  The CLI ``serve-load`` subcommand prints one report;
the tracked serve numbers come from ``python3 -m bench --workload
serve_load``.

Event sets come from a pre-simulated pool (:func:`synthetic_event_pool`)
so the measured path is pure serving + inference, not simulation.  Each
request gets its own spawned RNG, so outcomes are deterministic per
request regardless of how requests interleave or batch.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.obs.slo import exact_percentile
from repro.serve.scheduler import BatchPolicy
from repro.serve.server import LocalizationServer, ServeConfig


def synthetic_event_pool(n: int, seed: int, fluence: float = 0.6,
                         polar_deg: float = 30.0, geometry=None,
                         response=None) -> list:
    """Simulate ``n`` digitized event sets to serve as request payloads.

    Args:
        n: Pool size; requests cycle through the pool round-robin.
        seed: Root seed; each pool entry gets its own spawned stream.
        fluence: GRB fluence (MeV/cm^2) for every simulated exposure.
        polar_deg: GRB polar angle (degrees).
        geometry: Detector geometry; built fresh when None.
        response: Detector response; built fresh when None.

    Returns:
        List of ``n`` digitized ``EventSet`` objects.
    """
    from repro.detector.response import DetectorResponse
    from repro.experiments.trials import TrialConfig, _simulate_trial
    from repro.geometry.tiles import adapt_geometry

    if n < 1:
        raise ValueError(f"pool size must be >= 1, got {n}")
    if geometry is None:
        geometry = adapt_geometry()
    if response is None:
        response = DetectorResponse(geometry)
    config = TrialConfig(fluence_mev_cm2=fluence, polar_angle_deg=polar_deg)
    pool = []
    for seq in np.random.SeedSequence(seed).spawn(n):
        events, _ = _simulate_trial(
            geometry, response, np.random.default_rng(seq), config
        )
        pool.append(events)
    return pool


@dataclass(frozen=True)
class LoadReport:
    """One load run's throughput/latency summary.

    Attributes:
        n_clients: Concurrent closed-loop clients.
        requests_per_client: Sequential requests each client issued.
        completed: Requests that returned an outcome.
        rejected: Requests shed at admission (0 in cooperative mode).
        wall_s: Wall-clock seconds for the whole run.
        req_per_s: Sustained completed-requests per second.
        p50_ms: Median per-request latency (exact nearest-rank).
        p95_ms: 95th-percentile latency.
        p99_ms: 99th-percentile latency.
        max_ms: Worst per-request latency.
        rounds: Fused scheduler rounds executed.
        mean_batch_rows: Mean gathered feature rows per round.
        flush_reasons: ``reason -> count`` over all flushes.
    """

    n_clients: int
    requests_per_client: int
    completed: int
    rejected: int
    wall_s: float
    req_per_s: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    rounds: int
    mean_batch_rows: float
    flush_reasons: dict

    def to_dict(self) -> dict:
        """The report as a JSON-ready dict."""
        return asdict(self)


def run_load(pipeline, event_pool: list, *, seed: int, n_clients: int,
             requests_per_client: int, engine=None,
             config: ServeConfig | None = None,
             halt_after: int | None = None) -> LoadReport:
    """Drive a fresh server with concurrent closed-loop clients.

    Args:
        pipeline: A trained ``MLPipeline``.
        event_pool: Pre-simulated event sets (requests cycle round-robin).
        seed: Root seed; request ``k`` of the run draws from its own
            spawned stream, so results are deterministic per request.
        n_clients: Concurrent clients.
        requests_per_client: Sequential requests per client.
        engine: Inference engine; None builds the default planned engine.
        config: Server config; None uses ``queue_limit=n_clients`` and a
            ``max_requests=n_clients`` / 1 ms-deadline batch policy.
        halt_after: Anytime knob forwarded to every localization.

    Returns:
        A :class:`LoadReport`.
    """
    if n_clients < 1 or requests_per_client < 1:
        raise ValueError("need n_clients >= 1 and requests_per_client >= 1")
    if not event_pool:
        raise ValueError("event_pool must not be empty")
    if config is None:
        config = ServeConfig(
            queue_limit=n_clients,
            policy=BatchPolicy(max_requests=n_clients, deadline_s=0.001),
        )
    n_requests = n_clients * requests_per_client
    seeds = np.random.SeedSequence(seed).spawn(n_requests)
    latencies_ms: list[float] = []

    async def _client(server: LocalizationServer, client: int) -> int:
        done = 0
        for r in range(requests_per_client):
            k = client * requests_per_client + r
            events = event_pool[k % len(event_pool)]
            rng = np.random.default_rng(seeds[k])
            t0 = time.monotonic()
            await server.submit(events, rng, halt_after=halt_after, wait=True)
            latencies_ms.append((time.monotonic() - t0) * 1e3)
            done += 1
        return done

    async def _drive() -> tuple[int, float, dict]:
        server = LocalizationServer(pipeline, engine=engine, config=config)
        async with server:
            t0 = time.monotonic()
            counts = await asyncio.gather(
                *(_client(server, c) for c in range(n_clients))
            )
            wall = time.monotonic() - t0
        return sum(counts), wall, server.stats()

    completed, wall_s, stats = asyncio.run(_drive())
    rounds = stats["rounds"]
    return LoadReport(
        n_clients=n_clients,
        requests_per_client=requests_per_client,
        completed=completed,
        rejected=stats["admission"]["rejected"],
        wall_s=round(wall_s, 6),
        req_per_s=round(completed / wall_s, 3) if wall_s > 0 else 0.0,
        p50_ms=round(exact_percentile(latencies_ms, 0.50), 3),
        p95_ms=round(exact_percentile(latencies_ms, 0.95), 3),
        p99_ms=round(exact_percentile(latencies_ms, 0.99), 3),
        max_ms=round(max(latencies_ms), 3) if latencies_ms else 0.0,
        rounds=rounds,
        mean_batch_rows=round(stats["rows_flushed"] / rounds, 2)
        if rounds else 0.0,
        flush_reasons=stats["flush_reasons"],
    )
