"""Streaming localization service: asyncio front-end over ``repro.infer``.

The "millions of users" layer: a long-lived server that accepts a
continuous stream of digitized event sets from many concurrent clients,
coalesces their inference requests into fused engine calls through a
micro-batch scheduler (deadline- or size-triggered flush), bounds
in-flight work with admission control (shed or backpressure), and drains
gracefully on shutdown.  See ``docs/serving.md``.

Modules:
    server: :class:`LocalizationServer`, :class:`ServeConfig`,
        :func:`serve_events` (sync convenience, bit-identical to
        ``localize_many`` groupings).
    scheduler: :class:`MicroBatchScheduler`, :class:`BatchPolicy`,
        :class:`ServeJob` (asyncio-free, unit-testable core).
    admission: :class:`AdmissionController`, :class:`ServerOverloaded`
        (shed / 429), :class:`ServerClosed`.
    load: :func:`run_load` closed-loop load generator +
        :class:`LoadReport`.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionError,
    ServerClosed,
    ServerOverloaded,
)
from repro.serve.load import LoadReport, run_load, synthetic_event_pool
from repro.serve.scheduler import BatchPolicy, MicroBatchScheduler, ServeJob
from repro.serve.server import LocalizationServer, ServeConfig, serve_events

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "BatchPolicy",
    "LoadReport",
    "LocalizationServer",
    "MicroBatchScheduler",
    "ServeConfig",
    "ServeJob",
    "ServerClosed",
    "ServerOverloaded",
    "run_load",
    "serve_events",
    "synthetic_event_pool",
]
