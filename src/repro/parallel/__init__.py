"""Parallel execution utilities.

A persistent shared-memory campaign executor and a deterministic stage
cache, per the hpc-parallel guidance: fan out independent
trials/exposures across a long-lived pool while keeping every stream
reproducible from a single master seed (callers spawn one
``SeedSequence`` per task), and never recompute a pure stage whose
inputs have not changed.
"""

from repro.parallel.cache import StageCache, config_token, resolve_cache
from repro.parallel.executor import (
    CampaignExecutor,
    CampaignWorkerError,
    auto_chunksize,
    get_executor,
    shutdown_executors,
)

__all__ = [
    "CampaignExecutor",
    "CampaignWorkerError",
    "StageCache",
    "auto_chunksize",
    "config_token",
    "get_executor",
    "resolve_cache",
    "shutdown_executors",
]
