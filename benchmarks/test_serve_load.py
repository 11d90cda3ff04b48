"""Serving-layer load benchmark: sustained req/s vs latency percentiles.

The workload drives a fresh :class:`repro.serve.LocalizationServer` with
``n`` concurrent closed-loop clients (each submits a localization,
awaits the outcome, immediately submits the next) over a pre-simulated
event pool, so the measured path is pure serving + batched inference —
no simulation in the loop.  Three client counts bracket the batching
regimes: a single client (passthrough, no coalescing), a moderate fan-in
(micro-batches form under the deadline), and a full fan-in (every flush
gathers most clients).

The parity test asserts the served outcomes are *bitwise* identical to
the offline ``localize_many`` path on the same inputs before any timing
runs: the scheduler reproduces its grouping (same kinds, same
submission order), so fused batches see identical BLAS shapes.
``python3 -m bench --workload serve_load`` is the tracked serve
measurement: closed-loop latency, burst goodput and the same parity as
a gate.
"""

from __future__ import annotations

import numpy as np
import pytest

#: Client counts swept by the perf tests.
CLIENT_COUNTS = (1, 4, 8)
REQUESTS_PER_CLIENT = 4
POOL_SIZE = 8
POOL_SEED = 1105


@pytest.fixture(scope="module")
def geometry():
    from repro.geometry.tiles import adapt_geometry

    return adapt_geometry()


@pytest.fixture(scope="module")
def response(geometry):
    from repro.detector.response import DetectorResponse

    return DetectorResponse(geometry)


@pytest.fixture(scope="module")
def event_pool(geometry, response):
    from repro.serve import synthetic_event_pool

    return synthetic_event_pool(
        POOL_SIZE, POOL_SEED, geometry=geometry, response=response
    )


@pytest.fixture(scope="module")
def pipeline(trained_models):
    return trained_models.pipeline


@pytest.fixture(scope="module")
def engine(pipeline):
    from repro.infer import build_engine

    return build_engine(pipeline, "planned", dtype="float64")


def run_serve_load(pipeline, event_pool, n_clients, engine=None):
    """One closed-loop load run at ``n_clients``; returns the LoadReport."""
    from repro.serve import run_load

    return run_load(
        pipeline,
        event_pool,
        seed=POOL_SEED + n_clients,
        n_clients=n_clients,
        requests_per_client=REQUESTS_PER_CLIENT,
        engine=engine,
    )


def test_served_outcomes_match_localize_many_bitwise(
    pipeline, engine, event_pool
):
    """Serving is the offline batched path, bit for bit."""
    from repro.infer import localize_many
    from repro.serve import serve_events

    event_sets = event_pool[:4]
    seeds = np.random.SeedSequence(POOL_SEED + 1).spawn(len(event_sets))
    ref = localize_many(
        pipeline,
        event_sets,
        [np.random.default_rng(s) for s in seeds],
        engine=engine,
    )
    served = serve_events(
        pipeline,
        event_sets,
        [np.random.default_rng(s) for s in seeds],
        engine=engine,
    )
    assert len(served) == len(ref)
    for s, r in zip(served, ref):
        np.testing.assert_array_equal(s.direction, r.direction)
        assert s.iterations == r.iterations
        assert s.rings_kept == r.rings_kept


@pytest.mark.parametrize("n_clients", CLIENT_COUNTS)
def test_perf_serve_load(benchmark, pipeline, engine, event_pool,
                         n_clients):
    """Sustained closed-loop serving at ``n_clients`` concurrent clients."""
    report = benchmark.pedantic(
        run_serve_load,
        args=(pipeline, event_pool, n_clients),
        kwargs={"engine": engine},
        rounds=1,
        iterations=1,
    )
    assert report.completed == n_clients * REQUESTS_PER_CLIENT
    assert report.rejected == 0
    benchmark.extra_info.update(report.to_dict())
