"""End-to-end server behavior: parity, streaming, admission, drain.

The parity tests reuse the ``test_batch`` re-simulation dance: each
event's rng must arrive at localization advanced past the simulation
draws, so references re-simulate from the same seeds before localizing.
"""

import asyncio

import numpy as np
import pytest

import repro.obs as obs
from repro.infer import build_engine, localize_many
from repro.serve import (
    BatchPolicy,
    LocalizationServer,
    ServeConfig,
    ServerClosed,
    ServerOverloaded,
    serve_events,
)
from repro.pipeline import ml_pipeline
from tests.pipeline.test_ml_pipeline import NanDetaEngine, with_infinite_axis

#: A batch policy that never self-triggers during a test: flushes only
#: happen via drain (or an explicit size trigger the test arranges).
PARKED = BatchPolicy(max_requests=10_000, max_rows=10_000_000, deadline_s=60.0)


def _simulated(geometry, response, seed, n):
    """Simulate ``n`` trials' event sets the way the campaign path does."""
    from repro.experiments.trials import TrialConfig, _simulate_trial

    config = TrialConfig(condition="ml")
    seeds = np.random.SeedSequence(seed).spawn(n)
    event_sets = []
    for s in seeds:
        events, _ = _simulate_trial(
            geometry, response, np.random.default_rng(s), config
        )
        event_sets.append(events)
    return seeds, event_sets


def _replayed_rngs(geometry, response, seeds):
    """Fresh rngs advanced past the simulation draws, one per seed."""
    from repro.experiments.trials import TrialConfig, _simulate_trial

    rngs = []
    for s in seeds:
        rng = np.random.default_rng(s)
        _simulate_trial(geometry, response, rng, TrialConfig(condition="ml"))
        rngs.append(rng)
    return rngs


@pytest.fixture(scope="module")
def engine(tiny_models):
    return build_engine(tiny_models, "planned", dtype="float64")


@pytest.fixture(scope="module")
def served_inputs(geometry, response):
    return _simulated(geometry, response, 41, 3)


class TestParity:
    def test_serve_events_matches_localize_many_bitwise(
        self, geometry, response, tiny_models, engine, served_inputs
    ):
        seeds, event_sets = served_inputs
        ref = localize_many(
            tiny_models,
            event_sets,
            _replayed_rngs(geometry, response, seeds),
            engine=engine,
        )
        served = serve_events(
            tiny_models,
            event_sets,
            _replayed_rngs(geometry, response, seeds),
            engine=engine,
        )
        assert len(served) == len(ref)
        for s, r in zip(served, ref):
            np.testing.assert_array_equal(s.direction, r.direction)
            assert s.iterations == r.iterations
            assert s.rings_kept == r.rings_kept

    def test_single_client_passthrough_matches_per_event_bitwise(
        self, geometry, response, tiny_models, engine, served_inputs
    ):
        seeds, event_sets = served_inputs
        (rng_ref,) = _replayed_rngs(geometry, response, seeds[:1])
        ref = tiny_models.localize(event_sets[0], rng_ref, engine=engine)

        (rng_served,) = _replayed_rngs(geometry, response, seeds[:1])
        config = ServeConfig(
            queue_limit=1, policy=BatchPolicy(max_requests=1)
        )
        (served,) = serve_events(
            tiny_models,
            event_sets[:1],
            [rng_served],
            engine=engine,
            config=config,
        )
        # Batches of one gather no foreign rows, so the served result is
        # bit-identical to the direct per-event path.
        np.testing.assert_array_equal(served.direction, ref.direction)
        assert served.iterations == ref.iterations


class TestStreaming:
    def test_localize_stream_yields_per_chunk_in_order(
        self, tiny_models, engine, served_inputs
    ):
        _, event_sets = served_inputs
        chunks = [
            [(event_sets[0], np.random.default_rng(0)),
             (event_sets[1], np.random.default_rng(1))],
            [(event_sets[2], np.random.default_rng(2))],
        ]

        async def scenario():
            server = LocalizationServer(tiny_models, engine=engine)
            out = []
            async with server:
                async for results in server.localize_stream(
                    chunks, halt_after=1
                ):
                    out.append(results)
            return out, server.stats()

        out, stats = asyncio.run(scenario())
        assert [len(results) for results in out] == [2, 1]
        for results in out:
            for outcome in results:
                assert outcome.direction.shape == (3,)
        assert stats["admission"]["accepted"] == 3
        assert stats["admission"]["rejected"] == 0

    def test_deadline_trigger_drives_completion(
        self, tiny_models, engine, served_inputs
    ):
        _, event_sets = served_inputs
        config = ServeConfig(
            queue_limit=4,
            policy=BatchPolicy(max_requests=10_000, deadline_s=0.001),
        )

        async def scenario():
            server = LocalizationServer(
                tiny_models, engine=engine, config=config
            )
            async with server:
                outcome = await server.submit(
                    event_sets[0], np.random.default_rng(7), halt_after=1,
                    wait=True,
                )
            return outcome, server.stats()

        outcome, stats = asyncio.run(scenario())
        assert outcome.direction.shape == (3,)
        assert stats["flush_reasons"].get("deadline", 0) >= 1
        assert stats["flush_reasons"].get("size", 0) == 0


class TestAdmission:
    def test_full_queue_sheds_with_server_overloaded(
        self, tiny_models, engine, served_inputs
    ):
        _, event_sets = served_inputs
        config = ServeConfig(queue_limit=2, policy=PARKED)

        async def scenario():
            server = LocalizationServer(
                tiny_models, engine=engine, config=config
            )
            async with server:
                stuck = [
                    asyncio.ensure_future(
                        server.submit(
                            event_sets[i], np.random.default_rng(i),
                            halt_after=1, wait=True,
                        )
                    )
                    for i in range(2)
                ]
                for _ in range(4):
                    await asyncio.sleep(0)
                with pytest.raises(ServerOverloaded):
                    await server.submit(
                        event_sets[2], np.random.default_rng(2), halt_after=1
                    )
                # Draining completes the admitted jobs (drain flushes) —
                # without it they would wait out the parked deadline.
                await server.drain()
                results = await asyncio.gather(*stuck)
            return results, server.stats()

        results, stats = asyncio.run(scenario())
        assert len(results) == 2
        assert stats["admission"]["rejected"] == 1
        assert stats["flush_reasons"].get("drain", 0) >= 1

    def test_unstarted_server_rejects_submissions(self, tiny_models, engine):
        server = LocalizationServer(tiny_models, engine=engine)

        async def scenario():
            with pytest.raises(RuntimeError, match="not started"):
                await server.submit(None, np.random.default_rng(0))

        asyncio.run(scenario())


class TestDrain:
    def test_drain_completes_in_flight_fifo_then_refuses(
        self, tiny_models, engine, served_inputs
    ):
        _, event_sets = served_inputs
        config = ServeConfig(queue_limit=8, policy=PARKED)
        completion_order = []

        async def client(server, i):
            outcome = await server.submit(
                event_sets[i], np.random.default_rng(i), halt_after=1,
                wait=True,
            )
            completion_order.append(i)
            return outcome

        async def scenario():
            server = LocalizationServer(
                tiny_models, engine=engine, config=config
            )
            await server.start()
            tasks = [
                asyncio.ensure_future(client(server, i)) for i in range(3)
            ]
            for _ in range(4):
                await asyncio.sleep(0)
            assert server.scheduler.live == 3
            await server.drain()
            assert server.scheduler.live == 0
            with pytest.raises(ServerClosed):
                await server.submit(
                    event_sets[0], np.random.default_rng(0), halt_after=1
                )
            results = await asyncio.gather(*tasks)
            await server.close()
            return results, server.stats()

        results, stats = asyncio.run(scenario())
        assert all(r.direction.shape == (3,) for r in results)
        # Jobs submitted together complete in submission (FIFO) order.
        assert completion_order == [0, 1, 2]
        assert stats["flush_reasons"].get("drain", 0) >= 1

    def test_close_is_idempotent_under_context_manager(
        self, tiny_models, engine
    ):
        async def scenario():
            server = LocalizationServer(tiny_models, engine=engine)
            async with server:
                pass
            assert not server.running

        asyncio.run(scenario())


class TestNonFiniteEngine:
    def test_nan_deta_fails_its_request_and_drain_returns(
        self, tiny_models, engine, served_inputs
    ):
        _, event_sets = served_inputs
        config = ServeConfig(policy=PARKED)

        async def scenario():
            server = LocalizationServer(
                tiny_models, engine=NanDetaEngine(engine), config=config
            )
            await server.start()
            request = asyncio.ensure_future(
                server.submit(event_sets[0], np.random.default_rng(0), wait=True)
            )
            for _ in range(4):
                await asyncio.sleep(0)
            await asyncio.wait_for(server.drain(), timeout=60.0)
            with pytest.raises(ValueError, match="non-finite axis, eta or deta"):
                await request
            await server.close()
            return server.stats()

        stats = asyncio.run(scenario())
        assert stats["live"] == 0


class TestNonFiniteRings:
    # The rings are rejected before any arithmetic: no numpy warning, and
    # no later NaN score standing in for the check.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_axis_fails_its_request_and_drain_returns(
        self, tiny_models, engine, served_inputs, monkeypatch
    ):
        monkeypatch.setattr(
            ml_pipeline, "prepare_rings", with_infinite_axis(ml_pipeline.prepare_rings)
        )
        _, event_sets = served_inputs
        config = ServeConfig(policy=PARKED)

        async def scenario():
            server = LocalizationServer(tiny_models, engine=engine, config=config)
            await server.start()
            request = asyncio.ensure_future(
                server.submit(event_sets[0], np.random.default_rng(0), wait=True)
            )
            for _ in range(4):
                await asyncio.sleep(0)
            await asyncio.wait_for(server.drain(), timeout=60.0)
            with pytest.raises(
                ValueError, match=" 1 of .* non-finite axis, eta or deta"
            ):
                await request
            await server.close()
            return server.stats()

        stats = asyncio.run(scenario())
        assert stats["live"] == 0


class TestObservability:
    def test_request_latency_lands_in_serve_histogram(
        self, tiny_models, engine, served_inputs
    ):
        _, event_sets = served_inputs
        obs.enable()
        try:
            serve_events(
                tiny_models,
                event_sets,
                [np.random.default_rng(i) for i in range(3)],
                engine=engine,
                halt_after=1,
            )
            snap = obs.metrics.REGISTRY.dump()
        finally:
            obs.disable()
        hist = snap["histograms"]["serve.request_ms"]
        assert hist["count"] == 3
        # Samples are >= 0, so a sum under a minute bounds each of them:
        # t_submit comes from the server's clock, not a zero stamp.
        assert hist["total"] < 60_000
        assert snap["counters"]["serve.rounds"] >= 1
        assert snap["counters"]["serve.accepted"] == 3


class TestServeEventsValidation:
    def test_rng_count_mismatch_rejected(self, tiny_models, engine):
        with pytest.raises(ValueError, match="one rng per"):
            serve_events(tiny_models, [], [np.random.default_rng(0)],
                         engine=engine)

    def test_empty_input_returns_empty(self, tiny_models, engine):
        assert serve_events(tiny_models, [], [], engine=engine) == []


class TestSkymapField:
    def test_served_outcome_carries_skymap(
        self, geometry, response, tiny_models, served_inputs
    ):
        from dataclasses import replace

        from repro.localization.hierarchy import SkymapConfig
        from repro.pipeline.ml_pipeline import MLPipeline

        pipeline = MLPipeline(
            background_net=tiny_models.background_net,
            deta_net=tiny_models.deta_net,
            config=replace(
                tiny_models.config, skymap=SkymapConfig(resolution_deg=1.0)
            ),
        )
        seeds, event_sets = served_inputs
        rngs = _replayed_rngs(geometry, response, seeds[:1])
        (outcome,) = serve_events(pipeline, event_sets[:1], rngs)
        assert outcome.sky is not None
        assert outcome.sky.probability.sum() == pytest.approx(1.0)
        assert outcome.sky.credible_region_area_deg2(0.9) > 0.0
