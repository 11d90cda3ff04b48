"""Campaign-level batched localization (``localize_many``)."""

import numpy as np
import pytest

import repro.obs as obs
from repro.infer import GatherScratch, InferRequest, build_engine, localize_many


def _simulated(geometry, response, seed, n):
    """Simulate ``n`` trials' event sets the way the campaign path does."""
    from repro.experiments.trials import TrialConfig, _simulate_trial

    config = TrialConfig(condition="ml")
    seeds = np.random.SeedSequence(seed).spawn(n)
    event_sets, grbs = [], []
    for s in seeds:
        events, grb = _simulate_trial(
            geometry, response, np.random.default_rng(s), config
        )
        event_sets.append(events)
        grbs.append(grb)
    return seeds, event_sets, grbs


class TestLocalizeMany:
    def test_matches_per_event_localization(
        self, geometry, response, tiny_models
    ):
        seeds, event_sets, grbs = _simulated(geometry, response, 17, 3)
        engine = build_engine(tiny_models, "planned", dtype="float64")

        # Per-event references (fresh rngs advanced past the simulation
        # draws, reproduced by re-simulating from the same seeds).
        ref = []
        for s, events in zip(seeds, event_sets):
            from repro.experiments.trials import TrialConfig, _simulate_trial

            rng = np.random.default_rng(s)
            _simulate_trial(geometry, response, rng, TrialConfig(condition="ml"))
            ref.append(tiny_models.localize(events, rng, engine=engine))

        rngs = []
        for s in seeds:
            from repro.experiments.trials import TrialConfig, _simulate_trial

            rng = np.random.default_rng(s)
            _simulate_trial(geometry, response, rng, TrialConfig(condition="ml"))
            rngs.append(rng)
        outcomes = localize_many(tiny_models, event_sets, rngs, engine=engine)

        assert len(outcomes) == 3
        for out, r, grb in zip(outcomes, ref, grbs):
            # RNG draw order and control flow are identical per event;
            # only the BLAS row-block shape differs, so errors agree to
            # float noise (and usually bitwise).
            assert out.iterations == r.iterations
            assert out.rings_kept == r.rings_kept
            assert abs(
                out.error_degrees(grb.source_direction)
                - r.error_degrees(grb.source_direction)
            ) < 1e-6

    def test_single_event_group_is_bitwise(
        self, geometry, response, tiny_models
    ):
        seeds, event_sets, _ = _simulated(geometry, response, 23, 1)
        from repro.experiments.trials import TrialConfig, _simulate_trial

        engine = build_engine(tiny_models, "planned")
        rng_a = np.random.default_rng(seeds[0])
        _simulate_trial(geometry, response, rng_a, TrialConfig(condition="ml"))
        ref = tiny_models.localize(event_sets[0], rng_a, engine=engine)

        rng_b = np.random.default_rng(seeds[0])
        _simulate_trial(geometry, response, rng_b, TrialConfig(condition="ml"))
        (out,) = localize_many(
            tiny_models, event_sets, [rng_b], engine=engine
        )
        np.testing.assert_array_equal(out.direction, ref.direction)
        assert out.iterations == ref.iterations

    def test_builds_default_engine(self, geometry, response, tiny_models):
        _, event_sets, _ = _simulated(geometry, response, 29, 1)
        outcomes = localize_many(
            tiny_models, event_sets, [np.random.default_rng(0)]
        )
        assert len(outcomes) == 1 and outcomes[0] is not None

    def test_rng_count_mismatch_rejected(self, tiny_models):
        with pytest.raises(ValueError, match="one rng per"):
            localize_many(tiny_models, [], [np.random.default_rng(0)])


class ScriptedPipeline:
    """Pipeline double: each "exposure" is a request-generator function."""

    @staticmethod
    def localize_requests(events, rng, halt_after=None):
        return events()


class EchoEngine:
    """Engine double: answers every row with its first feature."""

    def background_proba(self, features):
        return features[:, 0]

    def deta(self, features):
        return features[:, 0]


def scripted(n_requests, outcome):
    """A generator function filing ``n_requests`` background requests."""
    def requests():
        for _ in range(n_requests):
            yield InferRequest("background", np.zeros((2, 3)))
        return outcome
    return requests


def run_scripted(*exposures):
    return localize_many(
        ScriptedPipeline(), exposures, [None] * len(exposures),
        engine=EchoEngine(),
    )


class TestLocalizeManyThroughScheduler:
    def test_unknown_request_kind_raises(self):
        def bogus():
            yield InferRequest("bogus", np.zeros((1, 3)))

        with pytest.raises(ValueError, match="unknown request kind"):
            run_scripted(bogus, scripted(1, "done"))

    def test_generator_error_propagates_unchanged(self):
        boom = RuntimeError("boom")

        def failing():
            yield InferRequest("background", np.zeros((1, 3)))
            raise boom

        with pytest.raises(RuntimeError, match="boom") as info:
            run_scripted(failing)
        assert info.value is boom

    def test_lowest_index_failure_wins(self):
        first, second = RuntimeError("first"), RuntimeError("second")

        def fails_late():
            yield InferRequest("background", np.zeros((1, 3)))
            yield InferRequest("background", np.zeros((1, 3)))
            raise first

        def fails_early():
            raise second
            yield  # makes this a generator function

        with pytest.raises(RuntimeError) as info:
            run_scripted(fails_late, fails_early, scripted(1, "done"))
        assert info.value is first

    def test_rounds_and_request_latency_metrics(self):
        obs.enable()
        try:
            outcomes = run_scripted(scripted(2, "a"), scripted(3, "b"))
            snap = obs.metrics.REGISTRY.dump()
        finally:
            obs.disable()
        assert outcomes == ["a", "b"]
        assert snap["counters"]["infer.gather_rounds"] == 3
        assert snap["counters"]["serve.rounds"] == 3
        # Request latency is the server's: a drained batch records none.
        assert "serve.request_ms" not in snap["histograms"]


class TestGatherScratch:
    def test_matches_concatenate(self):
        rng = np.random.default_rng(0)
        scratch = GatherScratch()
        blocks = [rng.normal(size=(n, 5)) for n in (7, 1, 12)]
        np.testing.assert_array_equal(
            scratch.gather(blocks), np.concatenate(blocks, axis=0)
        )

    def test_single_block_returned_without_copy(self):
        scratch = GatherScratch()
        block = np.ones((4, 3))
        assert scratch.gather([block]) is block
        assert scratch.grows == 0

    def test_buffer_reused_across_rounds(self):
        rng = np.random.default_rng(1)
        scratch = GatherScratch()
        big = [rng.normal(size=(50, 4)), rng.normal(size=(30, 4))]
        first = scratch.gather(big)
        assert scratch.grows == 1
        # Subsequent smaller rounds reuse the same backing buffer.
        for n in (10, 25, 40):
            blocks = [rng.normal(size=(n, 4)), rng.normal(size=(n, 4))]
            out = scratch.gather(blocks)
            np.testing.assert_array_equal(
                out, np.concatenate(blocks, axis=0)
            )
            assert out.base is first.base
        assert scratch.grows == 1

    def test_growth_is_geometric(self):
        scratch = GatherScratch()
        scratch.gather([np.zeros((10, 2)), np.zeros((10, 2))])
        scratch.gather([np.zeros((15, 2)), np.zeros((10, 2))])
        # Doubling (20 -> 40) covers the next few growth steps at once.
        assert scratch._buf.shape[0] == 40
        scratch.gather([np.zeros((20, 2)), np.zeros((18, 2))])
        assert scratch.grows == 2

    def test_dtype_or_width_change_reallocates(self):
        scratch = GatherScratch()
        scratch.gather([np.zeros((3, 2)), np.zeros((3, 2))])
        out = scratch.gather(
            [np.zeros((2, 5), np.float32), np.zeros((2, 5), np.float32)]
        )
        assert out.dtype == np.float32 and out.shape == (4, 5)
        assert scratch.grows == 2

    def test_empty_input_raises_clear_error(self):
        with pytest.raises(ValueError, match="at least one"):
            GatherScratch().gather([])

    def test_mixed_widths_rejected(self):
        scratch = GatherScratch()
        with pytest.raises(ValueError, match="mixed feature widths"):
            scratch.gather([np.zeros((2, 3)), np.zeros((2, 4))])

    def test_mixed_dtypes_rejected(self):
        scratch = GatherScratch()
        with pytest.raises(ValueError, match="mixed dtypes"):
            scratch.gather(
                [np.zeros((2, 3)), np.zeros((2, 3), np.float32)]
            )

    def test_non_2d_blocks_rejected_even_single(self):
        with pytest.raises(ValueError, match="2D"):
            GatherScratch().gather([np.zeros(4)])
        with pytest.raises(ValueError, match="2D"):
            GatherScratch().gather([np.zeros((2, 3)), np.zeros((2, 3, 1))])


class TestBatchedCampaign:
    def test_event_batch_matches_reference_campaign(
        self, geometry, response, tiny_models
    ):
        from repro.experiments.trials import TrialConfig, run_trials

        ref = run_trials(
            geometry, response, seed=31, n_trials=4,
            config=TrialConfig(condition="ml"), ml_pipeline=tiny_models,
        )
        batched = run_trials(
            geometry, response, seed=31, n_trials=4,
            config=TrialConfig(condition="ml", event_batch=2),
            ml_pipeline=tiny_models,
        )
        # Cross-event concatenation may perturb the final ulp; the
        # angular errors must still agree to far below physics precision.
        np.testing.assert_allclose(batched, ref, rtol=0, atol=1e-6)

    def test_ragged_final_block(self, geometry, response, tiny_models):
        from repro.experiments.trials import TrialConfig, run_trials

        # 5 trials in blocks of 2 leaves a final block of 1.
        errors = run_trials(
            geometry, response, seed=37, n_trials=5,
            config=TrialConfig(condition="ml", event_batch=2),
            ml_pipeline=tiny_models,
        )
        assert errors.shape == (5,)
