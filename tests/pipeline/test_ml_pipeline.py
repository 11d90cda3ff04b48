"""Tests for the Fig. 6 iterative ML pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from repro.infer.engine import EagerEngine
from repro.pipeline import ml_pipeline
from repro.pipeline.ml_pipeline import MLPipeline, MLPipelineConfig


class TestMLPipeline:
    def test_returns_outcome(self, events, tiny_models, exposure):
        out = tiny_models.localize(events, np.random.default_rng(0))
        assert out.direction is not None
        assert np.linalg.norm(out.direction) == pytest.approx(1.0)
        assert 1 <= out.iterations <= tiny_models.config.max_iterations
        assert out.rings_kept <= out.rings_in

    def test_localizes_near_truth(self, events, tiny_models, exposure):
        out = tiny_models.localize(events, np.random.default_rng(1))
        assert out.error_degrees(exposure.source_direction) < 30.0

    def test_background_removal_majority_correct(
        self, events, tiny_models, exposure
    ):
        out = tiny_models.localize(events, np.random.default_rng(2))
        removed = out.rings_in - out.rings_kept
        if removed > 20:
            assert out.background_removed_correct / removed > 0.5

    def test_halt_after_limits_iterations(self, events, tiny_models):
        out = tiny_models.localize(events, np.random.default_rng(3), halt_after=1)
        assert out.iterations == 1

    def test_intermediates_recorded(self, events, tiny_models):
        out = tiny_models.localize(events, np.random.default_rng(4))
        assert len(out.intermediate_directions) == out.iterations

    def test_min_rings_guard(self, events, tiny_models):
        """Even a classifier that labels everything background leaves at
        least min_rings survivors."""
        import copy

        # Deep-copy: the fixture is session-scoped and must stay intact.
        net = copy.deepcopy(tiny_models.background_net)
        net.thresholds.thresholds = np.zeros(9)  # everything called background
        aggressive = MLPipeline(
            background_net=net,
            deta_net=tiny_models.deta_net,
            config=MLPipelineConfig(min_rings=8),
        )
        out = aggressive.localize(events, np.random.default_rng(5))
        assert out.rings_kept >= 8

    def test_empty_events_fail_gracefully(self, tiny_models, geometry, response):
        from repro.detector.response import _empty_event_set

        ev = _empty_event_set(np.array([0.0, 0.0, 1.0]))
        out = tiny_models.localize(ev, np.random.default_rng(6))
        assert out.direction is None
        assert out.error_degrees(np.array([0.0, 0.0, 1.0])) == 180.0

    def test_error_degrees(self):
        from repro.pipeline.ml_pipeline import MLPipelineOutcome

        out = MLPipelineOutcome(
            direction=np.array([0.0, 0.0, 1.0]),
            iterations=1,
            converged=True,
            rings_in=10,
            rings_kept=5,
            background_removed_correct=4,
            intermediate_directions=[],
        )
        assert out.error_degrees(np.array([0.0, 1.0, 0.0])) == pytest.approx(90.0)


class NanDetaEngine:
    """``engine``, except that every dEta prediction is NaN."""

    def __init__(self, engine):
        self._engine = engine

    def background_proba(self, features):
        return self._engine.background_proba(features)

    def deta(self, features):
        return np.full(features.shape[0], np.nan)


class TestNonFiniteEngine:
    def test_nan_deta_raises_value_error(self, events, tiny_models):
        engine = NanDetaEngine(
            EagerEngine(tiny_models.background_net, tiny_models.deta_net)
        )
        with pytest.raises(ValueError, match="non-finite axis, eta or deta"):
            tiny_models.localize(events, np.random.default_rng(0), engine=engine)


def with_infinite_axis(prepare_rings):
    """``prepare_rings``, except that ring 3's axis is infinite."""

    def prepare(events, config=None, **kw):
        rings = prepare_rings(events, config, **kw)
        axis = rings.axis.copy()
        axis[3] = np.inf
        return replace(rings, axis=axis)

    return prepare


class TestNonFiniteRings:
    # The rings are rejected before any arithmetic: no numpy warning, and
    # no later NaN score standing in for the check.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_axis_raises_value_error(self, events, tiny_models, monkeypatch):
        monkeypatch.setattr(
            ml_pipeline, "prepare_rings", with_infinite_axis(ml_pipeline.prepare_rings)
        )
        with pytest.raises(ValueError, match=" 1 of .* non-finite axis, eta or deta"):
            tiny_models.localize(events, np.random.default_rng(0))


class TestDetaMode:
    def test_widen_only_runs(self, events, tiny_models, exposure):
        pipeline = MLPipeline(
            background_net=tiny_models.background_net,
            deta_net=tiny_models.deta_net,
            config=MLPipelineConfig(deta_mode="widen_only"),
        )
        out = pipeline.localize(events, np.random.default_rng(11))
        assert out.direction is not None
        assert out.error_degrees(exposure.source_direction) < 30.0

    def test_unknown_mode_rejected(self, events, tiny_models):
        pipeline = MLPipeline(
            background_net=tiny_models.background_net,
            deta_net=tiny_models.deta_net,
            config=MLPipelineConfig(deta_mode="shrink"),
        )
        with pytest.raises(ValueError):
            pipeline.localize(events, np.random.default_rng(12))


class TestAccuracyTarget:
    def test_loose_target_halts_early(self, events, tiny_models):
        pipeline = MLPipeline(
            background_net=tiny_models.background_net,
            deta_net=tiny_models.deta_net,
            config=MLPipelineConfig(accuracy_target_deg=45.0),
        )
        out = pipeline.localize(events, np.random.default_rng(13))
        assert out.converged
        assert out.iterations <= 2


class TestSkymapThreading:
    def test_skymap_attached_when_configured(self, events, tiny_models, exposure):
        from repro.localization.hierarchy import SkymapConfig

        pipeline = MLPipeline(
            background_net=tiny_models.background_net,
            deta_net=tiny_models.deta_net,
            config=MLPipelineConfig(
                skymap=SkymapConfig(resolution_deg=1.0)
            ),
        )
        out = pipeline.localize(events, np.random.default_rng(14))
        assert out.sky is not None
        assert out.sky.probability.sum() == pytest.approx(1.0)
        assert out.sky.probability_within(exposure.source_direction, 30.0) > 0.5

    def test_no_skymap_by_default(self, events, tiny_models):
        out = tiny_models.localize(events, np.random.default_rng(15))
        assert out.sky is None
