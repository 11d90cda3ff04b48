"""Tests for the baseline localization pipeline."""

import numpy as np
import pytest

from repro.localization.pipeline import (
    BaselineConfig,
    localize_baseline,
    localize_rings,
    prepare_rings,
)
from repro.sources.grb import LABEL_GRB


class TestPrepareRings:
    def test_filtering_applied(self, events):
        from repro.reconstruction.rings import build_rings

        raw = build_rings(events)
        prepared = prepare_rings(events)
        assert 0 < prepared.num_rings < raw.num_rings

    def test_drop_background_oracle(self, events):
        rings = prepare_rings(events, drop_background=True)
        assert np.all(rings.labels == LABEL_GRB)

    def test_true_deta_oracle(self, events):
        rings = prepare_rings(events, true_deta=True)
        expected = np.maximum(rings.true_eta_errors(), 1e-4)
        assert np.allclose(rings.deta, expected)


class TestLocalizeRings:
    def test_empty_rings_fails_gracefully(self, rings):
        empty = rings.select(np.zeros(rings.num_rings, dtype=bool))
        out = localize_rings(empty, np.random.default_rng(0))
        assert out.direction is None

    def test_initial_seed_respected(self, rings):
        s0 = np.array([0.0, 0.0, 1.0])
        out = localize_rings(rings, np.random.default_rng(1), initial=s0)
        assert out.direction is not None


class TestLocalizeBaseline:
    def test_localizes_standard_exposure(self, events, exposure):
        out = localize_baseline(events, np.random.default_rng(3))
        err = out.error_degrees(exposure.source_direction)
        assert err < 30.0  # generous: single trial, with background

    def test_oracles_do_not_hurt(self, events, exposure):
        rng = np.random.default_rng(4)
        base = localize_baseline(events, np.random.default_rng(4))
        clean = localize_baseline(
            events, np.random.default_rng(4), drop_background=True
        )
        oracle = localize_baseline(
            events, np.random.default_rng(4), true_deta=True
        )
        s = exposure.source_direction
        assert oracle.error_degrees(s) <= base.error_degrees(s) + 1.0
        assert clean.error_degrees(s) <= base.error_degrees(s) + 1.0

    def test_error_degrees_failure_is_180(self):
        from repro.localization.pipeline import LocalizationOutcome
        from tests.localization.test_likelihood import make_rings

        out = LocalizationOutcome(
            direction=None,
            rings=make_rings([[0, 0, 1]], [0.5], [0.1]),
            used=np.zeros(1, dtype=bool),
            iterations=0,
            converged=False,
        )
        assert out.error_degrees(np.array([0.0, 0.0, 1.0])) == 180.0

    def test_error_degrees_math(self):
        from repro.localization.pipeline import LocalizationOutcome
        from tests.localization.test_likelihood import make_rings

        out = LocalizationOutcome(
            direction=np.array([1.0, 0.0, 0.0]),
            rings=make_rings([[0, 0, 1]], [0.5], [0.1]),
            used=np.ones(1, dtype=bool),
            iterations=1,
            converged=True,
        )
        assert out.error_degrees(np.array([0.0, 1.0, 0.0])) == pytest.approx(90.0)
        assert out.error_degrees(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0)
