"""Tests for the baseline localization pipeline."""

from dataclasses import replace

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


class TestNonFiniteRings:
    """A non-finite ring fails with a ValueError that counts the bad rings."""

    @pytest.mark.parametrize("field", ["eta", "deta"])
    def test_one_nan_ring(self, rings, field):
        values = getattr(rings, field).copy()
        values[5] = np.nan
        with pytest.raises(ValueError, match=f" 1 of {rings.num_rings} rings "):
            localize_rings(replace(rings, **{field: values}), np.random.default_rng(0))

    # An infinite axis can score finite under the chi-square cap, so the
    # check must not lean on the scores; it runs before any arithmetic.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_one_infinite_axis(self, rings, value):
        axis = rings.axis.copy()
        axis[3] = value
        with pytest.raises(ValueError, match=f" 1 of {rings.num_rings} rings "):
            localize_rings(replace(rings, axis=axis), np.random.default_rng(0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_infinite_axis_component_with_seed(self, rings):
        axis = rings.axis.copy()
        axis[3, 2] = np.inf
        with pytest.raises(ValueError, match=f" 1 of {rings.num_rings} rings "):
            localize_rings(
                replace(rings, axis=axis),
                np.random.default_rng(0),
                initial=np.array([0.0, 0.0, 1.0]),
            )

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_counts_every_non_finite_ring(self, rings):
        eta, deta, axis = rings.eta.copy(), rings.deta.copy(), rings.axis.copy()
        eta[5] = np.nan
        deta[7] = np.nan
        axis[3] = np.inf
        bad = replace(rings, eta=eta, deta=deta, axis=axis)
        with pytest.raises(
            ValueError,
            match=f" 3 of {rings.num_rings} rings have a non-finite axis, eta or deta",
        ):
            localize_rings(bad, np.random.default_rng(0))


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
