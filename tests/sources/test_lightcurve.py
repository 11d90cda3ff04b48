"""Tests for light-curve models."""

import numpy as np
import pytest

from repro.sources.lightcurve import FREDLightCurve, UniformLightCurve


class TestUniform:
    def test_within_duration(self):
        lc = UniformLightCurve(duration_s=2.0)
        t = lc.sample(1000, np.random.default_rng(0))
        assert t.min() >= 0.0 and t.max() <= 2.0

    def test_uniformity(self):
        lc = UniformLightCurve(duration_s=1.0)
        t = lc.sample(50000, np.random.default_rng(1))
        hist, _ = np.histogram(t, bins=10, range=(0, 1))
        assert hist.std() / hist.mean() < 0.05

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            UniformLightCurve(duration_s=-1.0)


class TestFRED:
    def test_within_duration(self):
        lc = FREDLightCurve(duration_s=1.0)
        t = lc.sample(1000, np.random.default_rng(2))
        assert t.min() >= 0.0 and t.max() <= 1.0

    def test_rise_then_decay(self):
        """Mode of arrival times sits early but not at zero."""
        lc = FREDLightCurve(duration_s=1.0, t_rise_s=0.05, t_decay_s=0.25)
        t = lc.sample(100000, np.random.default_rng(3))
        hist, edges = np.histogram(t, bins=50, range=(0, 1))
        mode = 0.5 * (edges[np.argmax(hist)] + edges[np.argmax(hist) + 1])
        assert 0.05 < mode < 0.6
        # Decay: late-time bins much emptier than the mode.
        assert hist[-1] < 0.25 * hist.max()

    def test_invalid_timescales(self):
        with pytest.raises(ValueError):
            FREDLightCurve(t_rise_s=0.0)


class TestFREDTable:
    """FRED draws interpolate the 2048-point inverse-CDF table bit for bit."""

    def test_draws_equal_the_inverse_cdf_table(self):
        lc = FREDLightCurve(duration_s=0.4, t_rise_s=0.02, t_decay_s=0.1)
        t = np.linspace(0.0, 0.4, 2048)
        intensity = (t / 0.02) * np.exp(-t / 0.1)
        cdf = np.concatenate(
            [[0.0], np.cumsum(0.5 * (intensity[1:] + intensity[:-1]) * np.diff(t))]
        )
        cdf /= cdf[-1]
        rng_new, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
        got = lc.sample(3000, rng_new)
        want = np.interp(rng_ref.uniform(0.0, 1.0, size=3000), cdf, t)
        assert got.tobytes() == want.tobytes()
