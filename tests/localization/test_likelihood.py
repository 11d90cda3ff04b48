"""Tests for the ring likelihood model."""

import numpy as np
import pytest

from repro.localization.likelihood import (
    capped_chi_square,
    joint_log_likelihood,
    ring_chi_square,
)
from repro.reconstruction.rings import RingSet


def make_rings(axes, etas, detas, source=None):
    axes = np.atleast_2d(np.asarray(axes, dtype=np.float64))
    m = axes.shape[0]
    return RingSet(
        axis=axes,
        eta=np.asarray(etas, dtype=np.float64),
        deta=np.asarray(detas, dtype=np.float64),
        event_index=np.arange(m),
        first_hit=np.zeros(m, dtype=np.int64),
        second_hit=np.ones(m, dtype=np.int64),
        ordering_score=np.full(m, np.nan),
        labels=np.zeros(m, dtype=np.int64),
        ordering_correct=np.ones(m, dtype=bool),
        source_direction=source,
    )


class TestRingChiSquare:
    def test_zero_on_cone(self):
        rings = make_rings([[0, 0, 1]], [0.5], [0.1])
        s = np.array([np.sqrt(1 - 0.25), 0.0, 0.5])  # c.s = 0.5
        assert ring_chi_square(rings, s)[0] == pytest.approx(0.0, abs=1e-12)

    def test_normalized_by_deta(self):
        rings = make_rings([[0, 0, 1]], [0.0], [0.1])
        s = np.array([0.0, 0.0, 1.0])  # residual = 1.0
        assert ring_chi_square(rings, s)[0] == pytest.approx(100.0)

    def test_multiple_directions_shape(self):
        rings = make_rings([[0, 0, 1], [1, 0, 0]], [0.3, 0.4], [0.1, 0.2])
        dirs = np.eye(3)
        chi2 = ring_chi_square(rings, dirs)
        assert chi2.shape == (2, 3)

    def test_single_direction_returns_vector(self):
        rings = make_rings([[0, 0, 1], [1, 0, 0]], [0.3, 0.4], [0.1, 0.2])
        chi2 = ring_chi_square(rings, np.array([0.0, 0.0, 1.0]))
        assert chi2.shape == (2,)


class TestCappedChiSquare:
    def test_cap_limits_contribution(self):
        rings = make_rings([[0, 0, 1]], [0.0], [0.01])
        s = np.array([[0.0, 0.0, 1.0]])  # chi2 = 1e4 before cap
        assert capped_chi_square(rings, s, cap=9.0)[0] == pytest.approx(9.0)

    def test_sum_over_rings(self):
        rings = make_rings(
            [[0, 0, 1], [0, 0, 1]], [1.0, 0.0], [0.5, 0.5]
        )
        s = np.array([[0.0, 0.0, 1.0]])
        # Residuals 0 and 1 -> chi2 0 and 4 (capped at 9).
        assert capped_chi_square(rings, s, cap=9.0)[0] == pytest.approx(4.0)

    def test_matches_capped_ring_chi_square(self, alert_pool):
        """Pre-scaled scoring equals the per-ring expression to rounding,
        on approximation-shaped candidate sets."""
        from repro.localization.approximation import HORIZON_MIN_Z, cone_points

        for _, rings in alert_pool:
            candidates = cone_points(rings.axis[:12], rings.eta[:12], 72)
            candidates = candidates[candidates[:, 2] >= HORIZON_MIN_Z]
            for cap in (4.0, 9.0):
                got = capped_chi_square(rings, candidates, cap=cap)
                want = np.minimum(ring_chi_square(rings, candidates), cap).sum(0)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_single_direction(self):
        rings = make_rings([[0, 0, 1], [1, 0, 0]], [0.3, 0.4], [0.1, 0.2])
        s = np.array([0.0, 0.6, 0.8])
        got = capped_chi_square(rings, s)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(
            np.minimum(ring_chi_square(rings, s), 9.0).sum(), rel=1e-12
        )


class TestJointLogLikelihood:
    def test_higher_at_true_source(self):
        s_true = np.array([0.0, 0.0, 1.0])
        rng = np.random.default_rng(0)
        axes = rng.normal(size=(50, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        etas = axes @ s_true + rng.normal(0, 0.02, 50)
        rings = make_rings(axes, etas, np.full(50, 0.02))
        ll_true = joint_log_likelihood(rings, s_true)
        ll_off = joint_log_likelihood(rings, np.array([1.0, 0.0, 0.0]))
        assert ll_true > ll_off

    def test_deta_penalty_term(self):
        """Wider rings lower the log-likelihood even at zero residual."""
        narrow = make_rings([[0, 0, 1]], [1.0], [0.01])
        wide = make_rings([[0, 0, 1]], [1.0], [0.5])
        s = np.array([0.0, 0.0, 1.0])
        assert joint_log_likelihood(narrow, s) > joint_log_likelihood(wide, s)
