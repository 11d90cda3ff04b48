"""Tests for robust iterative refinement."""

import numpy as np
import pytest

from repro.localization.approximation import approximate_source
from repro.localization.refinement import (
    RefinementConfig,
    RefinementResult,
    refine_source,
)
from tests.localization.test_approximation import synthetic_rings
from tests.localization.test_likelihood import make_rings


def _oracle_solve(rings, mask, ridge):
    """The boolean-indexed weighted solve the kernel replaced."""
    axis = rings.axis[mask]
    eta = rings.eta[mask]
    w = 1.0 / rings.deta[mask] ** 2
    a = (axis * w[:, None]).T @ axis
    b = (axis * (w * eta)[:, None]).sum(axis=0)
    a += np.eye(3) * (ridge * max(np.trace(a), 1.0))
    try:
        s = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None
    norm = np.linalg.norm(s)
    if norm == 0.0 or not np.all(np.isfinite(s)):
        return None
    return s / norm


def oracle_refine(rings, initial, config=None):
    """Reference gate-and-solve loop: one ``np.linalg.solve`` per round
    over boolean-index copies of the gated rings."""
    cfg = config or RefinementConfig()
    s = np.asarray(initial, dtype=np.float64)
    s = s / np.linalg.norm(s)
    m = rings.num_rings
    used = np.ones(m, dtype=bool)
    if m == 0:
        return RefinementResult(direction=s, used=used, iterations=0, converged=False)
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        normalized = np.abs(rings.residuals(s)) / rings.deta
        gate = normalized <= cfg.gate_sigma
        if gate.sum() < min(cfg.min_rings, m):
            order = np.argsort(normalized)
            gate = np.zeros(m, dtype=bool)
            gate[order[: min(cfg.min_rings, m)]] = True
        s_new = _oracle_solve(rings, gate, cfg.ridge)
        if s_new is None:
            break
        used = gate
        step = np.degrees(np.arccos(np.clip(np.dot(s, s_new), -1.0, 1.0)))
        s = s_new
        if step < cfg.tol_deg:
            converged = True
            break
    return RefinementResult(
        direction=s, used=used, iterations=iterations, converged=converged
    )


def angle_deg(a, b):
    return float(np.degrees(np.arccos(np.clip(a @ b, -1.0, 1.0))))


def assert_matches_oracle(rings, initial, config=None, tol_deg=1e-5):
    """Same rounds, convergence and ring masks as the oracle; directions
    equal to rounding (the solve differs at the ulp level)."""
    got = refine_source(rings, initial, config)
    want = oracle_refine(rings, initial, config)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    np.testing.assert_array_equal(got.used, want.used)
    assert angle_deg(got.direction, want.direction) <= tol_deg
    return got


class TestRefineSource:
    def test_exact_recovery_clean_rings(self):
        s_true = np.array([0.1, 0.2, 0.97])
        s_true /= np.linalg.norm(s_true)
        rings = synthetic_rings(s_true, n=100, noise=0.005, seed=0)
        start = s_true + np.array([0.05, -0.03, 0.0])
        res = assert_matches_oracle(rings, start)
        err = np.degrees(np.arccos(np.clip(res.direction @ s_true, -1, 1)))
        assert err < 0.5
        assert res.converged

    def test_robust_to_outlier_rings(self):
        s_true = np.array([0.0, 0.0, 1.0])
        rng = np.random.default_rng(1)
        good = synthetic_rings(s_true, n=80, noise=0.01, seed=1)
        # Outliers: random rings unrelated to the source.
        axes = rng.normal(size=(40, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        bad = make_rings(axes, rng.uniform(-0.9, 0.9, 40), np.full(40, 0.01))
        import dataclasses

        merged = make_rings(
            np.concatenate([good.axis, bad.axis]),
            np.concatenate([good.eta, bad.eta]),
            np.concatenate([good.deta, bad.deta]),
        )
        res = assert_matches_oracle(merged, s_true + 0.02)
        err = np.degrees(np.arccos(np.clip(res.direction @ s_true, -1, 1)))
        assert err < 1.0
        # The gate should have excluded most outliers.
        assert res.used[: good.num_rings].mean() > 0.8
        assert res.used[good.num_rings :].mean() < 0.3

    def test_min_rings_fallback(self):
        """When the gate would keep too few rings, the best min_rings are
        used instead of an empty set."""
        s_true = np.array([0.0, 0.0, 1.0])
        rings = synthetic_rings(s_true, n=6, noise=0.01, seed=2)
        # Start very far: all residuals exceed the gate initially.
        start = np.array([1.0, 0.0, 0.0])
        cfg = RefinementConfig(min_rings=5)
        res = assert_matches_oracle(rings, start, cfg)
        assert res.used.sum() >= min(5, rings.num_rings)

    def test_empty_rings(self):
        rings = synthetic_rings(np.array([0.0, 0.0, 1.0]))
        empty = rings.select(np.zeros(rings.num_rings, dtype=bool))
        start = np.array([0.0, 0.0, 1.0])
        res = assert_matches_oracle(empty, start)
        assert np.allclose(res.direction, start)
        assert not res.converged

    def test_result_unit_norm(self):
        rings = synthetic_rings(np.array([0.0, 0.0, 1.0]), seed=3)
        res = assert_matches_oracle(rings, np.array([0.1, 0.1, 0.9]))
        assert np.linalg.norm(res.direction) == pytest.approx(1.0)

    def test_iteration_cap(self):
        rings = synthetic_rings(np.array([0.0, 0.0, 1.0]), seed=4)
        cfg = RefinementConfig(max_iterations=2, tol_deg=1e-12)
        res = assert_matches_oracle(rings, np.array([1.0, 0.0, 0.0]), cfg)
        assert res.iterations <= 2

    def test_weighting_prefers_narrow_rings(self):
        """Two inconsistent ring families; the narrower family wins."""
        s_a = np.array([0.0, 0.0, 1.0])
        s_b = np.array([np.sin(np.deg2rad(25)), 0.0, np.cos(np.deg2rad(25))])
        narrow = synthetic_rings(s_a, n=40, noise=0.01, seed=10)
        wide_src = synthetic_rings(s_b, n=40, noise=0.01, seed=11)
        wide = make_rings(
            wide_src.axis, wide_src.eta, np.full(wide_src.num_rings, 0.4)
        )
        merged = make_rings(
            np.concatenate([narrow.axis, wide.axis]),
            np.concatenate([narrow.eta, wide.eta]),
            np.concatenate([narrow.deta, wide.deta]),
        )
        # Start midway between the two hypotheses.
        mid = s_a + s_b
        res = assert_matches_oracle(merged, mid / np.linalg.norm(mid))
        err_a = np.degrees(np.arccos(np.clip(res.direction @ s_a, -1, 1)))
        err_b = np.degrees(np.arccos(np.clip(res.direction @ s_b, -1, 1)))
        assert err_a < err_b



class TestAgainstOracle:
    """The kernel reproduces the reference loop round for round (the
    synthetic cases above also compare against it)."""

    def test_alert_exposures(self, alert_pool):
        """16 alert-recipe exposures x 3 approximation seeds, refined from
        every returned seed, on the propagated and on a rescaled d eta."""
        compared = 0
        for events, rings in alert_pool:
            for seed in range(3):
                starts = approximate_source(
                    rings, np.random.default_rng(seed), top_k=3
                )
                for start in np.atleast_2d(starts):
                    assert_matches_oracle(rings, start)
                    compared += 1
            widened = rings.with_deta(rings.deta * 1.7)
            assert_matches_oracle(widened, rings.source_direction + 0.05)
        assert compared >= 16 * 3

    def test_one_ring(self):
        rings = make_rings([[0.0, 0.6, 0.8]], [0.5], [0.02])
        res = assert_matches_oracle(rings, np.array([0.0, 0.0, 1.0]))
        np.testing.assert_array_equal(res.used, [True])

    def test_two_rings(self):
        rings = make_rings(
            [[0.0, 0.6, 0.8], [0.6, 0.0, 0.8]], [0.7, 0.75], [0.02, 0.05]
        )
        assert_matches_oracle(rings, np.array([0.1, 0.1, 1.0]))

    @pytest.mark.parametrize("axis", [[0.0, 0.0, 1.0], [1.0, 2.0, 3.0]])
    def test_parallel_axes_rank_one(self, axis):
        """All axes parallel: sum w c c^T is rank 1 and only the ridge
        keeps the system solvable."""
        c = np.asarray(axis) / np.linalg.norm(axis)
        n = 12
        rng = np.random.default_rng(8)
        rings = make_rings(
            np.tile(c, (n, 1)),
            0.6 + rng.normal(0.0, 0.01, n),
            rng.uniform(0.01, 0.05, n),
        )
        res = assert_matches_oracle(rings, np.array([0.3, -0.2, 0.9]))
        assert np.all(np.isfinite(res.direction))

    def test_nan_eta_outside_gate_is_ignored(self):
        """A masked sum would compute 0 * NaN; the ring must add exactly
        nothing, as boolean indexing does."""
        s_true = np.array([0.2, -0.1, 0.97])
        s_true /= np.linalg.norm(s_true)
        rings = synthetic_rings(s_true, n=60, noise=0.01, seed=5)
        poisoned = make_rings(
            np.concatenate([rings.axis, [[0.0, 0.0, 1.0]]]),
            np.concatenate([rings.eta, [np.nan]]),
            np.concatenate([rings.deta, [0.01]]),
        )
        start = s_true + np.array([0.03, 0.0, 0.0])
        clean = refine_source(rings, start)
        res = assert_matches_oracle(poisoned, start)
        assert res.iterations == clean.iterations
        assert res.converged == clean.converged
        assert not res.used[-1]
        np.testing.assert_array_equal(res.used[:-1], clean.used)
        np.testing.assert_allclose(res.direction, clean.direction, atol=1e-12)

    def test_nan_eta_inside_gate_fails_the_solve(self):
        """Too few rings for the gate: the NaN ring is forced in, and the
        solve fails as the oracle's does (initial direction, unconverged)."""
        rings = make_rings(
            [[0.0, 0.6, 0.8], [0.6, 0.0, 0.8], [0.0, 0.0, 1.0]],
            [0.7, 0.75, np.nan],
            [0.02, 0.05, 0.02],
        )
        res = assert_matches_oracle(rings, np.array([0.0, 0.0, 1.0]))
        assert not res.converged
