"""Tests for the coarse-to-fine hierarchical sky search."""

import numpy as np
import pytest

from repro.localization.hierarchy import (
    CellSet,
    SkymapConfig,
    coarse_cells,
    evaluate_cells,
    hierarchical_skymap,
    refine_mask,
)
from repro.localization.skymap import SkyGrid, compute_skymap
from tests.localization.test_approximation import synthetic_rings

HEMISPHERE_SR = 2.0 * np.pi * (1.0 - np.cos(np.deg2rad(95.0)))


def oracle_evaluate_cells(rings, cells, cap=25.0, temperature=1.0):
    """The textbook cell-scoring expression (fresh temporaries per step)."""
    resid = rings.axis @ cells.centers().T - rings.eta[:, None]
    sigma2 = rings.deta[:, None] ** 2 + cells.half_widths_rad()[None, :] ** 2
    chi2 = resid * resid / sigma2
    if cap is not None:
        chi2 = np.minimum(chi2, cap)
    log_like = -0.5 * chi2.sum(axis=0) / temperature
    return log_like, log_like + np.log(cells.areas_sr())


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


class TestSkymapConfig:
    def test_defaults_valid(self):
        cfg = SkymapConfig()
        assert cfg.num_levels == 4  # 8 deg -> 0.5 deg

    def test_num_levels_rounds_up(self):
        assert SkymapConfig(resolution_deg=0.3).num_levels == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"resolution_deg": 0.0},
            {"coarse_resolution_deg": -1.0},
            {"resolution_deg": 9.0},  # coarser than the coarse grid
            {"top_k": 0},
            {"margin": -0.1},
            {"temperature": 0.0},
            {"max_polar_deg": 0.0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SkymapConfig(**kwargs)


class TestCellSet:
    def test_coarse_cells_tile_search_region(self):
        cells = coarse_cells(8.0, 95.0)
        assert cells.areas_sr().sum() == pytest.approx(HEMISPHERE_SR, rel=1e-9)

    def test_split_partitions_exactly(self):
        cells = coarse_cells(8.0, 95.0)
        children = cells.split()
        assert children.num_cells == 4 * cells.num_cells
        assert children.areas_sr().sum() == pytest.approx(
            cells.areas_sr().sum(), rel=1e-9
        )

    def test_split_halves_half_widths(self):
        cells = coarse_cells(8.0, 95.0)
        child_hw = cells.split().half_widths_rad()
        # Each child's scale is about half its parent's (exactly half in
        # polar width; azimuthal width also picks up the center-latitude
        # shift, hence the loose bound).
        parent_hw = np.repeat(cells.half_widths_rad(), 4).reshape(4, -1)
        assert np.all(child_hw > 0)
        assert np.all(
            child_hw.reshape(4, -1) < 0.75 * parent_hw
        )

    def test_centers_unit_norm_inside_bounds(self):
        cells = coarse_cells(10.0, 95.0)
        centers = cells.centers()
        assert np.allclose(np.linalg.norm(centers, axis=1), 1.0)
        theta = np.arccos(np.clip(centers[:, 2], -1.0, 1.0))
        assert np.all(theta >= cells.theta_lo - 1e-12)
        assert np.all(theta <= cells.theta_hi + 1e-12)

    def test_invalid_coarse_grid(self):
        with pytest.raises(ValueError):
            coarse_cells(0.0)


class TestRefineMask:
    def test_top_k_always_selected(self):
        log_post = np.array([-50.0, -3.0, -40.0, 0.0])
        mask = refine_mask(log_post, top_k=1, margin=0.0)
        assert mask.tolist() == [False, False, False, True]

    def test_margin_adds_competitive_cells(self):
        log_post = np.array([-50.0, -3.0, -40.0, 0.0])
        mask = refine_mask(log_post, top_k=1, margin=5.0)
        assert mask.tolist() == [False, True, False, True]


class TestHierarchicalSkymap:
    def test_matches_flat_scan(self):
        s_true = _unit([0.3, 0.1, 0.95])
        rings = synthetic_rings(s_true, n=80, noise=0.01, seed=0)
        res_deg = 1.0
        flat = compute_skymap(rings, SkyGrid.build(res_deg, 95.0))
        hier = hierarchical_skymap(
            rings, SkymapConfig(resolution_deg=res_deg)
        )
        sep = np.degrees(
            np.arccos(
                np.clip(
                    flat.best_direction() @ hier.sky.best_direction(),
                    -1.0,
                    1.0,
                )
            )
        )
        assert sep <= res_deg
        a_flat = flat.credible_region_area_deg2(0.9)
        a_hier = hier.sky.credible_region_area_deg2(0.9)
        assert a_hier == pytest.approx(a_flat, rel=0.5)

    def test_far_cheaper_than_flat(self):
        rings = synthetic_rings(_unit([0.0, 0.2, 0.98]), n=60, seed=3)
        res_deg = 0.5
        hier = hierarchical_skymap(rings, SkymapConfig(resolution_deg=res_deg))
        flat_pixels = SkyGrid.build(res_deg, 95.0).num_pixels
        assert hier.cells_evaluated < flat_pixels / 20

    def test_probability_normalized_area_conserved(self):
        rings = synthetic_rings(_unit([0.1, -0.3, 0.9]), seed=4)
        hier = hierarchical_skymap(rings)
        assert hier.sky.probability.sum() == pytest.approx(1.0)
        assert hier.sky.grid.pixel_area_sr.sum() == pytest.approx(
            HEMISPHERE_SR, rel=1e-9
        )
        assert hier.levels == SkymapConfig().num_levels
        assert hier.num_leaves == hier.sky.grid.num_pixels

    def test_zenith_source_reaches_target_resolution(self):
        # Regression: an equal-area polar split shrinks cap cells by only
        # sqrt(2) per level, leaving a zenith source stranded ~1 degree
        # from every pixel center at a 0.25-degree target.
        s_true = np.array([0.0, 0.0, 1.0])
        rings = synthetic_rings(s_true, n=80, noise=0.01, seed=5)
        cfg = SkymapConfig(resolution_deg=0.25)
        hier = hierarchical_skymap(rings, cfg)
        nearest = np.degrees(
            np.arccos(np.clip(hier.sky.grid.directions @ s_true, -1, 1))
        ).min()
        assert nearest <= cfg.resolution_deg
        assert hier.sky.contains(s_true, 0.9)

    def test_multimodal_margin_guard(self):
        # Ring axes confined to the x-z plane make the likelihood exactly
        # symmetric under y -> -y, so the posterior is bimodal with two
        # equal peaks.  With top_k=1 the margin window is what keeps the
        # mirror mode in the refinement frontier down to fine levels.
        from tests.localization.test_likelihood import make_rings

        rng = np.random.default_rng(6)
        n = 30
        ang = rng.uniform(0.0, np.pi / 2, n)
        axes = np.stack(
            [np.sin(ang), np.zeros(n), np.cos(ang)], axis=1
        )
        s1 = _unit([0.3, 0.4, 0.86])
        s2 = _unit([0.3, -0.4, 0.86])
        rings = make_rings(axes, axes @ s1, np.full(n, 0.01))
        cfg = SkymapConfig(resolution_deg=1.0, top_k=1, margin=6.0)
        sky = hierarchical_skymap(rings, cfg).sky
        m1 = sky.probability_within(s1, 3.0)
        m2 = sky.probability_within(s2, 3.0)
        assert m1 > 0.3 and m2 > 0.3
        assert sky.contains(s1, 0.9) and sky.contains(s2, 0.9)

    def test_temperature_widens_regions(self):
        rings = synthetic_rings(_unit([0.2, 0.1, 0.95]), n=60, seed=8)
        cold = hierarchical_skymap(rings, SkymapConfig(temperature=1.0))
        hot = hierarchical_skymap(rings, SkymapConfig(temperature=4.0))
        assert hot.sky.credible_region_area_deg2(
            0.9
        ) > cold.sky.credible_region_area_deg2(0.9)

    def test_empty_rings_rejected(self):
        from tests.localization.test_likelihood import make_rings

        empty = make_rings(
            np.zeros((0, 3)), np.zeros(0), np.zeros(0)
        )
        with pytest.raises(ValueError):
            hierarchical_skymap(empty)


class TestDenseScanSweep:
    """The search against the dense scan over a 1/0.5/0.25-degree sweep.

    Both run at unit temperature on the 128-ring ``repro.perf`` block.
    Best fits agree within one pixel diagonal (sqrt(2) x resolution), and
    the search scores at most a fifth of the dense scan's pixels: the
    count-based form of its >= 5x speedup target.  The dense 0.25-degree
    scan peaks near 760 MB, so there the block's true source stands in.
    """

    @pytest.fixture(scope="class")
    def sweep_rings(self):
        from repro.perf.ops import _ring_block

        return _ring_block(128)

    @pytest.mark.parametrize("res_deg", [1.0, 0.5, 0.25])
    def test_dense_fit_at_a_fifth_of_the_cells(self, sweep_rings, res_deg):
        cfg = SkymapConfig(resolution_deg=res_deg, temperature=1.0)
        hier = hierarchical_skymap(sweep_rings, cfg)
        grid = SkyGrid.build(res_deg, 95.0)
        assert hier.cells_evaluated * 5 <= grid.num_pixels
        if res_deg >= 0.5:
            reference = compute_skymap(sweep_rings, grid).best_direction()
        else:
            reference = sweep_rings.source_direction
        cos_sep = np.clip(reference @ hier.sky.best_direction(), -1.0, 1.0)
        assert np.degrees(np.arccos(cos_sep)) <= np.sqrt(2.0) * res_deg


class TestEvaluateCells:
    def test_broadening_keeps_sharp_corridors_visible(self):
        # A razor-thin ring set (deta far below the coarse cell size):
        # with resolution-matched broadening the truth's coarse cell must
        # score within the refinement margin of the best cell, or the
        # search would discard the right branch at level 0.
        s_true = _unit([0.2, -0.1, 0.97])
        rings = synthetic_rings(s_true, n=60, noise=1e-4, seed=9)
        cells = coarse_cells(8.0, 95.0)
        _, log_post = evaluate_cells(rings, cells, cap=25.0)
        theta = np.arccos(np.clip(s_true[2], -1.0, 1.0))
        phi = np.mod(np.arctan2(s_true[1], s_true[0]), 2.0 * np.pi)
        holder = (
            (cells.theta_lo <= theta)
            & (theta <= cells.theta_hi)
            & (cells.phi_lo <= phi)
            & (phi <= cells.phi_hi)
        )
        assert holder.any()
        assert log_post[holder].max() >= log_post.max() - 6.0

    def test_cell_set_select_roundtrip(self):
        cells = coarse_cells(10.0)
        mask = np.zeros(cells.num_cells, dtype=bool)
        mask[:5] = True
        kept = cells.select(mask)
        assert kept.num_cells == 5
        assert np.allclose(kept.theta_lo, cells.theta_lo[:5])


class TestEvaluateCellsBitwise:
    """The in-place scoring equals the textbook expression bit for bit."""

    @pytest.mark.parametrize("cap", [None, 25.0])
    @pytest.mark.parametrize("temperature", [1.0, 2.5])
    def test_cells_match_expression(self, alert_pool, cap, temperature):
        coarse = coarse_cells(8.0, 95.0)
        children = coarse.select(np.arange(coarse.num_cells) < 40).split()
        mixed = CellSet(
            *(
                np.concatenate([getattr(coarse, f), getattr(children, f)])
                for f in ("theta_lo", "theta_hi", "phi_lo", "phi_hi")
            )
        )
        for _, rings in alert_pool:
            got = evaluate_cells(rings, mixed, cap, temperature)
            want = oracle_evaluate_cells(rings, mixed, cap, temperature)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_maps_match_expression(self, alert_pool, monkeypatch):
        """Whole 0.25-degree maps are unchanged, leaf for leaf."""
        import repro.localization.hierarchy as hierarchy

        cfg = SkymapConfig(resolution_deg=0.25)
        maps = [hierarchical_skymap(rings, cfg).sky for _, rings in alert_pool]
        monkeypatch.setattr(hierarchy, "evaluate_cells", oracle_evaluate_cells)
        for (_, rings), sky in zip(alert_pool, maps):
            want = hierarchical_skymap(rings, cfg).sky
            np.testing.assert_array_equal(sky.grid.directions, want.grid.directions)
            np.testing.assert_array_equal(sky.log_likelihood, want.log_likelihood)
            np.testing.assert_array_equal(sky.probability, want.probability)
