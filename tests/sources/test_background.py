"""Tests for the atmospheric background model."""

from functools import partial

import numpy as np
import pytest

from repro.sources.background import BackgroundModel
from repro.sources.grb import LABEL_BACKGROUND


class TestBackgroundModel:
    def test_invalid_flux(self):
        with pytest.raises(ValueError):
            BackgroundModel(flux_per_cm2_s=-1.0)

    def test_invalid_cos_range(self):
        with pytest.raises(ValueError):
            BackgroundModel(cos_polar_min=1.5)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            BackgroundModel(duration_s=0.0)

    def test_expected_scales_with_flux_and_duration(self, geometry):
        base = BackgroundModel(flux_per_cm2_s=10.0).expected_photons(geometry)
        double_flux = BackgroundModel(flux_per_cm2_s=20.0).expected_photons(geometry)
        double_time = BackgroundModel(
            flux_per_cm2_s=10.0, duration_s=2.0
        ).expected_photons(geometry)
        assert double_flux == pytest.approx(2 * base)
        assert double_time == pytest.approx(2 * base)

    def test_labels(self, geometry):
        rng = np.random.default_rng(0)
        batch = BackgroundModel().generate(geometry, rng, n_photons=50)
        assert np.all(batch.labels == LABEL_BACKGROUND)
        assert batch.source_direction is None

    def test_arrival_cos_range(self, geometry):
        rng = np.random.default_rng(1)
        model = BackgroundModel(cos_polar_min=-0.5)
        batch = model.generate(geometry, rng, n_photons=5000)
        # Beam = -source vector, so beam_z in [-1, 0.5].
        assert batch.directions[:, 2].max() <= 0.5 + 1e-9
        assert batch.directions[:, 2].min() >= -1.0

    def test_directions_unit_norm(self, geometry):
        rng = np.random.default_rng(2)
        batch = BackgroundModel().generate(geometry, rng, n_photons=500)
        assert np.allclose(np.linalg.norm(batch.directions, axis=1), 1.0)

    def test_azimuthal_symmetry(self, geometry):
        rng = np.random.default_rng(3)
        batch = BackgroundModel().generate(geometry, rng, n_photons=20000)
        assert abs(batch.directions[:, 0].mean()) < 0.02
        assert abs(batch.directions[:, 1].mean()) < 0.02

    def test_times_within_duration(self, geometry):
        rng = np.random.default_rng(4)
        model = BackgroundModel(duration_s=1.0)
        batch = model.generate(geometry, rng, n_photons=500)
        assert batch.times.min() >= 0.0 and batch.times.max() <= 1.0

    def test_ring_ratio_calibration(self, geometry, response):
        """The default flux yields the paper's 2-3x background:GRB ring
        ratio for a 1 MeV/cm^2 burst (averaged over a few exposures)."""
        from repro.localization.pipeline import prepare_rings
        from repro.sources.exposure import simulate_exposure
        from repro.sources.grb import GRBSource, LABEL_GRB

        ratios = []
        for seed in range(4):
            rng = np.random.default_rng(seed)
            exp = simulate_exposure(
                geometry, rng, GRBSource(fluence_mev_cm2=1.0), BackgroundModel()
            )
            events = response.digitize(exp.transport, exp.batch, rng, min_hits=2)
            rings = prepare_rings(events)
            n_grb = int((rings.labels == LABEL_GRB).sum())
            ratios.append((rings.num_rings - n_grb) / max(n_grb, 1))
        mean_ratio = float(np.mean(ratios))
        assert 1.8 < mean_ratio < 4.2


BATCH_FIELDS = ("origins", "directions", "energies", "times", "labels")


class _ScriptedRng:
    """Generator stand-in whose first ``uniform`` draws come from a script
    (one array per call); later draws come from a seeded generator."""

    def __init__(self, script, seed):
        self._script = list(script)
        self._rng = np.random.default_rng(seed)

    def uniform(self, low=0.0, high=1.0, size=None):
        if self._script:
            return np.asarray(self._script.pop(0), dtype=np.float64)
        return self._rng.uniform(low, high, size)


class TestGenerateOracle:
    """The column-wise plane basis gives the ``np.cross`` basis's bits."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("cos_polar_min", [-0.5, 0.0])
    @pytest.mark.parametrize("instrument", ["adapt", "apt"])
    def test_batches_match_cross_product_basis(self, instrument, cos_polar_min, seed):
        from repro.geometry.tiles import adapt_geometry, apt_geometry
        from tests.physics.frontend_oracle import background_generate_oracle

        geometry = adapt_geometry() if instrument == "adapt" else apt_geometry()
        # The APT flux is the bench's quiet L2 background.
        flux = 25.0 if instrument == "adapt" else 1.0
        model = BackgroundModel(flux_per_cm2_s=flux, cos_polar_min=cos_polar_min)
        rng_new = np.random.default_rng([19, seed])
        rng_ref = np.random.default_rng([19, seed])
        got = model.generate(geometry, rng_new)
        want = background_generate_oracle(model, geometry, rng_ref)
        assert got.num_photons > 1000
        for name in BATCH_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        assert got.source_direction is None
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    def test_degenerate_draws(self, geometry):
        """Zenith, nadir and horizon arrivals, axis azimuths and plane
        offsets of ±0: signed-zero direction components and exact-zero
        origins."""
        import itertools

        from tests.physics.frontend_oracle import background_generate_oracle

        model = BackgroundModel(cos_polar_min=-1.0)
        half = model._plane_side(geometry) / 2.0
        grid = np.array(
            list(
                itertools.product(
                    [1.0, -1.0, 0.0, -0.0, 0.5],
                    [0.0, np.pi / 2, np.pi, 1.5 * np.pi],
                    [0.0, -0.0, half, -half],
                    [0.0, -0.0, half],
                )
            )
        ).T
        batches = []
        for generate in (model.generate, partial(background_generate_oracle, model)):
            rng = _ScriptedRng(list(grid), seed=11)
            batches.append(generate(geometry, rng, n_photons=grid.shape[1]))
        for name in BATCH_FIELDS:
            a, b = getattr(batches[0], name), getattr(batches[1], name)
            assert a.tobytes() == b.tobytes(), name
        directions = batches[0].directions
        assert np.any(np.signbit(directions) & (directions == 0.0))
        assert np.any(batches[0].origins == 0.0)

    def test_beams_along_the_helper_switch(self, geometry):
        """Beams with |x| just above and below 0.9 (the helper-axis switch),
        and the empty batch, match too."""
        from tests.physics.frontend_oracle import background_generate_oracle

        model = BackgroundModel(cos_polar_min=-1.0)
        for n in (0, 1, 4000):
            rng_new, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
            got = model.generate(geometry, rng_new, n_photons=n)
            want = background_generate_oracle(model, geometry, rng_ref, n_photons=n)
            for name in BATCH_FIELDS:
                assert getattr(got, name).shape == getattr(want, name).shape
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        near_x = np.abs(got.directions[:, 0]) > 0.9
        assert 0 < near_x.sum() < n
