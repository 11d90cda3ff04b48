"""Tests for feature extraction."""

import numpy as np
import pytest

from repro.models.features import (
    NUM_BASE_FEATURES,
    NUM_FEATURES,
    azimuth_angle_of,
    extract_features,
    features_from_block,
    polar_angle_of,
    ring_feature_block,
)


def oracle_features(rings, events, polar_guess_deg, include_polar=True, azimuth_deg=0.0):
    """The one-pass extraction the block/step split replaced: event sums,
    a rotation of every hit, then the gathers, per call."""
    seg = np.repeat(np.arange(events.num_events), events.hits_per_event())
    etot = np.zeros(events.num_events)
    np.add.at(etot, seg, events.energies)
    var_tot = np.zeros(events.num_events)
    np.add.at(var_tot, seg, events.sigma_energy**2)
    first, second, ev = rings.first_hit, rings.second_hit, rings.event_index
    positions = events.positions
    if azimuth_deg != 0.0:
        phi = np.deg2rad(azimuth_deg)
        c, s = np.cos(phi), np.sin(phi)
        positions = positions.copy()
        positions[:, 0] = c * events.positions[:, 0] + s * events.positions[:, 1]
        positions[:, 1] = -s * events.positions[:, 0] + c * events.positions[:, 1]
    cols = [
        etot[ev],
        positions[first, 0],
        positions[first, 1],
        positions[first, 2],
        events.energies[first],
        positions[second, 0],
        positions[second, 1],
        positions[second, 2],
        events.energies[second],
        np.sqrt(var_tot[ev]),
        events.sigma_energy[first],
        events.sigma_energy[second],
    ]
    if include_polar:
        polar = np.asarray(polar_guess_deg, dtype=np.float64)
        if polar.ndim == 0:
            polar = np.full(rings.num_rings, float(polar))
        cols.append(polar)
    return np.stack(cols, axis=1)


class TestAngles:
    def test_polar_of_zenith(self):
        assert polar_angle_of(np.array([0.0, 0.0, 1.0])) == pytest.approx(0.0)

    def test_polar_of_horizon(self):
        assert polar_angle_of(np.array([1.0, 0.0, 0.0])) == pytest.approx(90.0)

    def test_azimuth_quadrants(self):
        assert azimuth_angle_of(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0)
        assert azimuth_angle_of(np.array([0.0, 1.0, 0.0])) == pytest.approx(90.0)
        assert azimuth_angle_of(np.array([-1.0, 0.0, 0.0])) == pytest.approx(180.0)


class TestExtractFeatures:
    def test_shape_with_polar(self, rings, events):
        f = extract_features(rings, events, polar_guess_deg=20.0)
        assert f.shape == (rings.num_rings, NUM_FEATURES)

    def test_shape_without_polar(self, rings, events):
        f = extract_features(rings, events, include_polar=False)
        assert f.shape == (rings.num_rings, NUM_BASE_FEATURES)

    def test_polar_required(self, rings, events):
        with pytest.raises(ValueError):
            extract_features(rings, events)

    def test_polar_vector_shape_check(self, rings, events):
        with pytest.raises(ValueError):
            extract_features(
                rings, events, polar_guess_deg=np.zeros(rings.num_rings + 1)
            )

    def test_total_energy_column(self, rings, events):
        f = extract_features(rings, events, polar_guess_deg=0.0)
        seg = np.repeat(np.arange(events.num_events), events.hits_per_event())
        etot = np.zeros(events.num_events)
        np.add.at(etot, seg, events.energies)
        assert np.allclose(f[:, 0], etot[rings.event_index])

    def test_hit_columns(self, rings, events):
        f = extract_features(rings, events, polar_guess_deg=0.0)
        assert np.allclose(f[:, 1:4], events.positions[rings.first_hit])
        assert np.allclose(f[:, 4], events.energies[rings.first_hit])
        assert np.allclose(f[:, 5:8], events.positions[rings.second_hit])
        assert np.allclose(f[:, 8], events.energies[rings.second_hit])

    def test_sigma_columns(self, rings, events):
        f = extract_features(rings, events, polar_guess_deg=0.0)
        assert np.allclose(f[:, 10], events.sigma_energy[rings.first_hit])
        assert np.allclose(f[:, 11], events.sigma_energy[rings.second_hit])
        # Column 9 is sqrt of summed per-hit variances.
        seg = np.repeat(np.arange(events.num_events), events.hits_per_event())
        var = np.zeros(events.num_events)
        np.add.at(var, seg, events.sigma_energy**2)
        assert np.allclose(f[:, 9], np.sqrt(var[rings.event_index]))

    def test_polar_column_broadcast(self, rings, events):
        f = extract_features(rings, events, polar_guess_deg=35.0)
        assert np.all(f[:, 12] == 35.0)

    def test_azimuth_rotation_preserves_z_and_energies(self, rings, events):
        a = extract_features(rings, events, polar_guess_deg=0.0, azimuth_deg=0.0)
        b = extract_features(rings, events, polar_guess_deg=0.0, azimuth_deg=123.0)
        assert np.allclose(a[:, 3], b[:, 3])  # z of first hit
        assert np.allclose(a[:, 0], b[:, 0])  # energies
        assert not np.allclose(a[:, 1], b[:, 1])  # x changed

    def test_azimuth_rotation_preserves_radius(self, rings, events):
        a = extract_features(rings, events, polar_guess_deg=0.0, azimuth_deg=0.0)
        b = extract_features(rings, events, polar_guess_deg=0.0, azimuth_deg=77.0)
        ra = np.hypot(a[:, 1], a[:, 2])
        rb = np.hypot(b[:, 1], b[:, 2])
        assert np.allclose(ra, rb)

    def test_rotation_by_360_is_identity(self, rings, events):
        a = extract_features(rings, events, polar_guess_deg=0.0, azimuth_deg=0.0)
        b = extract_features(rings, events, polar_guess_deg=0.0, azimuth_deg=360.0)
        assert np.allclose(a, b, atol=1e-9)


class TestFeatureBlock:
    """Block + per-call step is bit-identical to the one-pass extraction."""

    @pytest.mark.parametrize("azimuth", [0.0, 41.5, 187.0, -300.25])
    @pytest.mark.parametrize("polar", [0.0, 33.7])
    def test_matches_oracle_bitwise(self, alert_pool, azimuth, polar):
        for events, rings in alert_pool:
            block = ring_feature_block(rings, events)
            got = features_from_block(block, polar, azimuth_deg=azimuth)
            want = oracle_features(rings, events, polar, azimuth_deg=azimuth)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(
                extract_features(rings, events, polar, azimuth_deg=azimuth), want
            )

    def test_without_polar_and_with_polar_vector(self, rings, events):
        block = ring_feature_block(rings, events)
        np.testing.assert_array_equal(
            features_from_block(block, include_polar=False, azimuth_deg=12.0),
            oracle_features(rings, events, None, include_polar=False, azimuth_deg=12.0),
        )
        polar = np.linspace(0.0, 90.0, rings.num_rings)
        np.testing.assert_array_equal(
            features_from_block(block, polar, azimuth_deg=12.0),
            oracle_features(rings, events, polar, azimuth_deg=12.0),
        )

    def test_rows_of_a_subset_are_the_subset_block(self, rings, events):
        """``block[mask]`` is the block of ``rings.select(mask)`` — what
        the ML pipeline's dEta stage relies on."""
        mask = np.random.default_rng(3).uniform(size=rings.num_rings) < 0.5
        block = ring_feature_block(rings, events)
        np.testing.assert_array_equal(
            features_from_block(block[mask], 20.0, azimuth_deg=75.0),
            oracle_features(rings.select(mask), events, 20.0, azimuth_deg=75.0),
        )

    def test_block_is_direction_independent(self, rings, events):
        block = ring_feature_block(rings, events)
        before = block.copy()
        features_from_block(block, 10.0, azimuth_deg=99.0)
        np.testing.assert_array_equal(block, before)
        assert block.shape == (rings.num_rings, NUM_BASE_FEATURES)
