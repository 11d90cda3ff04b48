"""Tests for the detector response / digitization chain."""

import numpy as np
import pytest

from repro.detector.response import DetectorResponse, ResponseConfig
from repro.sources.background import BackgroundModel
from repro.sources.exposure import simulate_exposure
from repro.sources.grb import GRBSource


class TestGainMap:
    def test_bounded_by_amplitude(self, response):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-20, 20, size=(1000, 3))
        gain = response.gain_map(pts)
        amp = response.config.nonuniformity_amplitude
        assert np.all(gain >= 1.0 - amp - 1e-12)
        assert np.all(gain <= 1.0 + amp + 1e-12)

    def test_deterministic(self, response):
        pts = np.array([[1.0, 2.0, -0.5], [3.0, -4.0, -12.0]])
        assert np.array_equal(response.gain_map(pts), response.gain_map(pts))


class TestMeasureEnergy:
    def test_resolution_scales_with_photostatistics(self, geometry):
        cfg = ResponseConfig(
            tail_probability=0.0,
            nonuniformity_amplitude=0.0,
            electronics_noise_mev=0.0,
        )
        resp = DetectorResponse(geometry, cfg)
        rng = np.random.default_rng(1)
        true_e = np.full(20000, 1.0)
        pos = np.zeros((20000, 3))
        measured, sigma = resp.measure_energy(true_e, pos, rng)
        expected_sigma = np.sqrt(1.0 / cfg.pe_per_mev)
        assert measured.std() == pytest.approx(expected_sigma, rel=0.05)
        assert np.median(sigma) == pytest.approx(expected_sigma, rel=0.05)

    def test_unbiased_without_systematics(self, geometry):
        cfg = ResponseConfig(tail_probability=0.0, nonuniformity_amplitude=0.0)
        resp = DetectorResponse(geometry, cfg)
        rng = np.random.default_rng(2)
        true_e = np.full(20000, 0.5)
        measured, _ = resp.measure_energy(true_e, np.zeros((20000, 3)), rng)
        assert measured.mean() == pytest.approx(0.5, rel=0.01)

    def test_tails_widen_true_error_beyond_nominal(self, geometry):
        """The unmodeled heavy tail produces errors the nominal sigma
        cannot account for — the paper's motivating pathology."""
        resp = DetectorResponse(geometry)
        rng = np.random.default_rng(3)
        true_e = np.full(50000, 1.0)
        pos = rng.uniform(-20, 20, size=(50000, 3))
        measured, sigma = resp.measure_energy(true_e, pos, rng)
        err = np.abs(measured - true_e)
        frac_beyond_3sigma = (err > 3 * sigma).mean()
        assert frac_beyond_3sigma > 0.05

    def test_non_negative(self, geometry):
        resp = DetectorResponse(geometry)
        rng = np.random.default_rng(4)
        measured, _ = resp.measure_energy(
            np.full(1000, 0.03), np.zeros((1000, 3)), rng
        )
        assert np.all(measured >= 0.0)


class TestMeasurePosition:
    def test_xy_on_fiber_grid(self, response):
        rng = np.random.default_rng(5)
        pts = np.stack(
            [
                rng.uniform(-15, 15, 100),
                rng.uniform(-15, 15, 100),
                np.full(100, -0.7),
            ],
            axis=1,
        )
        measured, sigma = response.measure_position(pts, rng)
        grid = response.fiber_grid
        assert np.allclose(measured[:, 0], grid.quantize(pts[:, 0]))
        assert np.allclose(measured[:, 1], grid.quantize(pts[:, 1]))
        assert np.all(sigma[:, 0] == grid.position_sigma_cm)

    def test_z_stays_in_layer(self, response, geometry):
        rng = np.random.default_rng(6)
        layer = geometry.layers[2]
        z = np.full(500, 0.5 * (layer.z_top + layer.z_bottom))
        pts = np.stack([np.zeros(500), np.zeros(500), z], axis=1)
        measured, _ = response.measure_position(pts, rng)
        assert np.all(measured[:, 2] <= layer.z_top)
        assert np.all(measured[:, 2] >= layer.z_bottom)


class TestDigitize:
    def test_event_structure_consistent(self, events):
        offsets = events.event_offsets
        assert offsets[0] == 0
        assert offsets[-1] == events.num_hits
        assert np.all(np.diff(offsets) >= 2)  # min_hits=2 fixture

    def test_truth_arrays_aligned(self, events):
        assert events.true_positions.shape == events.positions.shape
        assert events.true_energies.shape == events.energies.shape
        assert events.labels.shape[0] == events.num_events
        assert events.photon_energy.shape[0] == events.num_events

    def test_all_measured_above_threshold(self, events, response):
        assert np.all(
            events.energies >= response.config.trigger_threshold_mev
        )

    def test_select_subsets(self, events):
        mask = np.zeros(events.num_events, dtype=bool)
        mask[::3] = True
        sub = events.select(mask)
        assert sub.num_events == int(mask.sum())
        assert np.array_equal(sub.labels, events.labels[mask])
        assert np.array_equal(
            sub.hits_per_event(), events.hits_per_event()[mask]
        )

    def test_select_wrong_length_raises(self, events):
        with pytest.raises(ValueError):
            events.select(np.ones(events.num_events + 1, dtype=bool))

    def test_empty_transport(self, geometry, response):
        """A batch that misses the detector digitizes to zero events."""
        rng = np.random.default_rng(7)
        grb = GRBSource()
        batch = grb.generate(geometry, rng, n_photons=3)
        batch.origins[:] = [500.0, 500.0, 10.0]
        from repro.physics.transport import transport_photons

        transport = transport_photons(
            geometry, batch.origins, batch.directions, batch.energies, rng
        )
        ev = response.digitize(transport, batch, rng)
        assert ev.num_events == 0
        assert ev.num_hits == 0

    def test_min_hits_filter(self, exposure, response):
        rng = np.random.default_rng(8)
        ev1 = response.digitize(exposure.transport, exposure.batch, rng, min_hits=1)
        rng = np.random.default_rng(8)
        ev2 = response.digitize(exposure.transport, exposure.batch, rng, min_hits=2)
        assert ev1.num_events > ev2.num_events
        assert np.all(ev2.hits_per_event() >= 2)

    def test_merge_radius_merges_same_layer_hits(self, geometry):
        """Two same-photon hits 0.5 cm apart in one layer merge into one."""
        from repro.physics.transport import TransportResult
        from repro.sources.grb import PhotonBatch

        resp = DetectorResponse(geometry, ResponseConfig(merge_radius_cm=0.9))
        transport = TransportResult(
            photon_index=np.array([0, 0]),
            order=np.array([0, 1]),
            positions=np.array([[0.0, 0.0, -0.5], [0.5, 0.0, -0.5]]),
            energies=np.array([0.3, 0.4]),
            num_interactions=np.array([2]),
            fate=np.array([2]),
            escaped_energy=np.array([0.0]),
        )
        batch = PhotonBatch(
            origins=np.zeros((1, 3)),
            directions=np.array([[0.0, 0.0, -1.0]]),
            energies=np.array([0.7]),
            times=np.zeros(1),
            labels=np.zeros(1, dtype=np.int64),
        )
        ev = resp.digitize(transport, batch, np.random.default_rng(9), min_hits=1)
        assert ev.num_events == 1
        assert ev.hits_per_event()[0] == 1
        assert ev.true_energies[0] == pytest.approx(0.7)

    def test_distant_hits_not_merged(self, geometry):
        from repro.physics.transport import TransportResult
        from repro.sources.grb import PhotonBatch

        resp = DetectorResponse(geometry)
        transport = TransportResult(
            photon_index=np.array([0, 0]),
            order=np.array([0, 1]),
            positions=np.array([[0.0, 0.0, -0.5], [0.0, 0.0, -12.0]]),
            energies=np.array([0.3, 0.4]),
            num_interactions=np.array([2]),
            fate=np.array([2]),
            escaped_energy=np.array([0.0]),
        )
        batch = PhotonBatch(
            origins=np.zeros((1, 3)),
            directions=np.array([[0.0, 0.0, -1.0]]),
            energies=np.array([0.7]),
            times=np.zeros(1),
            labels=np.zeros(1, dtype=np.int64),
        )
        ev = resp.digitize(transport, batch, np.random.default_rng(10), min_hits=1)
        assert ev.hits_per_event()[0] == 2


class TestPerEventSums:
    """bincount sums equal the np.add.at sums they replaced, bit for bit."""

    def test_sum_per_event_matches_add_at(self, events):
        segment = np.repeat(np.arange(events.num_events), events.hits_per_event())
        for values in (events.energies, events.sigma_energy**2):
            expected = np.zeros(events.num_events)
            np.add.at(expected, segment, values)
            got = events.sum_per_event(values)
            assert got.tobytes() == expected.tobytes()

    def test_sum_per_event_of_empty_set(self):
        from repro.detector.response import _empty_event_set

        events = _empty_event_set(None)
        assert events.sum_per_event(events.energies).shape == (0,)

    def test_merged_hits_match_add_at(self, exposure, response):
        t = exposure.transport
        key = np.lexsort((t.order, t.photon_index))
        ph, pos, edep = t.photon_index[key], t.positions[key], t.energies[key]
        _, _, w_pos, e_sum = response._merge_close_hits(ph, t.order[key], pos, edep)

        layer = response.geometry.layer_index(pos)
        merge = (
            (ph[1:] == ph[:-1])
            & (layer[1:] == layer[:-1])
            & (layer[1:] >= 0)
            & (
                np.linalg.norm(pos[1:] - pos[:-1], axis=1)
                < response.config.merge_radius_cm
            )
        )
        group = np.concatenate([[0], np.cumsum(~merge)])
        expected_e = np.zeros(group[-1] + 1)
        np.add.at(expected_e, group, edep)
        expected_w = np.zeros((group[-1] + 1, 3))
        np.add.at(expected_w, group, pos * edep[:, None])
        expected_w /= expected_e[:, None]

        assert merge.any()
        assert e_sum.tobytes() == expected_e.tobytes()
        assert w_pos.tobytes() == expected_w.tobytes()
