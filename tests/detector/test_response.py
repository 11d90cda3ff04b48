"""Tests for the detector response / digitization chain."""

import dataclasses
import functools

import numpy as np
import pytest

from repro.detector.response import DetectorResponse, ResponseConfig
from repro.geometry.fibers import FiberGrid
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
        _, w_pos, e_sum = response._merge_close_hits(t, key)

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


EVENT_FIELDS = (
    "event_offsets",
    "positions",
    "energies",
    "sigma_energy",
    "sigma_position",
    "true_positions",
    "true_energies",
    "true_order",
    "photon_index",
    "labels",
    "photon_energy",
)


def _instrument(name, sipm=False):
    """Geometry, response and background of the bench's two instruments."""
    from repro.detector.sipm import SiPMModel
    from repro.geometry.tiles import adapt_geometry, apt_geometry

    if name == "adapt":
        geometry, config, background = adapt_geometry(), ResponseConfig(), BackgroundModel()
    else:
        geometry = apt_geometry()
        config = ResponseConfig(
            pe_per_mev=2000.0, tail_probability=0.05, nonuniformity_amplitude=0.03
        )
        background = BackgroundModel(flux_per_cm2_s=1.0, cos_polar_min=0.0)
    if sipm:
        config = dataclasses.replace(config, sipm=SiPMModel())
    return geometry, DetectorResponse(geometry, config), background


@functools.lru_cache(maxsize=None)
def _seeded_exposure(name, k):
    """Bench-recipe exposure ``k`` of an instrument (built once)."""
    geometry, _, background = _instrument(name)
    rng = np.random.default_rng([2024, 19, k])
    grb = GRBSource(
        fluence_mev_cm2=(0.3, 1.2)[k] if name == "adapt" else (0.05, 0.3)[k],
        polar_angle_deg=30.0 if name == "adapt" else 20.0,
        azimuth_deg=float(rng.uniform(0.0, 360.0)),
    )
    return simulate_exposure(geometry, rng, grb, background)


def _assert_same_digitize(response, transport, batch, seed, **kw):
    """Production digitize == the measure-every-hit oracle, bits and stream."""
    from tests.physics.frontend_oracle import digitize_oracle

    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = response.digitize(transport, batch, rng_new, **kw)
    want = digitize_oracle(response, transport, batch, rng_ref, **kw)
    for name in EVENT_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.source_direction is want.source_direction
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return got


def _hand_built(photon_index, order, positions, energies):
    from repro.physics.transport import TransportResult
    from repro.sources.grb import PhotonBatch

    photon_index = np.asarray(photon_index, dtype=np.int64)
    n = int(photon_index.max()) + 1 if photon_index.size else 1
    transport = TransportResult(
        photon_index=photon_index,
        order=np.asarray(order, dtype=np.int64),
        positions=np.asarray(positions, dtype=np.float64).reshape(-1, 3),
        energies=np.asarray(energies, dtype=np.float64),
        num_interactions=np.bincount(photon_index, minlength=n),
        fate=np.full(n, 2),
        escaped_energy=np.zeros(n),
    )
    batch = PhotonBatch(
        origins=np.zeros((n, 3)),
        directions=np.tile([0.0, 0.0, -1.0], (n, 1)),
        energies=np.linspace(0.5, 2.0, n),
        times=np.zeros(n),
        labels=np.arange(n, dtype=np.int64) % 2,
        source_direction=np.array([0.0, 0.0, 1.0]),
    )
    return transport, batch


class TestDigitizeOracle:
    """Measuring only hits that can form an event changes no bit."""

    @pytest.mark.parametrize("min_hits", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("sipm", [False, True], ids=["poisson", "sipm"])
    @pytest.mark.parametrize("name", ["adapt", "apt"])
    def test_seeded_exposures(self, name, sipm, k, min_hits):
        exposure = _seeded_exposure(name, k)
        _, response, _ = _instrument(name, sipm=sipm)
        events = _assert_same_digitize(
            response, exposure.transport, exposure.batch, [k, min_hits], min_hits=min_hits
        )
        assert events.num_events > 0

    def test_max_hits_and_impossible_min_hits(self):
        exposure = _seeded_exposure("adapt", 1)
        _, response, _ = _instrument("adapt")
        for kw in ({"min_hits": 2, "max_hits": 2}, {"min_hits": 9}, {"min_hits": 0}):
            _assert_same_digitize(response, exposure.transport, exposure.batch, 4, **kw)

    def test_empty_transport(self, geometry, response):
        transport, batch = _hand_built([], [], np.empty((0, 3)), [])
        events = _assert_same_digitize(response, transport, batch, 5, min_hits=2)
        assert events.num_events == 0

    @pytest.mark.parametrize("min_hits", [1, 2])
    def test_all_single_hit(self, response, min_hits):
        rng = np.random.default_rng(6)
        n = 300
        positions = np.stack(
            [rng.uniform(-19, 19, n), rng.uniform(-19, 19, n), np.full(n, -0.7)], axis=1
        )
        transport, batch = _hand_built(
            np.arange(n), np.zeros(n), positions, rng.uniform(0.02, 1.0, n)
        )
        events = _assert_same_digitize(response, transport, batch, 7, min_hits=min_hits)
        if min_hits == 2:
            assert events.num_events == 0
        else:
            assert events.num_events > 0

    @pytest.mark.parametrize("min_hits", [1, 2, 3])
    def test_merge_cases(self, response, min_hits):
        """A three-hit chain merging into one, a close pair split across
        layers, a pair in a gap, a distant same-layer pair, hits below
        threshold and out of the stack, given out of (photon, order) order."""
        hits = [
            # photon 0: three hits within 0.9 cm in layer 0 -> one hit
            (0, 0, [0.0, 0.0, -0.5], 0.3),
            (0, 1, [0.4, 0.0, -0.6], 0.2),
            (0, 2, [0.8, 0.0, -0.7], 0.1),
            # photon 1: close in x/y but in layers 0 and 1 -> two hits
            (1, 0, [1.0, 1.0, -1.5], 0.4),
            (1, 1, [1.0, 1.0, -11.5], 0.5),
            (1, 2, [5.0, 5.0, -24.0], 0.3),
            # photon 2: a close pair in the gap (no layer) and one far hit
            (2, 0, [2.0, 2.0, -5.0], 0.2),
            (2, 1, [2.1, 2.0, -5.0], 0.2),
            (2, 2, [-8.0, 3.0, -12.0], 0.6),
            # photon 3: same layer, far apart; plus a sub-threshold hit
            (3, 0, [-10.0, -10.0, -0.5], 0.5),
            (3, 1, [10.0, 10.0, -0.5], 0.45),
            (3, 2, [0.0, 0.0, -13.0], 0.001),
            # photon 4: outside the tiles laterally, and a lone hit
            (4, 0, [30.0, 0.0, -0.5], 0.3),
            (4, 1, [30.5, 0.0, -0.5], 0.3),
            (5, 0, [0.0, 0.0, -36.0], 0.7),
        ]
        shuffle = np.random.default_rng(8).permutation(len(hits))
        ph, order, pos, edep = (np.array([hits[i][j] for i in shuffle]) for j in range(4))
        transport, batch = _hand_built(ph, order, np.stack(pos), edep)
        events = _assert_same_digitize(response, transport, batch, 9, min_hits=min_hits)
        assert events.num_events > 0
        if min_hits == 1:
            # Photon 0's three-hit chain merged into one hit.
            assert events.photon_index[0] == 0
            assert events.hits_per_event()[0] == 1

    def test_merge_matches_oracle(self, exposure, response):
        from tests.physics.frontend_oracle import merge_close_hits_oracle

        t = exposure.transport
        key = np.lexsort((t.order, t.photon_index))
        args = (t.photon_index[key], t.order[key], t.positions[key], t.energies[key])
        first, w_pos, e_sum = response._merge_close_hits(t, key)
        got = (t.photon_index[first], t.order[first], w_pos, e_sum)
        want = merge_close_hits_oracle(response, *args)
        assert got[0].size < args[0].size
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_measure_position_and_energy_match_oracle(self, exposure, response):
        from tests.physics.frontend_oracle import (
            measure_energy_oracle,
            measure_position_oracle,
        )

        t = exposure.transport
        for got_fn, want_fn, args in (
            (response.measure_position, measure_position_oracle, (t.positions,)),
            (response.measure_energy, measure_energy_oracle, (t.energies, t.positions)),
        ):
            rng_new, rng_ref = np.random.default_rng(10), np.random.default_rng(10)
            got = got_fn(*args, rng_new)
            want = want_fn(response, *args, rng_ref)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def _chain_hits(groups, rng):
    """Hand-built hits: ``groups[p]`` lists photon ``p``'s merge groups by
    size.  A group's hits lie 0.4 cm apart in layer 0, so they merge;
    groups lie 6 cm apart, so they do not.  Every hit stays on the tile."""
    ph, order, pos, edep = [], [], [], []
    for p, sizes in enumerate(groups):
        x, y = rng.uniform(-17.0, -15.0), rng.uniform(-15.0, 15.0)
        j = 0
        for size in sizes:
            for _ in range(size):
                ph.append(p)
                order.append(j)
                pos.append([x, y + rng.uniform(-0.05, 0.05), rng.uniform(-0.8, -0.7)])
                edep.append(rng.uniform(0.01, 1.5))
                x += 0.4
                j += 1
            x += 6.0
    return ph, order, np.array(pos), np.array(edep)


def _assert_merge_matches_oracle(response, transport):
    from tests.physics.frontend_oracle import merge_close_hits_oracle

    t = transport
    key = np.lexsort((t.order, t.photon_index))
    args = (t.photon_index[key], t.order[key], t.positions[key], t.energies[key])
    first, w_pos, e_sum = response._merge_close_hits(t, key)
    want = merge_close_hits_oracle(response, *args)
    got = (t.photon_index[first], t.order[first], w_pos, e_sum)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    return got


class TestMergeOnlyMergingHits:
    """Sums formed from each group's first hit, plus only the hits that
    merge, equal the full-length bincount sums bit for bit."""

    def test_groups_of_every_size(self, response):
        rng = np.random.default_rng(31)
        groups = [[1], [2], [3], [4], [7], [2, 1, 3], [1, 1], [5, 2]] * 20
        ph, order, pos, edep = _chain_hits(groups, rng)
        shuffle = rng.permutation(len(ph))
        transport, batch = _hand_built(
            np.array(ph)[shuffle], np.array(order)[shuffle], pos[shuffle], edep[shuffle]
        )
        got = _assert_merge_matches_oracle(response, transport)
        np.testing.assert_array_equal(
            got[0], np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        )
        _assert_same_digitize(response, transport, batch, 32, min_hits=1)

    def test_signed_zeros_and_a_zero_energy_group(self, response):
        hits = [
            # A singleton at -0.0, -0.0: 0.0 + x * e turns both into +0.0.
            (0, 0, [-0.0, -0.0, -0.7], 0.4),
            # A merging pair with -0.0 coordinates and energies.
            (1, 0, [-0.0, 3.0, -0.7], 0.3),
            (1, 1, [-0.0, 3.2, -0.8], -0.0),
            # A zero-energy group: 0 / 0 positions, as bincount gives.
            (2, 0, [5.0, 5.0, -0.5], 0.0),
            (2, 1, [5.3, 5.0, -0.5], 0.0),
            # A -0.0 energy singleton.
            (3, 0, [-4.0, -0.0, -0.6], -0.0),
            # A three-hit chain with a -0.0 in the middle.
            (4, 0, [-8.0, -8.0, -0.4], 0.2),
            (4, 1, [-8.4, -8.0, -0.4], -0.0),
            (4, 2, [-8.8, -8.0, -0.4], 0.1),
        ]
        ph, order, pos, edep = (np.array([h[j] for h in hits]) for j in range(4))
        transport, _ = _hand_built(ph, order, np.stack(pos), edep)
        got = _assert_merge_matches_oracle(response, transport)
        w_pos, e_sum = got[2], got[3]
        assert np.signbit(w_pos[0, :2]).tolist() == [False, False]
        assert np.isnan(w_pos[2]).all() and e_sum[2] == 0.0
        assert np.signbit(e_sum[3]) == False  # noqa: E712

    def test_no_merges(self, exposure, response):
        import dataclasses

        no_merge = DetectorResponse(
            response.geometry, dataclasses.replace(response.config, merge_radius_cm=0.0)
        )
        got = _assert_merge_matches_oracle(no_merge, exposure.transport)
        assert got[0].size == exposure.transport.num_hits
        _assert_same_digitize(no_merge, exposure.transport, exposure.batch, 33, min_hits=2)

    @pytest.mark.parametrize("name", ["adapt", "apt"])
    def test_seeded_exposures(self, name):
        exposure = _seeded_exposure(name, 1)
        _, response, _ = _instrument(name)
        got = _assert_merge_matches_oracle(response, exposure.transport)
        assert got[0].size < exposure.transport.num_hits


class TestFiberGridSizing:
    """The default fiber grid spans the geometry's tiles."""

    def test_apt_grid_covers_the_apt_tile(self):
        from repro.geometry.tiles import apt_geometry

        response = DetectorResponse(apt_geometry())
        assert response.fiber_grid.half_size_cm == 50.0
        assert response.fiber_grid.pitch_cm == FiberGrid().pitch_cm

    def test_adapt_default_is_unchanged(self, geometry):
        assert DetectorResponse(geometry).fiber_grid == FiberGrid()

    @pytest.mark.parametrize("name", ["adapt", "apt"])
    def test_quantization_error_bounded_across_the_tile(self, name):
        """Within pitch/2 wherever a fiber covers, and within pitch/2 plus
        the uncovered remainder strip at the + edge (the tile width is not
        a whole number of pitches); a ±20 cm grid on APT was off by up to
        30 cm."""
        geometry, response, _ = _instrument(name)
        grid = response.fiber_grid
        half = geometry.half_size
        x = np.concatenate(
            [np.linspace(-half, half, 200001), [-half, half, 0.0, -0.0]]
        )
        error = np.abs(grid.quantize(x) - x)
        covered_to = -half + grid.num_fibers * grid.pitch_cm
        remainder = 2.0 * half - grid.num_fibers * grid.pitch_cm
        assert error[x <= covered_to].max() <= grid.pitch_cm / 2 + 1e-12
        assert error.max() <= grid.pitch_cm / 2 + remainder + 1e-12
        if name == "apt":
            old = np.abs(FiberGrid().quantize(x) - x)
            assert old.max() > 29.0

    def test_mismatched_grid_rejected(self, geometry):
        from repro.geometry.tiles import apt_geometry

        with pytest.raises(ValueError, match="half-size"):
            DetectorResponse(apt_geometry(), fiber_grid=FiberGrid())
        with pytest.raises(ValueError, match="half-size"):
            DetectorResponse(geometry, fiber_grid=FiberGrid(half_size_cm=50.0))
        explicit = FiberGrid(pitch_cm=0.5, half_size_cm=geometry.half_size)
        assert DetectorResponse(geometry, fiber_grid=explicit).fiber_grid is explicit

    def test_grid_cannot_be_reassigned(self, geometry):
        """Frozen: a grid swapped in after construction would skip the
        half-size check."""
        import dataclasses

        response = DetectorResponse(geometry)
        with pytest.raises(dataclasses.FrozenInstanceError):
            response.fiber_grid = FiberGrid(half_size_cm=50.0)

    def test_cache_token_moves_on_apt_only(self, geometry):
        """Stage-cache tokens hash the response's fields: APT's change with
        its grid, ADAPT's equal those of an explicit ±20 cm grid."""
        import copy

        from repro.geometry.tiles import apt_geometry
        from repro.parallel import config_token

        for geo, moves in ((apt_geometry(), True), (geometry, False)):
            response = DetectorResponse(geo)
            old_grid = copy.copy(response)
            object.__setattr__(old_grid, "fiber_grid", FiberGrid())
            token = config_token(7, 8, geo, response)
            assert (token != config_token(7, 8, geo, old_grid)) == moves
