"""Tests for exposure assembly."""

import tracemalloc

import numpy as np
import pytest

import repro.sources.exposure as exposure_module
from repro.geometry.tiles import adapt_geometry, apt_geometry
from repro.physics.transport import transport_photons
from repro.sources.background import BackgroundModel
from repro.sources.exposure import simulate_exposure
from repro.sources.grb import GRBSource, LABEL_BACKGROUND, LABEL_GRB, PhotonBatch
from tests.physics.test_transport import RESULT_FIELDS

BATCH_FIELDS = ("origins", "directions", "energies", "times", "labels")


def batch_nbytes(batch):
    """Bytes held by a batch's per-photon arrays."""
    return sum(getattr(batch, name).nbytes for name in BATCH_FIELDS)


def _window(window):
    """``(geometry, grb, background)`` of one exposure recipe."""
    if window == "apt":
        return (
            apt_geometry(),
            GRBSource(fluence_mev_cm2=0.2, polar_angle_deg=20.0, azimuth_deg=70.0),
            BackgroundModel(flux_per_cm2_s=1.0, cos_polar_min=0.0),
        )
    grb = GRBSource(fluence_mev_cm2=1.2, polar_angle_deg=30.0, azimuth_deg=15.0)
    background = BackgroundModel()
    if window == "grb_only":
        background = None
    elif window == "background_only":
        grb = None
    return adapt_geometry(), grb, background


class TestSimulateExposure:
    def test_requires_a_source(self, geometry):
        with pytest.raises(ValueError):
            simulate_exposure(geometry, np.random.default_rng(0))

    def test_grb_only(self, geometry):
        rng = np.random.default_rng(1)
        exp = simulate_exposure(geometry, rng, grb=GRBSource())
        assert np.all(exp.batch.labels == LABEL_GRB)
        assert exp.source_direction is not None

    def test_background_only(self, geometry):
        rng = np.random.default_rng(2)
        exp = simulate_exposure(geometry, rng, background=BackgroundModel())
        assert np.all(exp.batch.labels == LABEL_BACKGROUND)
        assert exp.source_direction is None

    def test_combined_labels_ordered(self, geometry):
        rng = np.random.default_rng(3)
        exp = simulate_exposure(
            geometry, rng, grb=GRBSource(), background=BackgroundModel()
        )
        labels = exp.batch.labels
        # GRB photons first, then background.
        first_bkg = np.argmax(labels == LABEL_BACKGROUND)
        assert np.all(labels[:first_bkg] == LABEL_GRB)
        assert np.all(labels[first_bkg:] == LABEL_BACKGROUND)

    def test_hit_labels_consistent(self, exposure):
        hit_labels = exposure.hit_labels()
        assert hit_labels.shape[0] == exposure.transport.num_hits
        expected = exposure.batch.labels[exposure.transport.photon_index]
        assert np.array_equal(hit_labels, expected)

    def test_transport_covers_batch(self, exposure):
        assert exposure.transport.num_photons == exposure.batch.num_photons


class TestOneBatch:
    """Sources write one batch, which is the concatenation a replay builds."""

    @pytest.mark.parametrize(
        "window", ["adapt", "apt", "grb_only", "background_only"]
    )
    def test_matches_concatenated_sources(self, window):
        geometry, grb, background = _window(window)
        rng = np.random.default_rng([24, 1])
        got = simulate_exposure(geometry, rng, grb, background)

        ref_rng = np.random.default_rng([24, 1])
        batches = [
            source.generate(geometry, ref_rng)
            for source in (grb, background)
            if source is not None
        ]
        want = PhotonBatch.concatenate(batches)
        ref_transport = transport_photons(
            geometry, want.origins, want.directions, want.energies, ref_rng
        )
        for name in BATCH_FIELDS:
            a, b = getattr(got.batch, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        if grb is None:
            assert got.source_direction is None
        else:
            np.testing.assert_array_equal(got.source_direction, grb.source_direction)
        for name in RESULT_FIELDS:
            a, b = getattr(got.transport, name), getattr(ref_transport, name)
            assert a.tobytes() == b.tobytes(), name
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_transport_entered_with_one_batch_live(self, monkeypatch):
        """Fig. 9 recipe: only the exposure's batch is live at transport."""
        geometry, grb, background = _window("adapt")
        live_at_entry = []

        def recording_transport(*args, **kwargs):
            live_at_entry.append(tracemalloc.get_traced_memory()[0])
            return transport_photons(*args, **kwargs)

        monkeypatch.setattr(exposure_module, "transport_photons", recording_transport)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            exposure = simulate_exposure(
                geometry, np.random.default_rng([2024, 24]), grb, background
            )
        finally:
            tracemalloc.stop()
        live = live_at_entry[0] - base
        # Holding the source batches beside their concatenation read 2.0x.
        assert live <= 1.05 * batch_nbytes(exposure.batch)
