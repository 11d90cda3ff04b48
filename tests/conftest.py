"""Shared fixtures for the test suite.

Expensive artifacts (a simulated exposure, digitized events, reconstructed
rings, small trained networks) are session-scoped so the many tests that
need realistic inputs pay for them once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detector.response import DetectorResponse
from repro.geometry.tiles import adapt_geometry
from repro.localization.pipeline import prepare_rings
from repro.sources.background import BackgroundModel
from repro.sources.exposure import simulate_exposure
from repro.sources.grb import GRBSource


@pytest.fixture(scope="session")
def geometry():
    return adapt_geometry()


@pytest.fixture(scope="session")
def response(geometry):
    return DetectorResponse(geometry)


@pytest.fixture(scope="session")
def exposure(geometry):
    """One standard exposure: 1 MeV/cm^2 burst at polar 20 + background."""
    rng = np.random.default_rng(1234)
    grb = GRBSource(fluence_mev_cm2=1.0, polar_angle_deg=20.0, azimuth_deg=40.0)
    return simulate_exposure(geometry, rng, grb, BackgroundModel())


@pytest.fixture(scope="session")
def events(exposure, response):
    rng = np.random.default_rng(99)
    return response.digitize(exposure.transport, exposure.batch, rng, min_hits=2)


@pytest.fixture(scope="session")
def rings(events):
    return prepare_rings(events)


@pytest.fixture(scope="session")
def alert_pool(geometry, response):
    """16 alert-recipe exposures: 0.6 MeV/cm^2 at polar 30, random azimuth.

    The recipe of the ``alert_skymap`` benchmark pool (default
    atmospheric background, one generator per exposure), as
    ``(events, rings)`` pairs.
    """
    pool = []
    for k in range(16):
        rng = np.random.default_rng([2024, 1, k])
        grb = GRBSource(
            fluence_mev_cm2=0.6,
            polar_angle_deg=30.0,
            azimuth_deg=float(rng.uniform(0.0, 360.0)),
        )
        exposure = simulate_exposure(geometry, rng, grb, BackgroundModel())
        events = response.digitize(
            exposure.transport, exposure.batch, rng, min_hits=2
        )
        pool.append((events, prepare_rings(events)))
    return pool


@pytest.fixture(scope="session")
def training_data(geometry, response):
    """A small training campaign (3 angles, few exposures) for model tests."""
    from repro.experiments.datasets import generate_training_rings

    return generate_training_rings(
        geometry,
        response,
        seed=77,
        polar_angles_deg=np.array([0.0, 40.0, 80.0]),
        exposures_per_angle=3,
    )


@pytest.fixture(scope="session")
def tiny_models(training_data):
    """Small trained networks (reduced widths/epochs) for pipeline tests."""
    from repro.experiments.modelzoo import train_models
    from repro.models.background import BackgroundTrainConfig
    from repro.models.deta import DEtaTrainConfig, train_deta_net
    from repro.models.background import train_background_net
    from repro.pipeline.ml_pipeline import MLPipeline
    from repro.sources.grb import LABEL_BACKGROUND

    rng = np.random.default_rng(5)
    data = training_data
    bnet = train_background_net(
        data.features,
        (data.labels == LABEL_BACKGROUND).astype(float),
        data.polar_true,
        rng,
        config=BackgroundTrainConfig(
            hidden_widths=(32, 16), max_epochs=25, patience=8
        ),
    )
    grb = data.grb_only()
    dnet = train_deta_net(
        grb.features,
        grb.true_eta_errors,
        rng,
        config=DEtaTrainConfig(hidden_widths=(8, 8), max_epochs=25, patience=8),
    )
    return MLPipeline(background_net=bnet, deta_net=dnet)
