"""Workload inputs: instruments, the small trained networks, exposure pools.

Everything is a pure function of its seed.  The APT flight response and
L2 background are the values the APT sensitivity study uses; the network
recipe is the small test-sized one, so training takes seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detector.response import DetectorResponse, EventSet, ResponseConfig
from repro.geometry.tiles import adapt_geometry, apt_geometry
from repro.sources.background import BackgroundModel
from repro.sources.exposure import simulate_exposure
from repro.sources.grb import GRBSource

#: APT flight-model readout (better light collection, smaller tails).
APT_RESPONSE = ResponseConfig(
    pe_per_mev=2000.0, tail_probability=0.05, nonuniformity_amplitude=0.03
)
#: At L2 only the weak cosmic diffuse flux from the sky hemisphere remains.
APT_BACKGROUND = BackgroundModel(flux_per_cm2_s=1.0, cos_polar_min=0.0)


def instrument(name: str):
    """``(geometry, response, background)`` of ``"adapt"`` or ``"apt"``.

    ``background`` is None for the default atmospheric model.
    """
    if name == "adapt":
        geometry = adapt_geometry()
        return geometry, DetectorResponse(geometry), None
    if name == "apt":
        geometry = apt_geometry()
        return geometry, DetectorResponse(geometry, APT_RESPONSE), APT_BACKGROUND
    raise ValueError(f"unknown instrument {name!r}")


def small_pipeline(geometry, response):
    """Train the small background and dEta networks (fixed seeds)."""
    from repro.experiments.datasets import generate_training_rings
    from repro.models.background import BackgroundTrainConfig, train_background_net
    from repro.models.deta import DEtaTrainConfig, train_deta_net
    from repro.pipeline.ml_pipeline import MLPipeline
    from repro.sources.grb import LABEL_BACKGROUND

    data = generate_training_rings(
        geometry,
        response,
        seed=77,
        polar_angles_deg=np.array([0.0, 40.0, 80.0]),
        exposures_per_angle=3,
    )
    rng = np.random.default_rng(5)
    bnet = train_background_net(
        data.features,
        (data.labels == LABEL_BACKGROUND).astype(float),
        data.polar_true,
        rng,
        config=BackgroundTrainConfig(hidden_widths=(32, 16), max_epochs=25, patience=8),
    )
    grb = data.grb_only()
    dnet = train_deta_net(
        grb.features,
        grb.true_eta_errors,
        rng,
        config=DEtaTrainConfig(hidden_widths=(8, 8), max_epochs=25, patience=8),
    )
    return MLPipeline(background_net=bnet, deta_net=dnet)


@dataclass(frozen=True)
class Exposure:
    """One pre-simulated alert input and the true source direction."""

    events: EventSet
    source_direction: np.ndarray


def exposure_pool(
    geometry, response, seed: int, n: int, fluence: float = 0.6, polar_deg: float = 30.0
) -> list[Exposure]:
    """``n`` digitized exposures of a burst at a random azimuth each."""
    pool = []
    for k in range(n):
        rng = np.random.default_rng([seed, 1, k])
        grb = GRBSource(
            fluence_mev_cm2=fluence,
            polar_angle_deg=polar_deg,
            azimuth_deg=float(rng.uniform(0.0, 360.0)),
        )
        exposure = simulate_exposure(geometry, rng, grb, BackgroundModel())
        events = response.digitize(exposure.transport, exposure.batch, rng, min_hits=2)
        pool.append(Exposure(events, grb.source_direction))
    return pool


def op_rng(seed: int, stream: int, k: int) -> np.random.Generator:
    """The generator of operation ``k`` in ``stream`` (alerts, requests...)."""
    return np.random.default_rng([seed, stream, k])
