"""Exposure assembly: one observation window of GRB + background photons.

``simulate_exposure`` is the single entry point the experiment harness uses
to produce raw detector truth for one trial: it generates one photon
batch (burst rows first, then background), transports it through the
geometry, and returns everything the detector-response and reconstruction
stages need, with ground truth attached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.tiles import DetectorGeometry
from repro.obs import trace as obs_trace
from repro.physics.transport import TransportResult, transport_photons
from repro.sources.background import BackgroundModel
from repro.sources.grb import GRBSource, PhotonBatch


@dataclass
class Exposure:
    """Everything produced by one observation window.

    Attributes:
        batch: The combined primary-photon batch (GRB first, then
            background), with labels and the true source direction.
        transport: Interaction record from the Monte Carlo.
        geometry: The detector geometry used.
    """

    batch: PhotonBatch
    transport: TransportResult
    geometry: DetectorGeometry

    @property
    def source_direction(self) -> np.ndarray | None:
        return self.batch.source_direction

    def hit_labels(self) -> np.ndarray:
        """Per-hit truth label (LABEL_GRB / LABEL_BACKGROUND)."""
        return self.batch.labels[self.transport.photon_index]


def simulate_exposure(
    geometry: DetectorGeometry,
    rng: np.random.Generator,
    grb: GRBSource | None = None,
    background: BackgroundModel | None = None,
) -> Exposure:
    """Simulate one exposure window.

    Args:
        geometry: Detector geometry.
        rng: Random generator for this trial.
        grb: The burst source, or None for a background-only window.
        background: The background model, or None for a source-only window.

    Returns:
        An :class:`Exposure` with combined transport results and truth.

    Raises:
        ValueError: If both sources are None.
    """
    if grb is None and background is None:
        raise ValueError("at least one of grb/background must be provided")
    with obs_trace.span("sources.generate"):
        batch = None if grb is None else grb.generate(geometry, rng)
        if background is not None:
            # The background fills the rows after the burst's, in arrays
            # allocated once for both: the photons exist once, and the
            # burst's own batch is dropped before transport.
            batch = background._generate_after(batch, geometry, rng)
    transport = transport_photons(
        geometry, batch.origins, batch.directions, batch.energies, rng
    )
    return Exposure(batch=batch, transport=transport, geometry=geometry)
