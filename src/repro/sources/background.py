"""Atmospheric MeV background model.

At balloon altitudes the detector sits in a diffuse bath of atmospheric
gamma rays (cosmic diffuse emission from above plus atmospheric/albedo
emission from the sides and below).  The paper's background model [8] is
proprietary simulation output; here we model the background as a power-law
photon flux arriving over a wide range of directions, with its absolute
normalization chosen so that, after reconstruction and filtering, a 1-second
exposure delivers roughly 2--3x as many background Compton rings as a
1 MeV/cm^2 GRB -- the ratio the paper reports entering localization.

Photons are generated on planes perpendicular to each sampled arrival
direction, exactly like the GRB plane-wave generator, so the transport code
sees a uniform illumination of the detector from each direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.tiles import DetectorGeometry
from repro.physics.compton import perpendicular_frame
from repro.physics.spectra import PowerLawSpectrum, Spectrum
from repro.sources.grb import LABEL_BACKGROUND, PhotonBatch, _plane_basis

#: Default background photon flux, photons / cm^2 / s, integrated over
#: arrival directions.  Calibrated (see tests/sources) so the ratio of
#: accepted background:GRB rings entering localization is ~2.5-3:1 for a
#: 1 MeV/cm^2 burst in a 1 s window — the ratio the paper reports.
DEFAULT_BACKGROUND_FLUX: float = 25.0

#: Photons per block of :meth:`BackgroundModel.generate`'s arithmetic.
_BLOCK = 8192


@dataclass
class BackgroundModel:
    """Diffuse background photon generator.

    Attributes:
        flux_per_cm2_s: Direction-integrated photon flux through a plane
            perpendicular to each arrival direction.
        spectrum: Background energy spectrum (default: E^-2 power law).
        cos_polar_min: Arrival directions are sampled with the *source*
            polar angle uniform in cosine between ``cos_polar_min`` and 1
            (zenith).  The default 120-degree cutoff (-0.5) admits
            horizon/albedo photons while excluding straight-up-from-Earth
            arrivals that never produce forward-consistent rings.
        duration_s: Exposure window, s.
    """

    flux_per_cm2_s: float = DEFAULT_BACKGROUND_FLUX
    spectrum: Spectrum = field(default_factory=PowerLawSpectrum)
    cos_polar_min: float = -0.5
    duration_s: float = 1.0

    def __post_init__(self) -> None:
        if self.flux_per_cm2_s < 0:
            raise ValueError("flux must be non-negative")
        if not (-1.0 <= self.cos_polar_min < 1.0):
            raise ValueError("cos_polar_min must be in [-1, 1)")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")

    def expected_photons(self, geometry: DetectorGeometry) -> float:
        """Mean number of background photons crossing the generation plane."""
        side = self._plane_side(geometry)
        return self.flux_per_cm2_s * self.duration_s * side * side

    def _plane_side(self, geometry: DetectorGeometry) -> float:
        diag = np.sqrt((2.0 * geometry.half_size) ** 2 * 2.0 + geometry.height**2)
        return diag * 1.05

    def generate(
        self,
        geometry: DetectorGeometry,
        rng: np.random.Generator,
        n_photons: int | None = None,
    ) -> PhotonBatch:
        """Generate one exposure window of background photons.

        Each photon gets an independent arrival direction: polar cosine
        uniform in ``[cos_polar_min, 1]``, azimuth uniform.  Photons are
        placed on a per-photon plane upstream along their arrival direction.

        Args:
            geometry: Detector geometry.
            rng: Random generator.
            n_photons: Override the Poisson draw (useful in tests).

        Returns:
            A :class:`PhotonBatch` labeled LABEL_BACKGROUND with
            ``source_direction=None``.
        """
        side = self._plane_side(geometry)
        if n_photons is None:
            n_photons = int(rng.poisson(self.expected_photons(geometry)))
        cos_p = rng.uniform(self.cos_polar_min, 1.0, size=n_photons)
        az = rng.uniform(0.0, 2.0 * np.pi, size=n_photons)
        a = rng.uniform(-side / 2.0, side / 2.0, size=n_photons)
        b = rng.uniform(-side / 2.0, side / 2.0, size=n_photons)

        center = (0.0, 0.0, (geometry.z_top + geometry.z_bottom) / 2.0)
        dist = geometry.height + side
        origins = np.empty((n_photons, 3))
        directions = np.empty((n_photons, 3))
        # Element-wise arithmetic, a block of photons at a time so its
        # temporaries stay in cache.
        for start in range(0, n_photons, _BLOCK):
            rows = slice(start, start + _BLOCK)
            cos_r = cos_p[rows]
            sin_r = np.sqrt(np.clip(1.0 - cos_r**2, 0.0, 1.0))
            # Unit vectors from detector toward each photon's origin
            # direction, as (x, y, z) columns; photons travel along -src.
            src = (sin_r * np.cos(az[rows]), sin_r * np.sin(az[rows]), cos_r)
            beam = (-src[0], -src[1], -src[2])
            # Per-photon plane basis against a helper axis chosen per
            # photon to avoid degeneracy: x, or y where the beam is nearly
            # along x.
            h1 = (np.abs(beam[0]) > 0.9).astype(np.float64)
            u, v = perpendicular_frame(beam, (1.0 - h1, h1, np.zeros_like(h1)))
            for k in range(3):
                # center + src * dist + a * u + b * v, left to right.
                column = src[k] * dist
                column += center[k]
                column += a[rows] * u[k]
                column += b[rows] * v[k]
                origins[rows, k] = column
                directions[rows, k] = beam[k]
        energies = self.spectrum.sample(n_photons, rng)
        times = rng.uniform(0.0, self.duration_s, size=n_photons)
        labels = np.full(n_photons, LABEL_BACKGROUND, dtype=np.int64)
        return PhotonBatch(
            origins=origins,
            directions=directions,
            energies=energies,
            times=times,
            labels=labels,
            source_direction=None,
        )


# re-export for type checkers; _plane_basis used by tests
__all__ = ["BackgroundModel", "DEFAULT_BACKGROUND_FLUX", "_plane_basis"]
