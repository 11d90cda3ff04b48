"""Photon energy spectra: the GRB Band function and power laws.

Samplers draw photon energies over a bounded range using inverse-CDF lookup
on a log-spaced grid (exact for the power law, numerically exact to grid
resolution for the Band function).  Energies are in MeV throughout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.constants import BAND_BETA, MIN_PHOTON_ENERGY_MEV

#: Distinct spectra whose tables are kept (64 KiB each); a burst
#: catalog draws a new spectrum per burst, a campaign one per run.
TABLE_CACHE_SIZE = 64


class Spectrum:
    """Base class for photon-number spectra N(E) (photons / MeV, unnormalized).

    Subclasses are frozen dataclasses: a spectrum's shape cannot change
    after construction, and equal spectra hash alike, so the default
    :meth:`sample` and :meth:`mean_energy` compute their grids once per
    distinct spectrum.
    """

    e_min: float
    e_max: float

    def pdf_unnormalized(self, energy: np.ndarray) -> np.ndarray:
        """Relative photon-number density at the given energies."""
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` photon energies from the spectrum.

        Default implementation: inverse CDF on a log-spaced grid
        (:func:`_inverse_cdf`, built once per distinct spectrum).
        """
        grid, cdf = _inverse_cdf(self)
        u = rng.uniform(0.0, 1.0, size=n)
        return np.interp(u, cdf, grid)

    def mean_energy(self) -> float:
        """Mean photon energy <E> of the spectrum, MeV."""
        return _mean_energy(self)


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _inverse_cdf(spectrum: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(grid, cdf)`` of a 4096-point log grid: the spectrum's
    trapezoidal CDF, normalized to 1."""
    grid = np.geomspace(spectrum.e_min, spectrum.e_max, 4096)
    pdf = spectrum.pdf_unnormalized(grid)
    dcdf = 0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid)
    cdf = np.concatenate([[0.0], np.cumsum(dcdf)])
    cdf /= cdf[-1]
    grid.flags.writeable = False
    cdf.flags.writeable = False
    return grid, cdf


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _mean_energy(spectrum: Spectrum) -> float:
    """Mean photon energy of the spectrum on an 8192-point log grid."""
    grid = np.geomspace(spectrum.e_min, spectrum.e_max, 8192)
    pdf = spectrum.pdf_unnormalized(grid)
    norm = max(np.trapezoid(pdf, grid), np.finfo(np.float64).tiny)
    return float(np.trapezoid(grid * pdf, grid) / norm)


@dataclass(frozen=True)
class PowerLawSpectrum(Spectrum):
    """``N(E) ~ E^index`` between ``e_min`` and ``e_max``.

    The default index of -2.0 approximates the diffuse atmospheric MeV
    gamma-ray background at balloon altitudes.
    """

    index: float = -2.0
    e_min: float = MIN_PHOTON_ENERGY_MEV
    e_max: float = 30.0

    def __post_init__(self) -> None:
        if not (0 < self.e_min < self.e_max):
            raise ValueError("require 0 < e_min < e_max")

    def pdf_unnormalized(self, energy: np.ndarray) -> np.ndarray:
        energy = np.asarray(energy, dtype=np.float64)
        return np.power(energy, self.index)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Exact inverse-CDF sampling for the power law."""
        u = rng.uniform(0.0, 1.0, size=n)
        g = self.index + 1.0
        if abs(g) < 1e-12:
            # N(E) ~ 1/E: log-uniform.
            return self.e_min * np.exp(u * np.log(self.e_max / self.e_min))  # reprolint: disable=NUM001,NUM002 -- __post_init__ enforces 0 < e_min < e_max
        lo = self.e_min**g
        hi = self.e_max**g
        return np.power(lo + u * (hi - lo), 1.0 / g)


@dataclass(frozen=True)
class BandSpectrum(Spectrum):
    """The Band GRB spectral function.

    ``N(E) ~ E^alpha exp(-E/E0)`` below the break and ``~ E^beta`` above,
    joined smoothly at ``E_break = (alpha - beta) E0``.  The paper fixes
    ``beta = -2.35`` (Section IV footnote) and simulates down to 30 keV.

    Attributes:
        alpha: Low-energy photon index (typical short-GRB value -0.5).
        beta: High-energy photon index.
        e_peak: ``nu F_nu`` peak energy, MeV; ``E0 = e_peak / (2 + alpha)``.
        e_min: Minimum sampled energy, MeV.
        e_max: Maximum sampled energy, MeV.
    """

    alpha: float = -0.5
    beta: float = BAND_BETA
    e_peak: float = 0.5
    e_min: float = MIN_PHOTON_ENERGY_MEV
    e_max: float = 30.0
    _e0: float = field(init=False, repr=False)
    _e_break: float = field(init=False, repr=False)
    _join: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.alpha <= self.beta:
            raise ValueError("Band function requires alpha > beta")
        if self.e_peak <= 0 or self.alpha <= -2.0:
            raise ValueError("require e_peak > 0 and alpha > -2")
        if not (0 < self.e_min < self.e_max):
            raise ValueError("require 0 < e_min < e_max")
        e0 = self.e_peak / (2.0 + self.alpha)
        e_break = (self.alpha - self.beta) * e0
        # Continuity constant for the high-energy branch.
        join = e_break ** (self.alpha - self.beta) * np.exp(self.beta - self.alpha)
        object.__setattr__(self, "_e0", e0)
        object.__setattr__(self, "_e_break", e_break)
        object.__setattr__(self, "_join", join)

    def pdf_unnormalized(self, energy: np.ndarray) -> np.ndarray:
        energy = np.asarray(energy, dtype=np.float64)
        low = np.power(energy, self.alpha) * np.exp(-energy / self._e0)  # reprolint: disable=NUM002 -- _e0 > 0: __post_init__ enforces e_peak > 0, alpha > -2
        high = self._join * np.power(energy, self.beta)
        return np.where(energy < self._e_break, low, high)
