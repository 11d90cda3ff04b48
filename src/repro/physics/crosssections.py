"""Photon interaction cross sections / linear attenuation coefficients.

Three channels matter in ADAPT's 0.03--30 MeV band:

* **Compton scattering** — exact total Klein--Nishina cross section per
  electron, scaled by the material's electron density.
* **Photoelectric absorption** — power-law parameterization
  ``mu_pe = rho * pe_coeff * E^-pe_index`` (dominant below ~0.3 MeV in CsI).
* **Pair production** — logarithmic ramp above the 2 m_e threshold; treated
  as full local absorption by the transport code (a deliberate
  simplification documented in DESIGN.md: the e+/e- pair ranges out within
  a tile at these energies and escaping 511 keV annihilation photons are
  neglected).

All ``mu`` functions return linear attenuation coefficients in 1/cm and are
vectorized over energy.
"""

from __future__ import annotations

import numpy as np

from repro.constants import (
    CLASSICAL_ELECTRON_RADIUS_CM,
    ELECTRON_MASS_MEV,
    Material,
)

_ME = ELECTRON_MASS_MEV
#: Pair-production threshold, MeV.
PAIR_THRESHOLD_MEV: float = 2.0 * _ME

#: Empirical pair-production scale for the logarithmic ramp, cm^2/g per
#: unit Z_eff^2/A_eff.  Chosen so CsI's pair mu/rho reaches ~0.02 cm^2/g at
#: 10 MeV, matching NIST XCOM within a factor ~1.5 across 2-30 MeV.
_PAIR_COEFF: float = 9.2e-4

#: Floor on the reduced energy ``k = E / m_e c^2``.  A no-op for any
#: physical photon (k ~ 2e-7 already at 0.1 keV); keeps the closed-form
#: Klein--Nishina expression finite if a zero-energy row sneaks in.
_K_FLOOR: float = 1e-30


def klein_nishina_total(energy: np.ndarray) -> np.ndarray:
    """Total Klein--Nishina cross section per electron, cm^2.

    Standard closed form in terms of ``k = E / m_e c^2``:

    ``sigma = 2 pi r_e^2 [ (1+k)/k^2 (2(1+k)/(1+2k) - ln(1+2k)/k)
    + ln(1+2k)/(2k) - (1+3k)/(1+2k)^2 ]``
    """
    energy = np.asarray(energy, dtype=np.float64)
    k = np.maximum(energy / _ME, _K_FLOOR)
    # Repeated subexpressions formed once, from the same operands.
    two_k = 2.0 * k
    one_k = 1.0 + k
    one_2k = 1.0 + two_k
    log_term = np.log1p(two_k)
    sigma = (
        2.0
        * np.pi
        * CLASSICAL_ELECTRON_RADIUS_CM**2
        * (
            one_k / k**2 * (2.0 * one_k / one_2k - log_term / k)
            + log_term / two_k
            - (1.0 + 3.0 * k) / one_2k**2
        )
    )
    return sigma


def compton_mu(energy: np.ndarray, material: Material) -> np.ndarray:
    """Compton linear attenuation coefficient, 1/cm."""
    return klein_nishina_total(energy) * material.electron_density_cm3


def photoelectric_mu(energy: np.ndarray, material: Material) -> np.ndarray:
    """Photoelectric linear attenuation coefficient, 1/cm.

    ``mu = rho * pe_coeff * E^-pe_index`` with E in MeV.
    """
    energy = np.asarray(energy, dtype=np.float64)
    return (
        material.density_g_cm3
        * material.pe_coeff
        * np.power(energy, -material.pe_index)
    )


def pair_mu(energy: np.ndarray, material: Material) -> np.ndarray:
    """Pair-production linear attenuation coefficient, 1/cm.

    Zero below threshold; ``rho * C * Z^2/A * ln(E / threshold)`` above.
    The log is taken only for energies above the threshold (a few
    percent of a campaign's photons); the rest keep the ramp's 0.0.
    """
    energy = np.asarray(energy, dtype=np.float64)
    ramp = np.zeros(energy.shape)
    above = energy > PAIR_THRESHOLD_MEV
    ramp[above] = np.log(energy[above] / PAIR_THRESHOLD_MEV)  # reprolint: disable=NUM001 -- the mask keeps energies above the threshold: the argument exceeds 1
    return (
        material.density_g_cm3
        * _PAIR_COEFF
        * (material.z_eff**2 / material.a_eff)  # reprolint: disable=NUM002 -- Material.a_eff is a positive tabulated constant
        * ramp
    )


def total_mu(energy: np.ndarray, material: Material) -> np.ndarray:
    """Total linear attenuation coefficient (all channels), 1/cm."""
    return (
        compton_mu(energy, material)
        + photoelectric_mu(energy, material)
        + pair_mu(energy, material)
    )


def interaction_probabilities(
    energy: np.ndarray, material: Material
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel interaction probabilities at an interaction site.

    Returns:
        Tuple ``(p_compton, p_photoelectric, p_pair)``; each ``(n,)`` and
        summing to 1 elementwise.
    """
    mu_c = compton_mu(energy, material)
    mu_pe = photoelectric_mu(energy, material)
    mu_pp = pair_mu(energy, material)
    # mu_c > 0 at every energy, so the floor is a no-op for physical
    # photons; it only shields a hand-crafted all-zero row from 0/0.
    total = np.maximum(mu_c + mu_pe + mu_pp, np.finfo(np.float64).tiny)
    return mu_c / total, mu_pe / total, mu_pp / total
