"""Escape-energy recovery for incompletely absorbed photons.

When a photon Compton-scatters twice and then *leaves* the detector, the
summed deposits underestimate its energy and the ring's ``eta`` is
systematically wrong.  For events with three or more hits the classic
three-Compton technique (Boggs & Jean 2000, paper ref. [22]) recovers the
unmeasured energy: the scattering angle at the *second* hit is known
geometrically from the three positions, and the Compton formula then
fixes the photon energy after the second scatter:

``E_after = -E_2/2 + sqrt(E_2^2/4 + E_2 m_e / (1 - cos theta_2_geo))``

so the incident estimate is ``E = E_1 + E_2 + E_after`` regardless of how
much later energy escaped.  This module computes that estimate per event
and flags where it is applicable; experiments use it to quantify how much
ring quality improves (an ablation the paper's pipeline leaves on the
table).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import ELECTRON_MASS_MEV
from repro.detector.response import EventSet
from repro.reconstruction.ordering import OrderingResult, order_hits

_ME = ELECTRON_MASS_MEV


@dataclass
class EscapeEstimate:
    """Three-Compton incident-energy estimates.

    Attributes:
        energy: ``(n_events,)`` estimated incident energies, MeV (NaN
            where inapplicable).
        applicable: ``(n_events,)`` True for events with >= 3 hits, a
            valid ordering, and a physical geometric angle at hit 2.
        calorimetric: ``(n_events,)`` plain summed-deposit energies for
            comparison.
    """

    energy: np.ndarray
    applicable: np.ndarray
    calorimetric: np.ndarray


def estimate_escape_energy(
    events: EventSet,
    ordering: OrderingResult | None = None,
) -> EscapeEstimate:
    """Apply the three-Compton energy estimator to every eligible event.

    Args:
        events: Digitized events.
        ordering: Precomputed hit ordering (computed here if omitted).

    Returns:
        An :class:`EscapeEstimate` aligned with ``events``.
    """
    if ordering is None:
        ordering = order_hits(events)
    n = events.num_events
    counts = events.hits_per_event()

    calorimetric = events.sum_per_event(events.energies)

    energy = np.full(n, np.nan)
    applicable = np.zeros(n, dtype=bool)

    eligible = (counts >= 3) & ordering.valid
    idx = np.nonzero(eligible)[0]
    if idx.size == 0:
        return EscapeEstimate(
            energy=energy, applicable=applicable, calorimetric=calorimetric
        )

    first = ordering.first[idx]
    second = ordering.second[idx]
    # Third hit: the highest-energy remaining hit is the best proxy for
    # the next interaction when the true order beyond hit 2 is unknown;
    # for 3-hit events it is simply the remaining hit.
    third = np.empty(idx.size, dtype=np.int64)
    for k, ev in enumerate(idx):
        sl = events.event_slice(int(ev))
        hits = np.arange(sl.start, sl.stop)
        rest = hits[(hits != first[k]) & (hits != second[k])]
        third[k] = rest[np.argmax(events.energies[rest])]

    r1 = events.positions[first]
    r2 = events.positions[second]
    r3 = events.positions[third]
    v1 = r2 - r1
    v2 = r3 - r2
    n1 = np.linalg.norm(v1, axis=1)
    n2 = np.linalg.norm(v2, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos2 = np.einsum("ij,ij->i", v1, v2) / (n1 * n2)
    e1 = events.energies[first]
    e2 = events.energies[second]

    valid = (
        np.isfinite(cos2)
        & (cos2 < 1.0 - 1e-9)
        & (n1 > 0)
        & (n2 > 0)
        & (e2 > 0)
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        e_after = -e2 / 2.0 + np.sqrt(
            e2**2 / 4.0 + e2 * _ME / (1.0 - cos2)
        )
    est = e1 + e2 + e_after
    ok = valid & np.isfinite(est) & (est > 0)
    energy[idx[ok]] = est[ok]
    applicable[idx[ok]] = True
    return EscapeEstimate(
        energy=energy, applicable=applicable, calorimetric=calorimetric
    )


def eta_with_escape_correction(
    events: EventSet,
    ordering: OrderingResult | None = None,
    min_gain_mev: float = 0.02,
) -> tuple[np.ndarray, np.ndarray]:
    """Recompute each eligible event's ``eta`` with recovered energy.

    The corrected ``eta`` uses ``E = max(E_estimate, E_calorimetric)``
    (the estimator can only *add* escaped energy, so estimates below the
    measured sum are noise and are ignored), and only events whose
    estimate exceeds the calorimetric sum by ``min_gain_mev`` are marked
    corrected.

    Args:
        events: Digitized events.
        ordering: Precomputed hit ordering.
        min_gain_mev: Minimum recovered energy to apply the correction.

    Returns:
        ``(eta, corrected)`` — the per-event scattering cosine with
        corrections applied where flagged, and the correction mask.
    """
    from repro.physics.compton import cos_theta_from_energies

    if ordering is None:
        ordering = order_hits(events)
    est = estimate_escape_energy(events, ordering)
    n = events.num_events
    e_first = np.zeros(n)
    valid = ordering.valid
    e_first[valid] = events.energies[ordering.first[valid]]

    total = est.calorimetric.copy()
    corrected = (
        est.applicable
        & (est.energy > est.calorimetric + min_gain_mev)
    )
    total[corrected] = est.energy[corrected]
    with np.errstate(invalid="ignore", divide="ignore"):
        eta = cos_theta_from_energies(total, e_first)
    return eta, corrected
