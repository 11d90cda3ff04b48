"""Reconstruction-quality filters.

The paper trains and evaluates only on rings "that the pre-localization
stages of the pipeline deemed correctly reconstructed".  These filters are
that gate: kinematic sanity, sufficient lever arm between the first two
hits, minimum total energy, and (for >=3-hit events) a bound on the
redundant-angle ordering score.  The thresholds are loose enough that a
population of mis-ordered / noisy rings survives — which is precisely the
population the neural networks are needed for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detector.response import EventSet
from repro.reconstruction.rings import RingSet


@dataclass(frozen=True)
class FilterConfig:
    """Quality-filter thresholds.

    Attributes:
        eta_margin: Require ``|eta| <= 1 - eta_margin`` (rings with
            near-degenerate cones carry no directional information).
        min_lever_arm_cm: Minimum distance between the first two hits.
        min_total_energy_mev: Minimum measured event energy.
        max_ordering_score: Maximum redundant-angle disagreement for
            >=3-hit events (2-hit events, scored NaN, always pass this).
        max_deta: Reject rings whose propagated width already exceeds this
            (they would only dilute localization).
    """

    eta_margin: float = 0.02
    min_lever_arm_cm: float = 3.0
    min_total_energy_mev: float = 0.10
    max_ordering_score: float = 0.25
    max_deta: float = 0.5


def quality_filter(
    rings: RingSet,
    events: EventSet,
    config: FilterConfig | None = None,
) -> np.ndarray:
    """Boolean mask of rings passing all quality gates.

    Args:
        rings: Candidate rings.
        events: The EventSet the rings were built from.
        config: Thresholds (defaults used if omitted).

    Returns:
        ``(num_rings,)`` boolean mask.
    """
    cfg = config or FilterConfig()
    eta_ok = np.abs(rings.eta) <= 1.0 - cfg.eta_margin
    lever = np.linalg.norm(
        events.positions[rings.first_hit] - events.positions[rings.second_hit],
        axis=1,
    )
    lever_ok = lever >= cfg.min_lever_arm_cm

    etot = events.sum_per_event(events.energies)
    energy_ok = etot[rings.event_index] >= cfg.min_total_energy_mev

    score = rings.ordering_score
    score_ok = np.isnan(score) | (score <= cfg.max_ordering_score)

    deta_ok = rings.deta <= cfg.max_deta
    return eta_ok & lever_ok & energy_ok & score_ok & deta_ok
