"""Compton-ring construction.

A ring is the paper's per-photon source constraint (Fig. 2): the unit axis
``c`` through the first two hit positions, the scattering-angle cosine
``eta`` from the measured energies, and the Gaussian width ``d eta``.  The
source direction ``s`` satisfies ``c . s ~ eta``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detector.response import EventSet
from repro.physics.compton import cos_theta_from_energies
from repro.reconstruction.error_propagation import propagate_deta
from repro.reconstruction.ordering import OrderingResult, order_hits


@dataclass
class RingSet:
    """Structure-of-arrays collection of Compton rings.

    Attributes:
        axis: ``(m, 3)`` unit axes ``c`` (from second hit toward first,
            i.e. pointing back toward the sky).
        eta: ``(m,)`` scattering-angle cosines.
        deta: ``(m,)`` ring widths; initialized to the propagation-of-error
            estimate and later *overwritten* by the dEta network in the ML
            pipeline.
        event_index: ``(m,)`` owning event in the originating EventSet.
        first_hit: ``(m,)`` flat hit index of the first interaction.
        second_hit: ``(m,)`` flat hit index of the second interaction.
        ordering_score: ``(m,)`` ordering figure of merit (NaN for 2-hit).
        labels: ``(m,)`` truth label (LABEL_GRB / LABEL_BACKGROUND).
        ordering_correct: ``(m,)`` truth flag for correct hit ordering.
        source_direction: True GRB unit vector, or None.
    """

    axis: np.ndarray
    eta: np.ndarray
    deta: np.ndarray
    event_index: np.ndarray
    first_hit: np.ndarray
    second_hit: np.ndarray
    ordering_score: np.ndarray
    labels: np.ndarray
    ordering_correct: np.ndarray
    source_direction: np.ndarray | None = None

    @property
    def num_rings(self) -> int:
        return int(self.eta.shape[0])

    def select(self, mask: np.ndarray) -> "RingSet":
        """New RingSet restricted to rings where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        return RingSet(
            axis=self.axis[mask],
            eta=self.eta[mask],
            deta=self.deta[mask],
            event_index=self.event_index[mask],
            first_hit=self.first_hit[mask],
            second_hit=self.second_hit[mask],
            ordering_score=self.ordering_score[mask],
            labels=self.labels[mask],
            ordering_correct=self.ordering_correct[mask],
            source_direction=self.source_direction,
        )

    def with_deta(self, deta: np.ndarray) -> "RingSet":
        """New RingSet with replaced ``d eta`` values (e.g. NN output)."""
        deta = np.asarray(deta, dtype=np.float64)
        if deta.shape != self.eta.shape:
            raise ValueError("deta shape mismatch")
        return RingSet(
            axis=self.axis,
            eta=self.eta,
            deta=deta,
            event_index=self.event_index,
            first_hit=self.first_hit,
            second_hit=self.second_hit,
            ordering_score=self.ordering_score,
            labels=self.labels,
            ordering_correct=self.ordering_correct,
            source_direction=self.source_direction,
        )

    def residuals(self, direction: np.ndarray) -> np.ndarray:
        """Ring residuals ``c . s - eta`` for a candidate source direction."""
        direction = np.asarray(direction, dtype=np.float64)
        return self.axis @ direction - self.eta

    def true_eta_errors(self) -> np.ndarray:
        """|true error in eta| for every ring, using the true source.

        For GRB rings this is ``|c . s_true - eta|`` — exactly the quantity
        the paper's "true d eta" oracle substitutes (Fig. 4, rightmost) and
        the dEta network's regression target.  Background rings have no
        source; they get the same formula (their residual w.r.t. the GRB
        direction), which is meaningful only for diagnostics.

        Raises:
            ValueError: If the ring set has no source direction.
        """
        if self.source_direction is None:
            raise ValueError("RingSet has no true source direction")
        return np.abs(self.residuals(self.source_direction))


def build_rings(
    events: EventSet,
    ordering: OrderingResult | None = None,
) -> RingSet:
    """Build Compton rings from digitized events.

    Events with fewer than two hits or with no kinematically valid ordering
    produce no ring.

    Args:
        events: Digitized events.
        ordering: Precomputed hit ordering; computed here if omitted.

    Returns:
        A :class:`RingSet` (one ring per reconstructable event).
    """
    if ordering is None:
        ordering = order_hits(events)

    keep = ordering.valid
    ev_idx = np.nonzero(keep)[0]
    first = ordering.first[keep]
    second = ordering.second[keep]

    r1 = events.positions[first]
    r2 = events.positions[second]
    axis = r1 - r2
    norms = np.linalg.norm(axis, axis=1, keepdims=True)
    degenerate = norms[:, 0] == 0.0
    norms[degenerate] = 1.0
    axis = axis / norms

    # Total measured energy per event (CSR segment sums).
    etot_all = events.sum_per_event(events.energies)
    var_all = events.sum_per_event(events.sigma_energy**2)

    etot = etot_all[ev_idx]
    e1 = events.energies[first]
    eta = cos_theta_from_energies(etot, e1)

    deta = propagate_deta(
        total_energy=etot,
        first_energy=e1,
        sigma_total_sq=var_all[ev_idx],
        sigma_first=events.sigma_energy[first],
        axis=axis,
        eta=eta,
        pos_first=r1,
        pos_second=r2,
        sigma_pos_first=events.sigma_position[first],
        sigma_pos_second=events.sigma_position[second],
    )

    rings = RingSet(
        axis=axis,
        eta=eta,
        deta=deta,
        event_index=ev_idx,
        first_hit=first,
        second_hit=second,
        ordering_score=ordering.score[keep],
        labels=events.labels[ev_idx],
        ordering_correct=ordering.correct[keep],
        source_direction=events.source_direction,
    )
    # Drop degenerate (zero-lever-arm) rings outright.
    if np.any(degenerate):
        rings = rings.select(~degenerate)
    return rings
