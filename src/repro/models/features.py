"""Per-ring input features for the neural networks (paper Section III).

Twelve features of the detection event behind each Compton ring:

0. total deposited energy of the event;
1-4. first hit: x, y, z, deposited energy;
5-8. second hit: x, y, z, deposited energy;
9-11. measurement uncertainties of the three energies (total, first,
   second) — ADAPT's energy uncertainty dwarfs its position uncertainty,
   so only energy sigmas enter.

Feature 12 (optional) is the guess at the source's *polar angle* in
degrees: the true angle (optionally jittered) during training, the
pipeline's current estimate at inference.

**Azimuth canonicalization.**  The networks receive only the source's
polar angle, yet the geometric consistency between a ring and a candidate
source depends on the full direction.  A polar angle alone suffices only
if the hit coordinates are expressed in a frame whose x axis points along
the source's azimuth — so ``extract_features`` accepts the (estimated or
true) azimuth and rotates the lateral hit coordinates into that canonical
frame.  The detector is azimuthally symmetric, so this loses nothing and
lets one network serve every azimuth.

**Block and step.**  Only the four lateral coordinates and the polar
column depend on the direction guess.  ``ring_feature_block`` computes
everything else once per ring set; ``features_from_block`` finishes the
matrix for one guess.  The ML pipeline classifies the same rings at many
guesses per alert, so it builds the block once; ``extract_features`` is
block plus step.
"""

from __future__ import annotations

import numpy as np

from repro.detector.response import EventSet
from repro.reconstruction.rings import RingSet

#: Number of event-derived features (without the polar-angle input).
NUM_BASE_FEATURES: int = 12
#: Number of features including the polar-angle input.
NUM_FEATURES: int = 13


def polar_angle_of(direction: np.ndarray) -> float:
    """Polar angle (degrees from detector zenith, +z) of a unit vector."""
    direction = np.asarray(direction, dtype=np.float64)
    return float(np.degrees(np.arccos(np.clip(direction[2], -1.0, 1.0))))


def azimuth_angle_of(direction: np.ndarray) -> float:
    """Azimuth (degrees, x toward y) of a unit vector; 0 for the zenith."""
    direction = np.asarray(direction, dtype=np.float64)
    return float(np.degrees(np.arctan2(direction[1], direction[0])))


#: Block columns holding lateral hit coordinates — x (1, 5) and y (2, 6)
#: of the first and second hit: the only ones that depend on the azimuth.
_LATERAL_X = slice(1, 6, 4)
_LATERAL_Y = slice(2, 7, 4)


def ring_feature_block(rings: RingSet, events: EventSet) -> np.ndarray:
    """Direction-independent part of the features: ``(m, 12)``.

    Holds the per-event sums (total energy and its variance) and the hit
    gathers, with lateral coordinates in the detector frame.  Build it
    once per ring set and call :func:`features_from_block` for each
    direction guess; a row depends only on its own ring, so
    ``block[mask]`` is the block of ``rings.select(mask)``.

    Args:
        rings: ``m`` rings.
        events: The EventSet the rings reference.

    Returns:
        ``(m, 12)`` float array in the feature order of the module
        docstring (features 0-11).
    """
    etot = events.sum_per_event(events.energies)
    var_tot = events.sum_per_event(events.sigma_energy**2)

    first = rings.first_hit
    second = rings.second_hit
    ev = rings.event_index
    positions = events.positions
    cols = [
        etot[ev],
        positions[first, 0],
        positions[first, 1],
        positions[first, 2],
        events.energies[first],
        positions[second, 0],
        positions[second, 1],
        positions[second, 2],
        events.energies[second],
        np.sqrt(var_tot[ev]),  # reprolint: disable=NUM001 -- var_tot is a sum of squared sigmas, nonnegative by construction
        events.sigma_energy[first],
        events.sigma_energy[second],
    ]
    return np.stack(cols, axis=1)


def features_from_block(
    block: np.ndarray,
    polar_guess_deg: float | np.ndarray | None = None,
    include_polar: bool = True,
    azimuth_deg: float = 0.0,
) -> np.ndarray:
    """Model input matrix at one direction guess, from a feature block.

    Rotates the lateral hit coordinates by ``-azimuth`` about z (the
    azimuth-canonical frame) and appends the polar-angle input.

    Args:
        block: ``(m, 12)`` output of :func:`ring_feature_block`.
        polar_guess_deg: Polar-angle input, scalar (broadcast) or ``(m,)``.
            Required when ``include_polar`` is True.
        include_polar: Emit 13 features (with angle) or 12 (the paper's
            Fig. 7 "No Polar" ablation).
        azimuth_deg: Source-azimuth guess.

    Returns:
        ``(m, 13)`` or ``(m, 12)`` float array.

    Raises:
        ValueError: If the polar input is required but missing, or has a
            wrong shape.
    """
    m = block.shape[0]
    out = np.empty((m, NUM_FEATURES if include_polar else NUM_BASE_FEATURES))
    out[:, :NUM_BASE_FEATURES] = block
    if azimuth_deg != 0.0:
        phi = np.deg2rad(azimuth_deg)
        c, s = np.cos(phi), np.sin(phi)
        x = block[:, _LATERAL_X]
        y = block[:, _LATERAL_Y]
        out[:, _LATERAL_X] = c * x + s * y
        out[:, _LATERAL_Y] = -s * x + c * y
    if include_polar:
        if polar_guess_deg is None:
            raise ValueError("polar_guess_deg required when include_polar=True")
        polar = np.asarray(polar_guess_deg, dtype=np.float64)
        if polar.ndim != 0 and polar.shape != (m,):
            raise ValueError(f"polar_guess_deg must be scalar or ({m},)")
        out[:, NUM_BASE_FEATURES] = polar
    return out


def extract_features(
    rings: RingSet,
    events: EventSet,
    polar_guess_deg: float | np.ndarray | None = None,
    include_polar: bool = True,
    azimuth_deg: float = 0.0,
) -> np.ndarray:
    """Build the model input matrix for a ring set.

    Equal to :func:`features_from_block` over :func:`ring_feature_block`;
    callers that need features at several direction guesses over the
    same rings build the block once instead.

    Args:
        rings: ``m`` rings.
        events: The EventSet the rings reference.
        polar_guess_deg: Polar-angle input, scalar (broadcast) or ``(m,)``.
            Required when ``include_polar`` is True.
        include_polar: Emit 13 features (with angle) or 12 (the paper's
            Fig. 7 "No Polar" ablation).
        azimuth_deg: Source-azimuth guess; hit coordinates are rotated into
            the azimuth-canonical frame before feature extraction.

    Returns:
        ``(m, 13)`` or ``(m, 12)`` float array.

    Raises:
        ValueError: If the polar input is required but missing, or has a
            wrong shape.
    """
    return features_from_block(
        ring_feature_block(rings, events),
        polar_guess_deg=polar_guess_deg,
        include_polar=include_polar,
        azimuth_deg=azimuth_deg,
    )
