"""Probabilistic ring model and likelihood evaluation.

Each ring constrains the source direction ``s`` through a radially
symmetric Gaussian in the residual ``c . s - eta`` with width ``d eta``
(paper footnote 1).  The joint negative log-likelihood over rings is the
weighted sum of squared residuals; a capped variant bounds the influence of
any single (possibly background or mis-reconstructed) ring.
"""

from __future__ import annotations

import numpy as np

from repro.reconstruction.rings import RingSet


def ring_chi_square(rings: RingSet, directions: np.ndarray) -> np.ndarray:
    """Per-ring, per-direction normalized squared residuals.

    Args:
        rings: ``m`` rings.
        directions: ``(d, 3)`` candidate unit directions (or ``(3,)``).

    Returns:
        ``(m, d)`` array of ``((c . s - eta)/d eta)^2`` (``(m,)`` if a
        single direction was given).
    """
    directions = np.asarray(directions, dtype=np.float64)
    single = directions.ndim == 1
    dirs = np.atleast_2d(directions)
    resid = rings.axis @ dirs.T - rings.eta[:, None]
    chi2 = (resid / rings.deta[:, None]) ** 2  # reprolint: disable=NUM002 -- RingSet.deta is floored at DETA_FLOOR by reconstruction.error_propagation
    return chi2[:, 0] if single else chi2


def capped_chi_square(
    rings: RingSet, directions: np.ndarray, cap: float = 9.0
) -> np.ndarray:
    """Summed chi-square per direction with per-ring influence capped.

    Capping (a truncated-quadratic robust loss) keeps background rings from
    dominating the approximation stage.  Axes and ``eta`` are pre-scaled by
    ``1/d eta`` once per call, so the normalized residuals are formed,
    squared and capped in a single ``(d, m)`` buffer (equal to
    ``min(ring_chi_square, cap).sum(0)`` up to rounding).

    Args:
        rings: ``m`` rings.
        directions: ``(d, 3)`` candidate unit directions.
        cap: Maximum chi-square contribution of a single ring.

    Returns:
        ``(d,)`` capped chi-square sums.
    """
    dirs = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    inv_deta = 1.0 / rings.deta  # reprolint: disable=NUM002 -- RingSet.deta is floored at DETA_FLOOR by reconstruction.error_propagation
    chi2 = dirs @ (rings.axis * inv_deta[:, None]).T
    chi2 -= rings.eta * inv_deta
    np.square(chi2, out=chi2)
    np.minimum(chi2, cap, out=chi2)
    return chi2.sum(axis=1)


def joint_log_likelihood(rings: RingSet, direction: np.ndarray) -> float:
    """Joint log-likelihood of all rings at one direction (up to a constant).

    ``log L = -1/2 sum_j [ ((c_j . s - eta_j)/d eta_j)^2 + 2 log d eta_j ]``
    """
    chi2 = ring_chi_square(rings, direction)
    return float(-0.5 * np.sum(chi2) - np.sum(np.log(rings.deta)))  # reprolint: disable=NUM001 -- deta >= DETA_FLOOR > 0 (reconstruction.error_propagation)
