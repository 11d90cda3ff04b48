"""Iterative refinement: robust almost-linear least squares.

Maximizing the joint ring likelihood over the unit sphere is equivalent to
an almost-linear least-squares problem (paper Section II): ignoring the
unit-norm constraint, the optimum of ``sum_j w_j (c_j . s - eta_j)^2``
solves the 3x3 normal equations ``(sum_j w_j c_j c_j^T) s = sum_j w_j
eta_j c_j``; re-normalizing and iterating converges rapidly because the
constraint surface is locally flat.

Robustness against background / mis-reconstructed rings follows the
paper's scheme: each iteration keeps only the rings whose residual at the
current estimate is within a chi gate of their ``d eta``, then re-solves on
that subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.reconstruction.rings import RingSet


@dataclass(frozen=True)
class RefinementConfig:
    """Refinement parameters.

    Attributes:
        gate_sigma: Keep rings with ``|residual| <= gate_sigma * d eta``.
        min_rings: If gating keeps fewer than this, the ``min_rings`` rings
            with smallest normalized residual are used instead (the
            estimate must never run on an empty set).
        max_iterations: Cap on gate-and-solve rounds.
        tol_deg: Convergence threshold on the angular update.
        ridge: Tikhonov regularization added to the normal matrix (scaled
            by its trace) to keep near-degenerate geometries solvable.
    """

    gate_sigma: float = 3.0
    min_rings: int = 5
    max_iterations: int = 30
    tol_deg: float = 0.05
    ridge: float = 1e-9


@dataclass
class RefinementResult:
    """Outcome of refinement.

    Attributes:
        direction: ``(3,)`` refined unit source direction.
        used: ``(m,)`` mask of rings included in the final solve.
        iterations: Gate-and-solve rounds executed.
        converged: Whether the angular update fell below tolerance.
    """

    direction: np.ndarray
    used: np.ndarray
    iterations: int
    converged: bool


#: Index pairs of the six distinct entries of the symmetric normal
#: matrix, in the column order of :func:`_normal_terms`.
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _normal_terms(rings: RingSet) -> np.ndarray:
    """Per-ring terms of the weighted normal equations, ``(10, m)``.

    Summing the columns of the gated rings gives the 3x3 normal matrix
    (rows 0-5, upper triangle) and right-hand side (rows 6-8) in one
    masked product.  A ring whose terms are not finite (a NaN ``eta``,
    say) has them zeroed and its flag (row 9) set: outside the gate it
    then adds exactly nothing, where ``0 * NaN`` would poison the sums,
    and inside the gate it fails the solve as the NaN itself would.
    """
    axis = rings.axis.T
    w = 1.0 / rings.deta**2  # reprolint: disable=NUM002 -- deta >= DETA_FLOOR > 0 (reconstruction.error_propagation)
    weighted = w * axis
    terms = np.empty((10, rings.num_rings))
    for k, (i, j) in enumerate(_PAIRS):
        np.multiply(weighted[i], axis[j], out=terms[k])
    np.multiply(axis, w * rings.eta, out=terms[6:9])
    bad = ~np.isfinite(terms[:9]).all(axis=0)
    terms[:, bad] = 0.0
    terms[9] = bad
    return terms


def _solve_normal(sums: list[float], ridge: float) -> tuple[float, float, float] | None:
    """Unit solution of the ridge-regularised normal equations, or None.

    ``sums`` are the summed :func:`_normal_terms` columns.  The matrix is
    symmetric positive definite (a sum of ``w c c^T`` plus the ridge), so
    a scalar 3x3 Cholesky factorisation solves it; a non-positive pivot
    (non-finite input, or a singular geometry with ``ridge=0``), a zero
    or non-finite solution, or a gated non-finite ring fails the solve.
    """
    a00, a01, a02, a11, a12, a22, b0, b1, b2, bad = sums
    if bad:
        return None
    reg = ridge * max(a00 + a11 + a22, 1.0)
    d0 = a00 + reg
    if not d0 > 0.0:
        return None
    l00 = math.sqrt(d0)
    l10 = a01 / l00
    l20 = a02 / l00
    d1 = a11 + reg - l10 * l10
    if not d1 > 0.0:
        return None
    l11 = math.sqrt(d1)
    l21 = (a12 - l20 * l10) / l11
    d2 = a22 + reg - l20 * l20 - l21 * l21
    if not d2 > 0.0:
        return None
    l22 = math.sqrt(d2)
    y0 = b0 / l00
    y1 = (b1 - l10 * y0) / l11
    y2 = (b2 - l20 * y0 - l21 * y1) / l22
    x2 = y2 / l22
    x1 = (y1 - l21 * x2) / l11
    x0 = (y0 - l10 * x1 - l20 * x2) / l00
    norm = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    if not 0.0 < norm < math.inf:
        return None
    return x0 / norm, x1 / norm, x2 / norm


def refine_source(
    rings: RingSet,
    initial: np.ndarray,
    config: RefinementConfig | None = None,
) -> RefinementResult:
    """Refine a source estimate with robust iterative least squares.

    The per-ring weights and normal-equation terms are computed once per
    call; each gate-and-solve round is then one residual pass, one masked
    product and a scalar 3x3 solve.

    Args:
        rings: All rings available to localization.
        initial: ``(3,)`` starting unit direction (from approximation or a
            previous pipeline stage).
        config: Refinement parameters.

    Returns:
        A :class:`RefinementResult`; if every solve fails the initial
        direction is returned unconverged.
    """
    cfg = config or RefinementConfig()
    s = np.asarray(initial, dtype=np.float64)
    s = s / np.linalg.norm(s)
    m = rings.num_rings
    used = np.ones(m, dtype=bool)
    if m == 0:
        return RefinementResult(direction=s, used=used, iterations=0, converged=False)

    terms = _normal_terms(rings)
    n_min = min(cfg.min_rings, m)
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        normalized = np.abs(rings.residuals(s)) / rings.deta  # reprolint: disable=NUM002 -- deta >= DETA_FLOOR > 0 (reconstruction.error_propagation)
        gate = normalized <= cfg.gate_sigma
        if np.count_nonzero(gate) < n_min:
            gate = np.zeros(m, dtype=bool)
            gate[np.argsort(normalized)[:n_min]] = True
        solved = _solve_normal((terms @ gate.astype(np.float64)).tolist(), cfg.ridge)
        if solved is None:
            break
        used = gate
        s_new = np.array(solved)
        step = math.degrees(math.acos(min(max(float(s @ s_new), -1.0), 1.0)))
        s = s_new
        if step < cfg.tol_deg:
            converged = True
            break
    return RefinementResult(
        direction=s, used=used, iterations=iterations, converged=converged
    )
