"""Coarse-to-fine hierarchical sky search with calibrated credible regions.

The flat :func:`~repro.localization.skymap.compute_skymap` scan evaluates
every ring against every pixel of a dense grid — cost grows as
``1/resolution^2`` and a 0.5-degree hemisphere already holds ~10^5
pixels.  But a GRB posterior is sparse: almost all mass sits in a few
square degrees.  This module exploits that the way HEALPix-based
localizers do (the COSI BGO pipeline in PAPERS.md): start from a coarse
equal-area pixelization, evaluate the ring likelihood there, then
repeatedly *split only the promising cells four ways* until the target
resolution is reached.

Selection per level is "top-k **plus** margin": the ``top_k`` cells by
posterior mass are always refined, and so is every cell whose
log-posterior is within ``margin`` of the current maximum.  The margin
guard is what keeps multimodal maps honest — two well-separated modes of
comparable likelihood both stay in the refinement frontier even when
``top_k`` is small, so neither is frozen at coarse resolution.

Every evaluation is *resolution-matched*: a cell is scored with each
ring's width broadened to the cell scale
(``sigma^2 = deta^2 + half_width^2``, see :func:`evaluate_cells`), so a
razor-thin ring corridor threading a coarse cell between centers cannot
make the cell look empty and steer the refinement onto the wrong
branch.  At the leaves the same term accounts for the pixelization,
which is what makes the emitted credible regions calibratable.

The leaves form a valid (mixed-resolution) partition of the search
region, so the result is an ordinary :class:`~repro.localization.skymap.SkyMap`
over a :class:`~repro.localization.skymap.SkyGrid` whose pixel areas are
exact cell solid angles — every downstream credible-region tool applies
unchanged.  See ``docs/localization.md`` for the algorithm writeup and
the containment-calibration methodology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.localization.skymap import SkyGrid, SkyMap
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.reconstruction.rings import RingSet


#: Size (rings x cells) of the ``sigma^2`` scratch block of
#: :func:`evaluate_cells`: 128 KiB of float64.
_SCRATCH_ELEMENTS = 16384


@dataclass(frozen=True)
class SkymapConfig:
    """Parameters of the hierarchical sky search.

    Attributes:
        coarse_resolution_deg: Pixel spacing of the level-0 grid.
        resolution_deg: Target effective resolution of the refined
            region; the number of refinement levels is
            ``ceil(log2(coarse/target))`` (cell widths halve per split).
        top_k: Cells refined per level regardless of margin.
        margin: Log-posterior window below the per-level maximum within
            which *every* cell is refined (the multimodal guard).  In
            chi-square units a margin ``m`` keeps cells up to
            ``2 m`` above the best cell's capped chi-square.
        max_polar_deg: Search-region extent from zenith (matches the
            flat grid's default: slightly past the horizon).
        cap: Robust per-ring chi-square cap (None for the pure Gaussian
            model); same semantics as :func:`compute_skymap`.
        temperature: Likelihood temperature ``T``: the capped joint
            chi-square is divided by ``T`` before exponentiation.
            ``T = 1`` is the raw model; ``T > 1`` widens the posterior.
            Ring widths systematically understate the estimator's real
            dispersion (the paper's motivating gap), so raw regions are
            overconfident; fitting ``T`` on a seeded campaign
            (:func:`repro.experiments.calibration.fit_temperature`) is
            what makes the emitted confidence regions *calibrated*.
    """

    coarse_resolution_deg: float = 8.0
    resolution_deg: float = 0.5
    top_k: int = 16
    margin: float = 6.0
    max_polar_deg: float = 95.0
    cap: float | None = 25.0
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.coarse_resolution_deg <= 0 or self.resolution_deg <= 0:
            raise ValueError("resolutions must be positive")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.resolution_deg > self.coarse_resolution_deg:
            raise ValueError(
                "target resolution must not exceed the coarse resolution"
            )
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.margin < 0:
            raise ValueError("margin must be >= 0")
        if self.max_polar_deg <= 0:
            raise ValueError("max_polar_deg must be positive")

    @property
    def num_levels(self) -> int:
        """Refinement levels needed to reach the target resolution."""
        ratio = self.coarse_resolution_deg / self.resolution_deg  # reprolint: disable=NUM002 -- resolution_deg > 0 enforced in __post_init__
        # ratio >= 1 is enforced in __post_init__, so log2 is safe.
        return int(np.ceil(np.log2(ratio)))  # reprolint: disable=NUM001 -- ratio >= 1 enforced in __post_init__


@dataclass
class CellSet:
    """Structure-of-arrays set of sky cells.

    A cell is the spherical rectangle ``theta in [theta_lo, theta_hi] x
    phi in [phi_lo, phi_hi]`` (polar angle from zenith, azimuth in
    radians).  Splitting is 4-way at the angular midpoints, so both
    angular widths halve every level and the children partition the
    parent exactly.  (An equal-area polar split would look more
    HEALPix-like, but near the pole it shrinks the polar width only by
    ``sqrt(2)`` per level — a zenith source would then sit in a cap
    cell that never reaches the target resolution.  Cell solid angles
    are carried exactly, so equal areas buy nothing here.)

    Attributes:
        theta_lo: ``(n,)`` lower polar bounds, radians.
        theta_hi: ``(n,)`` upper polar bounds, radians.
        phi_lo: ``(n,)`` lower azimuth bounds, radians.
        phi_hi: ``(n,)`` upper azimuth bounds, radians.
    """

    theta_lo: np.ndarray
    theta_hi: np.ndarray
    phi_lo: np.ndarray
    phi_hi: np.ndarray

    @property
    def num_cells(self) -> int:
        return int(self.theta_lo.shape[0])

    def areas_sr(self) -> np.ndarray:
        """Exact solid angle of each cell, steradians."""
        return (self.phi_hi - self.phi_lo) * (
            np.cos(self.theta_lo) - np.cos(self.theta_hi)
        )

    def centers(self) -> np.ndarray:
        """``(n, 3)`` unit center directions (equal-area centroids).

        The polar center is the equal-area latitude (arccos of the mean
        of the bounding cosines) — the solid-angle centroid of the
        cell, where a point evaluation best represents the cell mass.
        """
        cos_c = 0.5 * (np.cos(self.theta_lo) + np.cos(self.theta_hi))
        sin_c = np.sqrt(np.maximum(1.0 - cos_c * cos_c, 0.0))
        phi_c = 0.5 * (self.phi_lo + self.phi_hi)
        return np.stack(
            [sin_c * np.cos(phi_c), sin_c * np.sin(phi_c), cos_c], axis=1
        )

    def half_widths_rad(self) -> np.ndarray:
        """Angular half-diagonal of each cell, radians.

        The cell-scale term of the resolution-matched likelihood in
        :func:`evaluate_cells`: half the diagonal of the polar-width x
        (azimuth-width at the center latitude) rectangle.
        """
        cos_c = 0.5 * (np.cos(self.theta_lo) + np.cos(self.theta_hi))
        sin_c = np.sqrt(np.maximum(1.0 - cos_c * cos_c, 0.0))
        d_theta = self.theta_hi - self.theta_lo
        d_phi = (self.phi_hi - self.phi_lo) * sin_c
        return 0.5 * np.sqrt(d_theta * d_theta + d_phi * d_phi)  # reprolint: disable=NUM001 -- sum of squares is non-negative

    def select(self, mask: np.ndarray) -> "CellSet":
        """New :class:`CellSet` restricted to cells where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        return CellSet(
            theta_lo=self.theta_lo[mask],
            theta_hi=self.theta_hi[mask],
            phi_lo=self.phi_lo[mask],
            phi_hi=self.phi_hi[mask],
        )

    def split(self) -> "CellSet":
        """Split every cell into its four angular-midpoint children."""
        t_lo, t_hi = self.theta_lo, self.theta_hi
        p_lo, p_hi = self.phi_lo, self.phi_hi
        t_mid = 0.5 * (t_lo + t_hi)
        p_mid = 0.5 * (p_lo + p_hi)
        return CellSet(
            theta_lo=np.concatenate([t_lo, t_lo, t_mid, t_mid]),
            theta_hi=np.concatenate([t_mid, t_mid, t_hi, t_hi]),
            phi_lo=np.concatenate([p_lo, p_mid, p_lo, p_mid]),
            phi_hi=np.concatenate([p_mid, p_hi, p_mid, p_hi]),
        )


def coarse_cells(
    resolution_deg: float = 8.0, max_polar_deg: float = 95.0
) -> CellSet:
    """Level-0 cells from the sin-weighted band scheme of ``SkyGrid.build``.

    Same construction as the flat grid — polar bands of constant width
    with azimuth counts proportional to ``sin(theta)`` — but returning
    cell *bounds* instead of centers so the cells can be split.

    Args:
        resolution_deg: Angular band width (and target azimuth spacing).
        max_polar_deg: Extent from zenith.

    Returns:
        A :class:`CellSet` partitioning the search region.

    Raises:
        ValueError: For non-positive resolution or extent.
    """
    if resolution_deg <= 0 or max_polar_deg <= 0:
        raise ValueError("resolution and extent must be positive")
    step = np.deg2rad(resolution_deg)
    n_bands = max(1, int(np.ceil(max_polar_deg / resolution_deg)))
    polar_edges = np.linspace(0.0, np.deg2rad(max_polar_deg), n_bands + 1)
    lo, hi = polar_edges[:-1], polar_edges[1:]
    mid = 0.5 * (lo + hi)
    n_az = np.maximum(
        1, np.ceil(2.0 * np.pi * np.sin(mid) / step).astype(np.int64)
    )
    starts = np.concatenate([[0], np.cumsum(n_az)[:-1]])
    slot = np.arange(int(n_az.sum())) - np.repeat(starts, n_az)
    width = np.repeat(2.0 * np.pi / n_az, n_az)
    return CellSet(
        theta_lo=np.repeat(lo, n_az),
        theta_hi=np.repeat(hi, n_az),
        phi_lo=slot * width,
        phi_hi=(slot + 1) * width,
    )


def evaluate_cells(
    rings: RingSet,
    cells: CellSet,
    cap: float | None = 25.0,
    temperature: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Ring log-likelihood and log-posterior mass at each cell.

    The posterior mass approximates the integral of the likelihood over
    the cell by (likelihood at the equal-area center) x (cell solid
    angle) — the same flat-prior quadrature :func:`compute_skymap` uses,
    but over cells of heterogeneous size, with one crucial difference:
    the per-ring width is broadened to the cell scale,
    ``sigma^2 = deta^2 + half_width^2``.  A point evaluation at the
    center is a faithful proxy for the mass inside the cell only when
    the likelihood is smooth at the cell scale; a sharp ring corridor
    (``deta`` far below the cell width) threading a cell *between*
    centers would otherwise score the cell as empty and freeze the
    refinement frontier on the wrong branch.  Broadening convolves each
    corridor up to the cell scale (the residual changes by at most the
    angular distance to the center, so ``half_width`` bounds the
    within-cell residual swing), which restores center-evaluation
    fidelity at every level and, at the leaves, accounts for the
    pixelization itself.

    Args:
        rings: Rings entering localization.
        cells: Cells to evaluate.
        cap: Robust per-ring chi-square cap (None disables).
        temperature: Joint chi-square divisor (see
            :class:`SkymapConfig`); applied after the cap.

    Returns:
        ``(log_like, log_post)`` arrays of shape ``(num_cells,)``; both
        are unnormalized (constant offsets drop out on normalization).
    """
    # One (rings, cells) buffer is squared, scaled and capped in place:
    # the textbook ``resid * resid / sigma2`` bit for bit.  ``sigma2`` is
    # formed a block of rings at a time in a small scratch, so no second
    # (rings, cells) array is allocated (and page-faulted) per call.
    chi2 = rings.axis @ cells.centers().T
    chi2 -= rings.eta[:, None]
    np.multiply(chi2, chi2, out=chi2)
    deta2 = rings.deta[:, None] ** 2
    half2 = cells.half_widths_rad() ** 2
    rows = max(1, _SCRATCH_ELEMENTS // max(cells.num_cells, 1))
    scratch = np.empty((min(rows, rings.num_rings), cells.num_cells))
    for lo in range(0, rings.num_rings, rows):
        block = chi2[lo : lo + rows]
        sigma2 = scratch[: block.shape[0]]
        np.add(deta2[lo : lo + rows], half2, out=sigma2)
        np.divide(block, sigma2, out=block)  # reprolint: disable=NUM002 -- deta is floored at DETA_FLOOR and half-widths are non-negative, so sigma2 > 0
    if cap is not None:
        np.minimum(chi2, cap, out=chi2)
    log_like = -0.5 * chi2.sum(axis=0) / temperature  # reprolint: disable=NUM002 -- temperature > 0 enforced by SkymapConfig; bare floats are caller-validated
    log_post = log_like + np.log(cells.areas_sr())  # reprolint: disable=NUM001 -- cell areas strictly positive: bands and azimuth slots are non-degenerate by construction
    return log_like, log_post


def refine_mask(log_post: np.ndarray, top_k: int, margin: float) -> np.ndarray:
    """Cells to split this level: top-k by posterior mass, plus margin.

    Args:
        log_post: Per-cell log-posterior mass.
        top_k: Always refine this many of the best cells.
        margin: Also refine every cell within this log-posterior window
            of the maximum (keeps secondary modes competitive).

    Returns:
        Boolean mask over the cells.
    """
    mask = np.zeros(log_post.size, dtype=bool)
    k = min(int(top_k), log_post.size)
    order = np.argsort(log_post)
    mask[order[log_post.size - k :]] = True
    mask |= log_post >= log_post.max() - margin
    return mask


def refine_level(
    rings: RingSet,
    cells: CellSet,
    log_like: np.ndarray,
    log_post: np.ndarray,
    config: SkymapConfig,
) -> tuple[CellSet, np.ndarray, np.ndarray, int]:
    """One coarse-to-fine step: split the selected cells, evaluate children.

    Unselected cells survive as leaves with their existing evaluations;
    selected cells are replaced by their four children.

    Args:
        rings: Rings entering localization.
        cells: Current leaf cells.
        log_like: Per-cell log-likelihood (matching ``cells``).
        log_post: Per-cell log-posterior mass (matching ``cells``).
        config: Search parameters (selection rule, cap).

    Returns:
        ``(cells, log_like, log_post, n_children)`` for the next level.
    """
    sel = refine_mask(log_post, config.top_k, config.margin)
    children = cells.select(sel).split()
    child_like, child_post = evaluate_cells(
        rings, children, config.cap, config.temperature
    )
    keep = ~sel
    kept = cells.select(keep)
    merged = CellSet(
        theta_lo=np.concatenate([kept.theta_lo, children.theta_lo]),
        theta_hi=np.concatenate([kept.theta_hi, children.theta_hi]),
        phi_lo=np.concatenate([kept.phi_lo, children.phi_lo]),
        phi_hi=np.concatenate([kept.phi_hi, children.phi_hi]),
    )
    return (
        merged,
        np.concatenate([log_like[keep], child_like]),
        np.concatenate([log_post[keep], child_post]),
        children.num_cells,
    )


@dataclass
class HierarchicalResult:
    """Outcome of the hierarchical sky search.

    Attributes:
        sky: Mixed-resolution posterior map over the final leaf cells.
        levels: Refinement levels executed.
        cells_evaluated: Total likelihood evaluations across all levels
            (the work metric a flat scan pays ``num_pixels`` for).
    """

    sky: SkyMap
    levels: int
    cells_evaluated: int

    @property
    def num_leaves(self) -> int:
        """Leaf-cell count of the final map."""
        return self.sky.grid.num_pixels


@obs_trace.traced("skymap.hierarchical")
def hierarchical_skymap(
    rings: RingSet, config: SkymapConfig | None = None
) -> HierarchicalResult:
    """Coarse-to-fine posterior map over the visible sky.

    Evaluates the capped ring chi-square on the coarse grid, then
    refines the top-k + margin frontier level by level down to the
    target resolution (see the module docstring and
    ``docs/localization.md``).

    Args:
        rings: Rings entering localization.
        config: Search parameters (defaults: 8 degrees -> 0.5 degrees).

    Returns:
        A :class:`HierarchicalResult`; ``result.sky`` is an ordinary
        :class:`SkyMap` so credible-region methods apply unchanged.

    Raises:
        ValueError: If the ring set is empty.
    """
    if rings.num_rings == 0:
        raise ValueError("cannot map an empty ring set")
    cfg = config or SkymapConfig()
    cells = coarse_cells(cfg.coarse_resolution_deg, cfg.max_polar_deg)
    log_like, log_post = evaluate_cells(rings, cells, cfg.cap, cfg.temperature)
    cells_evaluated = cells.num_cells
    levels = 0
    for _ in range(cfg.num_levels):
        cells, log_like, log_post, n_children = refine_level(
            rings, cells, log_like, log_post, cfg
        )
        cells_evaluated += n_children
        levels += 1
    grid = SkyGrid(
        directions=cells.centers(),
        pixel_area_sr=cells.areas_sr(),
        bounds=np.stack(
            [cells.theta_lo, cells.theta_hi, cells.phi_lo, cells.phi_hi],
            axis=1,
        ),
    )
    shifted = log_post - log_post.max()
    prob = np.exp(shifted)
    prob /= prob.sum()
    sky = SkyMap(grid=grid, log_likelihood=log_like, probability=prob)
    obs_metrics.inc("skymap.searches")
    obs_metrics.inc("skymap.levels", levels)
    obs_metrics.inc("skymap.cells_evaluated", cells_evaluated)
    return HierarchicalResult(
        sky=sky, levels=levels, cells_evaluated=cells_evaluated
    )
