"""Vectorized Monte-Carlo photon transport through the layered detector.

This is the heart of the Geant4 substitute: batches of photons are stepped
through the slab stack simultaneously; at each step every live photon
samples an exponential optical depth, walks the geometric layer
intersections to convert it into an interaction point (or escapes), chooses
an interaction channel from the cross-section ratios, and either deposits
energy and dies (photoelectric / pair, treated as local absorption) or
Compton-scatters into a new direction and energy.

Per the hpc-parallel guides, the inner loop is over *interaction
generations* (a handful), never over photons; all per-photon work is NumPy
array arithmetic on structure-of-arrays state.  Rays that miss the stack's
bounding box (about 55% of an exposure's first generation on either
instrument) escape at once.  A ray that interacts in the first slab it
enters, or leaves the stack before reaching any, is settled at that slab
(87% of APT's walked rays and 94% of ADAPT's on the bench recipes); only
the rest walk every slab, in the z order the ray meets them, a block of
rays at a time.  Each walked ray's lateral interval and cross sections
are computed once.  A photon's fate and
escaped energy are kept current as it interacts, so an escape writes
nothing.  These shortcuts leave every output and the random stream
bit-identical to walking every ray's intervals sorted by entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import Material, CSI
from repro.geometry.tiles import DetectorGeometry
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.physics.compton import (
    norm_columns,
    rotate_directions,
    sample_klein_nishina,
    scattered_energy,
)
from repro.physics.crosssections import compton_mu, pair_mu, photoelectric_mu

#: Scattered photons below this energy are absorbed on the spot (their
#: residual range is sub-millimeter in CsI), MeV.
ABSORB_CUTOFF_MEV: float = 0.015

#: Fate codes recorded per photon.
FATE_NO_INTERACTION = 0  #: passed through without touching scintillator
FATE_ESCAPED = 1  #: interacted >=1 time, then left the detector
FATE_ABSORBED = 2  #: full energy chain terminated inside the detector
FATE_MAX_GENERATIONS = 3  #: still alive when the generation cap was reached


@dataclass
class TransportResult:
    """Structure-of-arrays record of all interactions ("hits") of a batch.

    Hits are stored flat and tagged with the photon index they belong to;
    within one photon, ``order`` counts interactions from 0 (the first
    scatter).  Per-photon summary arrays have length ``num_photons``.

    Attributes:
        photon_index: ``(k,)`` index of the owning photon for each hit.
        order: ``(k,)`` interaction order within the photon, from 0.
        positions: ``(k, 3)`` true interaction positions, cm.
        energies: ``(k,)`` true deposited energies, MeV.
        num_interactions: ``(n,)`` hits per photon.
        fate: ``(n,)`` FATE_* code per photon.
        escaped_energy: ``(n,)`` energy carried away by escaping photons, MeV.
    """

    photon_index: np.ndarray
    order: np.ndarray
    positions: np.ndarray
    energies: np.ndarray
    num_interactions: np.ndarray
    fate: np.ndarray
    escaped_energy: np.ndarray

    @property
    def num_hits(self) -> int:
        return int(self.photon_index.shape[0])

    @property
    def num_photons(self) -> int:
        return int(self.num_interactions.shape[0])

    def hits_of(self, photon: int) -> np.ndarray:
        """Indices of this photon's hits, sorted by interaction order."""
        idx = np.nonzero(self.photon_index == photon)[0]
        return idx[np.argsort(self.order[idx], kind="stable")]


#: Interval starts are clipped to this distance, so a photon sitting
#: exactly on the face it just interacted at does not re-count a
#: zero-length path, cm.
_MIN_START_CM = 1e-12


def _material_path_to_geometric(
    t_in: np.ndarray,
    t_out: np.ndarray,
    required_path: np.ndarray,
    upward: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Convert a required material path length into a geometric distance.

    Walks each ray's slab intervals in the order the ray meets them,
    accumulating material path until ``required_path`` is consumed.
    Layers are listed top-first and do not overlap, so a downward ray
    meets its non-empty intervals in layer order and an upward ray in
    reverse; a ray parallel to the faces lies in at most two slabs that
    touch, with identical intervals.  Empty intervals add exact zeros to
    the running sum, so for any ``required_path > 0`` this picks the same
    interval, preceding path and distance as walking the intervals
    sorted by entry.  At ``required_path == 0`` (an ``Exp(1)`` draw of
    exactly 0.0) it returns the entry of the first interval in walk
    order, which may be empty, where a sort would return the smallest
    entry over all intervals.

    Args:
        t_in: ``(m, L)`` slab entry distances, layers top-first (fastest
            as the transposed view :meth:`segment_intersections` returns).
        t_out: ``(m, L)`` slab exit distances.
        required_path: ``(m,)`` material path to consume, cm.
        upward: ``(m,)`` rays walked bottom layer first.

    Returns:
        Tuple ``(t_star, escaped)`` — the geometric distance of the
        interaction point (undefined where ``escaped``), and a boolean mask
        of rays whose total remaining material path is insufficient.
    """
    # Layer-major (L, m): every step below runs along the rays.
    start = np.maximum(t_in.T, _MIN_START_CM)
    lengths = np.maximum(t_out.T, _MIN_START_CM)
    lengths -= start
    np.maximum(lengths, 0.0, out=lengths)
    lengths[:, upward] = lengths[::-1, upward]
    cum = np.cumsum(lengths, axis=0)

    total = cum[-1]
    escaped = required_path >= total

    # Walk position of the slab interval in which the path is consumed.
    last = cum.shape[0] - 1
    idx = np.minimum(np.sum(cum < required_path, axis=0), last)
    cols = np.arange(cum.shape[1])
    prev = np.where(idx > 0, cum[idx - 1, cols], 0.0)
    layer = np.where(upward, last - idx, idx)
    t_star = start[layer, cols] + (required_path - prev)
    return t_star, escaped


def _walk_slabs(
    geometry: DetectorGeometry,
    oz: np.ndarray,
    dz: np.ndarray,
    lateral: np.ndarray,
    required_path: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_material_path_to_geometric` over every slab, settling rays
    at their entry slab where that gives the same bits.

    Every slab before a ray's entry slab in walk order is empty
    (:meth:`~repro.geometry.tiles.DetectorGeometry.entry_slabs`), so a
    path ``0 < required_path < `` the entry slab's length ends in it, at
    the distance the full walk computes.  A ray that leaves the lateral
    extent at or before the entry slab starts crosses no slab and
    escapes.  The rest take the full walk: paths of 0 or of at least the
    entry slab's length, and rays whose entry slab is not known (NaN,
    which compares false).

    Args:
        geometry: Slab-stack geometry.
        oz: ``(m,)`` z of the ray origins.
        dz: ``(m,)`` z of the unit ray directions.
        lateral: ``(4, m)`` the rays' lateral intervals.
        required_path: ``(m,)`` material path to consume, cm.

    Returns:
        ``(t_star, escaped)`` as :func:`_material_path_to_geometric`.
    """
    entry_in, entry_out = geometry.entry_slabs(oz, dz, lateral)
    t_star = np.maximum(entry_in, _MIN_START_CM)
    length = np.maximum(entry_out, _MIN_START_CM)
    length -= t_star
    t_star += required_path
    escaped = ~((required_path > 0) & (required_path < length))
    crosses_none = np.minimum(lateral[1], lateral[3]) <= entry_in
    full = np.nonzero(escaped & ~crosses_none)[0]
    if full.size:
        t_in, t_out = geometry.slab_intervals(oz[full], dz[full], lateral[:, full])
        t_star[full], escaped[full] = _material_path_to_geometric(
            t_in.T, t_out.T, required_path[full], dz[full] > 0
        )
    obs_metrics.inc("transport.rays_walked", oz.size)
    obs_metrics.inc("transport.rays_full_walk", full.size)
    return t_star, escaped


#: Rays per block of :func:`_interaction_distances`.
_BLOCK = 16384


def _interaction_distances(
    geometry: DetectorGeometry,
    pos: np.ndarray,
    dirs: np.ndarray,
    depth: np.ndarray,
    energies: np.ndarray,
    material: Material,
    norms: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rays that interact before leaving the stack, how far they go, and
    their Compton probability there.

    Each ray's optical ``depth`` is converted into a geometric distance on
    its own, so rays are walked (:func:`_walk_slabs`) a block at a time,
    which keeps the temporaries in cache.  ``pos`` must hold at least one
    ray.  With ``norms``, ``dirs`` are raw directions of those lengths,
    divided by them a block at a time.

    Returns:
        ``(rows, t_star, p_compton)`` — ascending indices of the rays that
        interact, the geometric distance to each interaction point (cm)
        and the Compton share of the attenuation at each ray's energy.
    """
    hit_rows, hit_dist, hit_p_compton = [], [], []
    for start in range(0, pos.shape[0], _BLOCK):
        block = slice(start, start + _BLOCK)
        block_dirs = dirs[block]
        if norms is not None:
            block_dirs = block_dirs / norms[block, None]  # reprolint: disable=NUM002 -- transport_photons rejects a zero norm before any draw
        # A ray whose bounding-box interval is empty crosses no slab: its
        # material path is exactly 0 and it escapes, as the full walk
        # would decide.  Only the rest walk the slabs.  One lateral
        # interval per ray serves the box and every slab.
        oz, dz = pos[block, 2], block_dirs[:, 2]
        lateral = geometry.lateral_intervals(pos[block], block_dirs)
        box_in, box_out = geometry.box_intervals(oz, dz, lateral)
        in_box = np.nonzero(box_out > np.maximum(box_in, _MIN_START_CM))[0]
        rows = in_box + start
        oz, dz, lateral = oz[in_box], dz[in_box], lateral[:, in_box]
        # Cross sections once per ray: the walk needs their sum and the
        # interaction step the Compton share, as interaction_probabilities
        # forms it.  The sum is > 0 at every energy (Compton never
        # vanishes); the floor only shields degenerate test materials.
        e_rows = energies[rows]
        mu_compton = compton_mu(e_rows, material)
        mu = np.maximum(
            mu_compton + photoelectric_mu(e_rows, material) + pair_mu(e_rows, material),
            np.finfo(np.float64).tiny,
        )
        t_star, escaped = _walk_slabs(geometry, oz, dz, lateral, depth[rows] / mu)
        hit = ~escaped
        hit_rows.append(rows[hit])
        hit_dist.append(t_star[hit])
        hit_p_compton.append(mu_compton[hit] / mu[hit])
    return (
        np.concatenate(hit_rows),
        np.concatenate(hit_dist),
        np.concatenate(hit_p_compton),
    )


@obs_trace.traced("physics.transport")
def transport_photons(
    geometry: DetectorGeometry,
    origins: np.ndarray,
    directions: np.ndarray,
    energies: np.ndarray,
    rng: np.random.Generator,
    material: Material = CSI,
    max_generations: int = 12,
    absorb_cutoff_mev: float = ABSORB_CUTOFF_MEV,
) -> TransportResult:
    """Transport a batch of photons through the detector.

    Args:
        geometry: Slab-stack detector geometry.
        origins: ``(n, 3)`` photon start positions, cm (typically on or
            above the top face, or on a lateral entry plane).
        directions: ``(n, 3)`` travel directions of any non-zero length;
            each is divided by its norm, and the array is not written.
        energies: ``(n,)`` photon energies, MeV.
        rng: NumPy random generator (use spawned children for parallelism).
        material: Scintillator material (all layers share it).
        max_generations: Cap on interactions per photon.
        absorb_cutoff_mev: Scattered photons below this energy are locally
            absorbed.

    Returns:
        A :class:`TransportResult` with every interaction and per-photon fate.

    Raises:
        ValueError: On non-finite origins, directions or energies, a
            zero-length direction, mismatched lengths, or an energy
            ``<= 0``.
    """
    origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    energies = np.atleast_1d(np.asarray(energies, dtype=np.float64))
    for name, values in (
        ("origins", origins),
        ("directions", directions),
        ("energies", energies),
    ):
        if not np.isfinite(values).all():
            raise ValueError(f"photon {name} must be finite")
    # Checked here, before any draw; generation 0 divides by the norms a
    # block of rays at a time, so no unit copy of every direction exists.
    norms = norm_columns(directions[:, 0], directions[:, 1], directions[:, 2])
    if np.any(norms == 0):
        raise ValueError("zero-length direction vector")
    n = origins.shape[0]
    if directions.shape[0] != n or energies.shape[0] != n:
        raise ValueError("origins, directions, energies must have equal length")
    if np.any(energies <= 0):
        raise ValueError("photon energies must be positive")
    obs_metrics.inc("transport.photons", n)

    # A photon's fate and escaped energy are kept current as it goes, so
    # nothing is written when it leaves the stack: one that never
    # interacts keeps its energy and FATE_NO_INTERACTION; an interaction
    # sets FATE_ABSORBED and 0, or FATE_ESCAPED and the scattered energy
    # for a survivor, until its next interaction or the cap.
    num_interactions = np.zeros(n, dtype=np.int64)
    fate = np.full(n, FATE_NO_INTERACTION, dtype=np.int64)
    escaped_energy = energies.copy()

    hit_photon: list[np.ndarray] = []
    hit_order: list[np.ndarray] = []
    hit_pos: list[np.ndarray] = []
    hit_edep: list[np.ndarray] = []

    # State of the live photons only, in ascending photon order: each
    # generation keeps the scattered survivors, so nothing is gathered
    # from or scattered into per-batch arrays.
    live_idx = np.arange(n)
    pos, dirs, e = origins, directions, energies
    for generation in range(max_generations):
        if live_idx.size == 0:
            break
        # Every live photon draws its optical depth, so the stream does not
        # depend on which rays the box test below culls.
        depth = rng.exponential(1.0, size=live_idx.size)

        act_rows, t_star, p_c = _interaction_distances(
            geometry, pos, dirs, depth, e, material, norms
        )
        act_idx = live_idx[act_rows]
        act_dirs = dirs[act_rows]
        if norms is not None:
            act_dirs /= norms[act_rows, None]
            norms = None  # later generations carry unit directions
        new_pos = pos[act_rows] + t_star[:, None] * act_dirs
        e_act = e[act_rows]

        u = rng.uniform(0.0, 1.0, size=act_idx.size)
        # Photoelectric and pair both terminate with full local deposition,
        # and so do sub-cutoff Compton scatters.
        ci = np.nonzero(u < p_c)[0]
        edep = e_act.copy()
        fate[act_idx] = FATE_ABSORBED
        escaped_energy[act_idx] = 0.0

        cos_t = sample_klein_nishina(e_act[ci], rng)
        e_sc = scattered_energy(e_act[ci], cos_t)
        surv = ~(e_sc < absorb_cutoff_mev)
        edep[ci[surv]] -= e_sc[surv]
        phi = rng.uniform(0.0, 2.0 * np.pi, size=ci.size)
        new_dirs = rotate_directions(act_dirs[ci], cos_t, phi)

        hit_photon.append(act_idx)
        # Every live photon has interacted once per earlier generation.
        hit_order.append(np.full(act_idx.size, generation, dtype=np.int64))
        hit_pos.append(new_pos)
        hit_edep.append(edep)
        num_interactions[act_idx] += 1

        keep = ci[surv]
        live_idx = act_idx[keep]
        pos = new_pos[keep]
        dirs = new_dirs[surv]
        e = e_sc[surv]
        fate[live_idx] = FATE_ESCAPED
        escaped_energy[live_idx] = e

    fate[live_idx] = FATE_MAX_GENERATIONS

    if hit_photon:
        photon_index = np.concatenate(hit_photon)
        order = np.concatenate(hit_order)
        positions = np.concatenate(hit_pos, axis=0)
        edeps = np.concatenate(hit_edep)
    else:
        photon_index = np.empty(0, dtype=np.int64)
        order = np.empty(0, dtype=np.int64)
        positions = np.empty((0, 3), dtype=np.float64)
        edeps = np.empty(0, dtype=np.float64)

    return TransportResult(
        photon_index=photon_index,
        order=order,
        positions=positions,
        energies=edeps,
        num_interactions=num_interactions,
        fate=fate,
        escaped_energy=escaped_energy,
    )
