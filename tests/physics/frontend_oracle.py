"""Reference simulation front end: sources, scatter frames, layer lookup
and digitization in their straightforward forms.

These build every frame with ``np.cross`` / ``np.linalg.norm`` over
``(n, 3)`` arrays, look layers up one layer at a time, test every
neighbour pair and sum every hit with ``np.bincount`` when merging hits,
and run the whole measurement chain, gain map included, on every merged
hit.  The production code forms the frames column by column, finds the
layer by counting faces, tests only same-photon pairs, adds only the
hits that merge, forms the gain in place and measures only hits of
photons that can still form an event.  The oracle tests assert that
both give the same bits and leave the random stream in the same state.
"""

from __future__ import annotations

import numpy as np

from repro.detector.response import DetectorResponse, EventSet, _empty_event_set
from repro.geometry.tiles import DetectorGeometry
from repro.physics.transport import TransportResult
from repro.sources.background import BackgroundModel
from repro.sources.grb import LABEL_BACKGROUND, PhotonBatch


def background_generate_oracle(
    model: BackgroundModel,
    geometry: DetectorGeometry,
    rng: np.random.Generator,
    n_photons: int | None = None,
) -> PhotonBatch:
    """:meth:`BackgroundModel.generate` with an ``np.cross`` plane basis."""
    side = model._plane_side(geometry)
    if n_photons is None:
        n_photons = int(rng.poisson(model.expected_photons(geometry)))
    cos_p = rng.uniform(model.cos_polar_min, 1.0, size=n_photons)
    sin_p = np.sqrt(np.clip(1.0 - cos_p**2, 0.0, 1.0))
    az = rng.uniform(0.0, 2.0 * np.pi, size=n_photons)
    src = np.stack([sin_p * np.cos(az), sin_p * np.sin(az), cos_p], axis=1)
    beam = -src

    center = np.array([0.0, 0.0, (geometry.z_top + geometry.z_bottom) / 2.0])
    dist = geometry.height + side
    a = rng.uniform(-side / 2.0, side / 2.0, size=n_photons)
    b = rng.uniform(-side / 2.0, side / 2.0, size=n_photons)
    helper = np.zeros_like(beam)
    near_x = np.abs(beam[:, 0]) > 0.9
    helper[near_x, 1] = 1.0
    helper[~near_x, 0] = 1.0
    u = np.cross(helper, beam)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.cross(beam, u)

    origins = center[None, :] + src * dist + a[:, None] * u + b[:, None] * v
    energies = model.spectrum.sample(n_photons, rng)
    times = rng.uniform(0.0, model.duration_s, size=n_photons)
    labels = np.full(n_photons, LABEL_BACKGROUND, dtype=np.int64)
    return PhotonBatch(
        origins=origins,
        directions=beam,
        energies=energies,
        times=times,
        labels=labels,
        source_direction=None,
    )


def rotate_directions_oracle(
    directions: np.ndarray, cos_theta: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """:func:`repro.physics.compton.rotate_directions` with ``np.cross``."""
    d = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    cos_theta = np.asarray(cos_theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)

    helper = np.zeros_like(d)
    near_z = np.abs(d[:, 2]) > 0.999
    helper[near_z, 0] = 1.0
    helper[~near_z, 2] = 1.0

    u = np.cross(helper, d)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.cross(d, u)

    sin_theta = np.sqrt(np.clip(1.0 - cos_theta**2, 0.0, 1.0))
    out = (
        sin_theta[:, None] * (np.cos(phi)[:, None] * u + np.sin(phi)[:, None] * v)
        + cos_theta[:, None] * d
    )
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    return out


def layer_index_loop(geometry: DetectorGeometry, points: np.ndarray) -> np.ndarray:
    """Layer of each point, one pass per layer (the last match wins)."""
    points = np.atleast_2d(points)
    idx = np.full(points.shape[0], -1, dtype=np.int64)
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    for i, layer in enumerate(geometry.layers):
        inside = (
            layer.contains_z(z)
            & (np.abs(x) <= layer.half_size)
            & (np.abs(y) <= layer.half_size)
        )
        idx[inside] = i
    return idx


def merge_close_hits_oracle(
    response: DetectorResponse,
    ph: np.ndarray,
    order: np.ndarray,
    pos: np.ndarray,
    edep: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Hit merging with the layer and distance tested on every neighbour pair."""
    if ph.shape[0] == 0:
        return ph, order, pos, edep
    layer = layer_index_loop(response.geometry, pos)
    same_photon = ph[1:] == ph[:-1]
    same_layer = (layer[1:] == layer[:-1]) & (layer[1:] >= 0)
    close = (
        np.linalg.norm(pos[1:] - pos[:-1], axis=1) < response.config.merge_radius_cm
    )
    merge_with_prev = same_photon & same_layer & close
    group = np.concatenate([[0], np.cumsum(~merge_with_prev)])
    n_groups = group[-1] + 1
    e_sum = np.bincount(group, weights=edep, minlength=n_groups)
    weighted = pos * edep[:, None]
    w_pos = np.stack(
        [
            np.bincount(group, weights=weighted[:, axis], minlength=n_groups)
            for axis in range(3)
        ],
        axis=1,
    )
    with np.errstate(invalid="ignore"):
        w_pos /= e_sum[:, None]
    first_of_group = np.concatenate([[True], ~merge_with_prev])
    return ph[first_of_group], order[first_of_group], w_pos, e_sum


def measure_position_oracle(
    response: DetectorResponse, true_positions: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize x/y and smear depth over every hit, layer by layer."""
    cfg = response.config
    geometry = response.geometry
    measured = true_positions.copy()
    measured[:, 0] = response.fiber_grid.quantize(true_positions[:, 0])
    measured[:, 1] = response.fiber_grid.quantize(true_positions[:, 1])
    layer_idx = layer_index_loop(geometry, true_positions)
    z = true_positions[:, 2].copy()
    in_layer = layer_idx >= 0
    if np.any(in_layer):
        z_bottom = np.array([layer.z_bottom for layer in geometry.layers])
        z_top = np.array([layer.z_top for layer in geometry.layers])
        owner = layer_idx[in_layer]
        draws = np.empty(owner.size)
        draws[np.argsort(owner, kind="stable")] = rng.normal(
            0.0, cfg.depth_sigma_cm, owner.size
        )
        z[in_layer] = np.clip(z[in_layer] + draws, z_bottom[owner], z_top[owner])
    measured[:, 2] = z
    sigma = np.empty_like(measured)
    sigma[:, 0] = response.fiber_grid.position_sigma_cm
    sigma[:, 1] = response.fiber_grid.position_sigma_cm
    sigma[:, 2] = cfg.depth_sigma_cm
    return measured, sigma


def gain_map_oracle(response: DetectorResponse, positions: np.ndarray) -> np.ndarray:
    """The light-collection gain as one expression of fresh temporaries."""
    cfg = response.config
    x, y = positions[:, 0], positions[:, 1]
    w = 2.0 * np.pi / cfg.nonuniformity_period_cm
    return 1.0 + cfg.nonuniformity_amplitude * np.sin(w * x) * np.sin(w * y)


def measure_energy_oracle(
    response: DetectorResponse,
    true_energy: np.ndarray,
    positions: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """The energy chain drawn and applied over every hit in one pass."""
    cfg = response.config
    gain = gain_map_oracle(response, positions)
    expected_pe = np.maximum(true_energy * gain, 0.0) * cfg.pe_per_mev
    if cfg.sipm is not None:
        charges = cfg.sipm.detect(expected_pe / cfg.sipm.pde, rng)
        cascade_gain = cfg.sipm.mean_avalanches(1.0 / cfg.sipm.pde)
        measured = (
            cfg.sipm.linearity_correction(charges) / cascade_gain / cfg.pe_per_mev
        )
        measured = measured + rng.normal(
            0.0, cfg.electronics_noise_mev, measured.shape
        )
    else:
        n_pe = rng.poisson(expected_pe)
        measured = n_pe / cfg.pe_per_mev
        measured = measured + rng.normal(
            0.0, cfg.electronics_noise_mev, measured.shape
        )
        tail = rng.uniform(size=measured.shape) < cfg.tail_probability
        measured = np.where(
            tail,
            measured + rng.normal(0.0, cfg.tail_scale, measured.shape) * true_energy,
            measured,
        )
    measured = np.maximum(measured, 0.0)
    nominal_sigma = np.sqrt(
        np.maximum(measured, 0.0) / cfg.pe_per_mev + cfg.electronics_noise_mev**2
    )
    return measured, nominal_sigma


def digitize_oracle(
    response: DetectorResponse,
    transport: TransportResult,
    batch: PhotonBatch,
    rng: np.random.Generator,
    min_hits: int = 1,
    max_hits: int = 8,
) -> EventSet:
    """:meth:`DetectorResponse.digitize` measuring every merged hit."""
    if transport.num_hits == 0:
        return _empty_event_set(batch.source_direction)

    order_key = np.lexsort((transport.order, transport.photon_index))
    ph = transport.photon_index[order_key]
    order = transport.order[order_key]
    pos = transport.positions[order_key]
    edep = transport.energies[order_key]

    ph, order, pos, edep = merge_close_hits_oracle(response, ph, order, pos, edep)

    measured_pos, sigma_pos = measure_position_oracle(response, pos, rng)
    measured_e, sigma_e = measure_energy_oracle(response, edep, pos, rng)

    keep = measured_e >= response.config.trigger_threshold_mev
    ph, order = ph[keep], order[keep]
    pos, edep = pos[keep], edep[keep]
    measured_pos, sigma_pos = measured_pos[keep], sigma_pos[keep]
    measured_e, sigma_e = measured_e[keep], sigma_e[keep]

    if ph.shape[0] == 0:
        return _empty_event_set(batch.source_direction)

    unique_ph, start_idx, counts = np.unique(ph, return_index=True, return_counts=True)
    enough = (counts >= min_hits) & (counts <= max_hits)
    unique_ph = unique_ph[enough]
    start_idx = start_idx[enough]
    counts = counts[enough]

    hit_sel = (
        np.concatenate([np.arange(s, s + c) for s, c in zip(start_idx, counts)])
        if counts.size
        else np.empty(0, dtype=np.int64)
    )

    offsets = np.concatenate([[0], np.cumsum(counts)])
    return EventSet(
        event_offsets=offsets.astype(np.int64),
        positions=measured_pos[hit_sel],
        energies=measured_e[hit_sel],
        sigma_energy=sigma_e[hit_sel],
        sigma_position=sigma_pos[hit_sel],
        true_positions=pos[hit_sel],
        true_energies=edep[hit_sel],
        true_order=order[hit_sel],
        photon_index=unique_ph,
        labels=batch.labels[unique_ph],
        photon_energy=batch.energies[unique_ph],
        source_direction=batch.source_direction,
    )
