"""Reference transport: the per-layer slab loop and the sorted walk.

These are the straightforward forms of ``segment_intersections``,
``_material_path_to_geometric``, the cross sections, the Klein--Nishina
sampler and ``transport_photons``: every layer tested on its own, every
ray's intervals sorted by entry distance, the pair log taken at every
energy, three uniform draws per rejection round, and every live photon
walked through the slab stack, each scatter turned in an ``np.cross``
frame.  The production code culls rays that miss the stack's bounding
box, tests the lateral extent once per ray, walks the slabs in z order
instead of sorting, logs only energies above the pair threshold, draws
a round's uniforms at once and builds scatter frames column by column.
The oracle tests assert that both give the same bits.
"""

from __future__ import annotations

import numpy as np

from repro.constants import CLASSICAL_ELECTRON_RADIUS_CM, CSI, ELECTRON_MASS_MEV, Material
from repro.geometry.tiles import DetectorGeometry
from repro.physics.compton import scattered_energy
from repro.physics.crosssections import PAIR_THRESHOLD_MEV, photoelectric_mu
from repro.physics.transport import (
    ABSORB_CUTOFF_MEV,
    FATE_ABSORBED,
    FATE_ESCAPED,
    FATE_MAX_GENERATIONS,
    FATE_NO_INTERACTION,
    TransportResult,
)
from tests.physics.frontend_oracle import rotate_directions_oracle


def klein_nishina_total_oracle(energy: np.ndarray) -> np.ndarray:
    """The closed-form Klein--Nishina total cross section, every
    subexpression formed where it appears."""
    energy = np.asarray(energy, dtype=np.float64)
    k = np.maximum(energy / ELECTRON_MASS_MEV, 1e-30)
    one_2k = 1.0 + 2.0 * k
    log_term = np.log1p(2.0 * k)
    return (
        2.0
        * np.pi
        * CLASSICAL_ELECTRON_RADIUS_CM**2
        * (
            (1.0 + k) / k**2 * (2.0 * (1.0 + k) / one_2k - log_term / k)
            + log_term / (2.0 * k)
            - (1.0 + 3.0 * k) / one_2k**2
        )
    )


def pair_mu_oracle(energy: np.ndarray, material: Material) -> np.ndarray:
    """Pair attenuation with the log taken at every energy."""
    energy = np.asarray(energy, dtype=np.float64)
    ramp = np.where(
        energy > PAIR_THRESHOLD_MEV,
        np.log(np.maximum(energy, PAIR_THRESHOLD_MEV) / PAIR_THRESHOLD_MEV),
        0.0,
    )
    return (
        material.density_g_cm3
        * 9.2e-4
        * (material.z_eff**2 / material.a_eff)
        * ramp
    )


def mu_oracle(energy: np.ndarray, material: Material) -> tuple[np.ndarray, np.ndarray]:
    """``(mu_compton, mu)``: the Compton and total attenuation, summed as
    ``(compton + photoelectric) + pair`` and floored at ``tiny``."""
    mu_c = klein_nishina_total_oracle(energy) * material.electron_density_cm3
    mu = mu_c + photoelectric_mu(energy, material) + pair_mu_oracle(energy, material)
    return mu_c, np.maximum(mu, np.finfo(np.float64).tiny)


def sample_klein_nishina_oracle(
    energy: np.ndarray, rng: np.random.Generator, max_rounds: int = 256
) -> np.ndarray:
    """Kahn's rejection sampler with three size-``m`` uniform calls per
    round and every subexpression formed where it appears."""
    energy = np.atleast_1d(np.asarray(energy, dtype=np.float64))
    out = np.empty(energy.shape[0])
    pending = np.arange(energy.shape[0])
    alpha_all = energy / ELECTRON_MASS_MEV
    for _ in range(max_rounds):
        if pending.size == 0:
            return out
        m = pending.size
        a = alpha_all[pending]
        r1 = rng.uniform(size=m)
        r2 = rng.uniform(size=m)
        r3 = rng.uniform(size=m)
        branch1 = r1 <= (1.0 + 2.0 * a) / (9.0 + 2.0 * a)
        eta = np.where(
            branch1, 1.0 + 2.0 * a * r2, (1.0 + 2.0 * a) / (1.0 + 2.0 * a * r2)
        )
        cos_t = 1.0 - (eta - 1.0) / a
        accept_p = np.where(
            branch1, 4.0 * (1.0 / eta - 1.0 / eta**2), 0.5 * (cos_t**2 + 1.0 / eta)
        )
        accept = r3 <= accept_p
        out[pending[accept]] = cos_t[accept]
        pending = pending[~accept]
    raise RuntimeError("Klein-Nishina rejection sampling did not converge")


def segment_intersections_loop(
    geometry: DetectorGeometry, origins: np.ndarray, directions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(n, L)`` slab intervals, one layer and one axis at a time."""
    origins = np.atleast_2d(origins).astype(np.float64)
    directions = np.atleast_2d(directions).astype(np.float64)
    n = origins.shape[0]
    nl = geometry.num_layers
    t_in = np.full((n, nl), np.inf)
    t_out = np.full((n, nl), -np.inf)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j, layer in enumerate(geometry.layers):
            lo = np.zeros(n)
            hi = np.full(n, np.inf)
            dz = directions[:, 2]
            oz = origins[:, 2]
            t1 = (layer.z_top - oz) / dz
            t2 = (layer.z_bottom - oz) / dz
            tz_lo = np.minimum(t1, t2)
            tz_hi = np.maximum(t1, t2)
            parallel = np.abs(dz) < 1e-300
            inside_z = layer.contains_z(oz)
            tz_lo = np.where(parallel, np.where(inside_z, 0.0, np.inf), tz_lo)
            tz_hi = np.where(parallel, np.where(inside_z, np.inf, -np.inf), tz_hi)
            lo = np.maximum(lo, tz_lo)
            hi = np.minimum(hi, tz_hi)
            for axis in (0, 1):
                d = directions[:, axis]
                o = origins[:, axis]
                t1 = (layer.half_size - o) / d
                t2 = (-layer.half_size - o) / d
                ta = np.minimum(t1, t2)
                tb = np.maximum(t1, t2)
                parallel = np.abs(d) < 1e-300
                inside_a = np.abs(o) <= layer.half_size
                ta = np.where(parallel, np.where(inside_a, 0.0, np.inf), ta)
                tb = np.where(parallel, np.where(inside_a, np.inf, -np.inf), tb)
                lo = np.maximum(lo, ta)
                hi = np.minimum(hi, tb)
            t_in[:, j] = lo
            t_out[:, j] = hi
    return t_in, t_out


def material_path_to_geometric_sorted(
    t_in: np.ndarray, t_out: np.ndarray, required_path: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(t_star, escaped)`` walking each ray's intervals sorted by entry."""
    eps = 1e-12
    start = np.maximum(t_in, eps)
    end = np.maximum(t_out, eps)
    lengths = np.maximum(end - start, 0.0)

    order = np.argsort(start, axis=1)
    start_sorted = np.take_along_axis(start, order, axis=1)
    len_sorted = np.take_along_axis(lengths, order, axis=1)
    cum = np.cumsum(len_sorted, axis=1)

    total = cum[:, -1]
    escaped = required_path >= total

    idx = np.sum(cum < required_path[:, None], axis=1)
    idx_safe = np.minimum(idx, cum.shape[1] - 1)
    rows = np.arange(cum.shape[0])
    prev = np.where(idx_safe > 0, cum[rows, idx_safe - 1], 0.0)
    t_star = start_sorted[rows, idx_safe] + (required_path - prev)
    return t_star, escaped


def transport_photons_oracle(
    geometry: DetectorGeometry,
    origins: np.ndarray,
    directions: np.ndarray,
    energies: np.ndarray,
    rng: np.random.Generator,
    material: Material = CSI,
    max_generations: int = 12,
    absorb_cutoff_mev: float = ABSORB_CUTOFF_MEV,
) -> TransportResult:
    """Every live photon walked through every slab, generation by generation."""
    origins = np.atleast_2d(np.asarray(origins, dtype=np.float64)).copy()
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64)).copy()
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    energies = np.atleast_1d(np.asarray(energies, dtype=np.float64)).copy()
    n = origins.shape[0]

    alive = np.ones(n, dtype=bool)
    num_interactions = np.zeros(n, dtype=np.int64)
    fate = np.full(n, FATE_NO_INTERACTION, dtype=np.int64)
    escaped_energy = np.zeros(n, dtype=np.float64)
    hit_photon, hit_order, hit_pos, hit_edep = [], [], [], []

    for _generation in range(max_generations):
        live_idx = np.nonzero(alive)[0]
        if live_idx.size == 0:
            break
        pos = origins[live_idx]
        dirs = directions[live_idx]
        e = energies[live_idx]

        t_in, t_out = segment_intersections_loop(geometry, pos, dirs)
        mu_c, mu = mu_oracle(e, material)
        required = rng.exponential(1.0, size=live_idx.size) / mu
        t_star, escaped = material_path_to_geometric_sorted(t_in, t_out, required)

        esc_idx = live_idx[escaped]
        alive[esc_idx] = False
        escaped_energy[esc_idx] = energies[esc_idx]
        fate[esc_idx] = np.where(
            num_interactions[esc_idx] > 0, FATE_ESCAPED, FATE_NO_INTERACTION
        )

        act = ~escaped
        act_idx = live_idx[act]
        if act_idx.size == 0:
            continue
        new_pos = pos[act] + t_star[act, None] * dirs[act]
        origins[act_idx] = new_pos
        e_act = e[act]

        p_c = mu_c[act] / mu[act]
        u = rng.uniform(0.0, 1.0, size=act_idx.size)
        is_compton = u < p_c
        edep = np.empty(act_idx.size, dtype=np.float64)
        edep[~is_compton] = e_act[~is_compton]

        if np.any(is_compton):
            ci = np.nonzero(is_compton)[0]
            cos_t = sample_klein_nishina_oracle(e_act[ci], rng)
            e_sc = scattered_energy(e_act[ci], cos_t)
            low = e_sc < absorb_cutoff_mev
            edep[ci] = np.where(low, e_act[ci], e_act[ci] - e_sc)
            phi = rng.uniform(0.0, 2.0 * np.pi, size=ci.size)
            new_dirs = rotate_directions_oracle(dirs[act][ci], cos_t, phi)
            surv_global = act_idx[ci[~low]]
            directions[surv_global] = new_dirs[~low]
            energies[surv_global] = e_sc[~low]
            dead_global = act_idx[ci[low]]
            alive[dead_global] = False
            fate[dead_global] = FATE_ABSORBED
        term_global = act_idx[~is_compton]
        alive[term_global] = False
        fate[term_global] = FATE_ABSORBED

        hit_photon.append(act_idx)
        hit_order.append(num_interactions[act_idx].copy())
        hit_pos.append(new_pos)
        hit_edep.append(edep)
        num_interactions[act_idx] += 1

    still = np.nonzero(alive)[0]
    fate[still] = FATE_MAX_GENERATIONS
    escaped_energy[still] = energies[still]

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
