"""Digitization: true interactions -> measured hits, grouped into events.

The response model has two kinds of noise:

* **Modeled** noise, which the reconstruction's propagation-of-error *knows
  about*: fiber-pitch position quantization, SiPM photostatistics
  (Poisson in photoelectrons), and Gaussian electronics noise.  These set
  the nominal per-hit sigmas reported alongside each measurement.
* **Unmodeled** noise, which the error model *cannot see*: a deterministic
  light-collection nonuniformity across each tile, and a heavy-tail
  response component (afterpulsing/optical-crosstalk-like).  These are the
  reason "many rings have much larger actual errors in eta than our
  estimates predict" (paper Section II) and are what the dEta network
  learns to flag.

Events are stored CSR-style (flat hit arrays + per-event offsets), the
structure-of-arrays layout the hpc-parallel guides recommend for
vectorized downstream processing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.fibers import FiberGrid
from repro.geometry.tiles import DetectorGeometry
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.physics.transport import TransportResult
from repro.sources.grb import PhotonBatch


@dataclass(frozen=True)
class ResponseConfig:
    """Tunable parameters of the measurement chain.

    Attributes:
        pe_per_mev: SiPM photoelectrons collected per MeV deposited; sets
            the Poisson energy resolution (sigma_E/E ~ 1/sqrt(pe_per_mev*E)).
        electronics_noise_mev: Gaussian electronics noise sigma per hit, MeV.
        trigger_threshold_mev: Hits measured below this are lost.
        merge_radius_cm: Same-event hits in the same layer closer than this
            are merged into one (the readout cannot separate them).
        nonuniformity_amplitude: Relative amplitude of the deterministic
            light-collection gain variation across each tile (unmodeled).
        nonuniformity_period_cm: Spatial period of the gain variation.
        tail_probability: Per-hit probability of a heavy-tail energy error
            (unmodeled).
        tail_scale: Relative sigma of the heavy-tail component.
        depth_sigma_cm: Gaussian smearing of the reconstructed depth (z)
            within a tile, in addition to tile-center assignment.
        sipm: Optional mechanistic SiPM model
            (:class:`repro.detector.sipm.SiPMModel`).  When set, the
            photostatistics *and* the heavy tail come from the SiPM's
            crosstalk/afterpulsing cascade instead of the Poisson +
            ``tail_probability`` parameterization (which is then ignored).
    """

    pe_per_mev: float = 1200.0
    electronics_noise_mev: float = 0.005
    trigger_threshold_mev: float = 0.025
    merge_radius_cm: float = 0.9
    nonuniformity_amplitude: float = 0.06
    nonuniformity_period_cm: float = 11.0
    tail_probability: float = 0.10
    tail_scale: float = 0.18
    depth_sigma_cm: float = 0.35
    sipm: "object | None" = None


@dataclass
class EventSet:
    """Digitized events in CSR layout.

    ``event_offsets[i]:event_offsets[i+1]`` slices the flat hit arrays for
    event ``i``.  Hits within an event are ordered by true interaction
    order (reconstruction re-orders them itself; the truth ordering is kept
    for training labels and diagnostics).

    Attributes:
        event_offsets: ``(n_events + 1,)`` hit-slice boundaries.
        positions: ``(k, 3)`` measured hit positions, cm.
        energies: ``(k,)`` measured deposited energies, MeV.
        sigma_energy: ``(k,)`` nominal (modeled-only) energy sigmas, MeV.
        sigma_position: ``(k, 3)`` nominal position sigmas, cm.
        true_positions: ``(k, 3)`` true interaction positions, cm.
        true_energies: ``(k,)`` true deposited energies, MeV.
        true_order: ``(k,)`` true interaction order within the event.
        photon_index: ``(n_events,)`` index into the originating batch.
        labels: ``(n_events,)`` truth label (LABEL_GRB / LABEL_BACKGROUND).
        photon_energy: ``(n_events,)`` true primary photon energy, MeV.
        source_direction: True GRB direction (unit 3-vector) or None.
    """

    event_offsets: np.ndarray
    positions: np.ndarray
    energies: np.ndarray
    sigma_energy: np.ndarray
    sigma_position: np.ndarray
    true_positions: np.ndarray
    true_energies: np.ndarray
    true_order: np.ndarray
    photon_index: np.ndarray
    labels: np.ndarray
    photon_energy: np.ndarray
    source_direction: np.ndarray | None = None

    @property
    def num_events(self) -> int:
        return int(self.event_offsets.shape[0] - 1)

    @property
    def num_hits(self) -> int:
        return int(self.positions.shape[0])

    def hits_per_event(self) -> np.ndarray:
        """``(n_events,)`` hit multiplicity of each event."""
        return np.diff(self.event_offsets)

    def sum_per_event(self, values: np.ndarray) -> np.ndarray:
        """``(n_events,)`` sums of a per-hit quantity over each event's hits.

        ``np.bincount`` adds each event's hits in hit order starting from
        0.0, as ``np.add.at`` does, so the sums are the same bit for bit.

        Args:
            values: ``(num_hits,)`` per-hit values, e.g. ``energies``.
        """
        n = self.num_events
        segment = np.repeat(np.arange(n), self.hits_per_event())
        return np.bincount(segment, weights=values, minlength=n)

    def event_slice(self, i: int) -> slice:
        """Slice of the flat hit arrays belonging to event ``i``."""
        return slice(int(self.event_offsets[i]), int(self.event_offsets[i + 1]))

    def select(self, mask: np.ndarray) -> "EventSet":
        """Return a new EventSet keeping only events where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self.num_events:
            raise ValueError("mask length must equal num_events")
        counts = self.hits_per_event()
        hit_mask = np.repeat(mask, counts)
        new_counts = counts[mask]
        offsets = np.concatenate([[0], np.cumsum(new_counts)])
        return EventSet(
            event_offsets=offsets,
            positions=self.positions[hit_mask],
            energies=self.energies[hit_mask],
            sigma_energy=self.sigma_energy[hit_mask],
            sigma_position=self.sigma_position[hit_mask],
            true_positions=self.true_positions[hit_mask],
            true_energies=self.true_energies[hit_mask],
            true_order=self.true_order[hit_mask],
            photon_index=self.photon_index[mask],
            labels=self.labels[mask],
            photon_energy=self.photon_energy[mask],
            source_direction=self.source_direction,
        )


@dataclass(frozen=True)
class DetectorResponse:
    """Applies the measurement chain to transport output.

    Frozen, so the fiber grid checked at construction is the one used.

    Attributes:
        geometry: Detector geometry (for layer/z assignment).
        config: Response parameters.
        fiber_grid: Lateral position quantization grid.  Its fibers span
            the geometry's tiles: by default the ADAPT fiber pitch over
            ``geometry.half_size``.

    Raises:
        ValueError: If ``fiber_grid`` covers another half-size than the
            geometry's tiles.
    """

    geometry: DetectorGeometry
    config: ResponseConfig = field(default_factory=ResponseConfig)
    fiber_grid: FiberGrid | None = None

    def __post_init__(self) -> None:
        half = self.geometry.half_size
        if self.fiber_grid is None:
            object.__setattr__(self, "fiber_grid", FiberGrid(half_size_cm=half))
        elif self.fiber_grid.half_size_cm != half:
            raise ValueError(
                f"fiber grid half-size {self.fiber_grid.half_size_cm} cm differs "
                f"from the tiles' {half} cm"
            )

    # -- individual effects (public so tests can probe each in isolation) ----

    def gain_map(self, positions: np.ndarray) -> np.ndarray:
        """Deterministic light-collection gain at the given positions.

        A smooth sinusoidal variation across the tile in x and y; the error
        model assumes gain = 1 everywhere, so this is *unmodeled*.
        """
        cfg = self.config
        w = 2.0 * np.pi / cfg.nonuniformity_period_cm
        # 1 + amplitude * sin(w x) * sin(w y), in that order, in place.
        gain = np.multiply(w, positions[:, 0])
        np.sin(gain, out=gain)
        gain *= cfg.nonuniformity_amplitude
        sin_y = np.multiply(w, positions[:, 1])
        gain *= np.sin(sin_y, out=sin_y)
        gain += 1.0
        return gain

    def measure_energy(
        self, true_energy: np.ndarray, positions: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Smear deposited energies through the full response chain.

        Returns:
            Tuple ``(measured, nominal_sigma)``; ``nominal_sigma`` reflects
            only the modeled noise (photostatistics + electronics).
        """
        draws = self._draw_energy_noise(true_energy, positions, rng)
        return self._apply_energy_noise(true_energy, draws)

    def _draw_energy_noise(
        self, true_energy: np.ndarray, positions: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, ...]:
        """Every random draw of :meth:`measure_energy`, one row per hit.

        The draws cover every hit, in the order the chain consumes them:
        each Poisson count takes a number of raw draws that depends on its
        mean, so the means of every hit are needed to keep the stream.
        :meth:`_apply_energy_noise` turns any subset of the rows into
        measurements.
        """
        cfg = self.config
        gain = self.gain_map(positions)
        expected_pe = np.maximum(true_energy * gain, 0.0) * cfg.pe_per_mev
        if cfg.sipm is not None:
            # Mechanistic path: the SiPM cascade supplies both the
            # photostatistics and the heavy tail.  detect() works in
            # primary-avalanche units, so feed it the photon count that
            # yields cfg.pe_per_mev primaries per MeV after its PDE.
            charges = cfg.sipm.detect(expected_pe / cfg.sipm.pde, rng)
            electronics = rng.normal(0.0, cfg.electronics_noise_mev, charges.shape)
            return charges, electronics
        n_pe = rng.poisson(expected_pe)
        electronics = rng.normal(0.0, cfg.electronics_noise_mev, n_pe.shape)
        tail_u = rng.uniform(size=n_pe.shape)
        tail_noise = rng.normal(0.0, cfg.tail_scale, n_pe.shape)
        return n_pe, electronics, tail_u, tail_noise

    def _apply_energy_noise(
        self, true_energy: np.ndarray, draws: tuple[np.ndarray, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(measured, nominal_sigma)`` from rows of :meth:`_draw_energy_noise`."""
        cfg = self.config
        if cfg.sipm is not None:
            charges, electronics = draws
            # The mean crosstalk/afterpulse gain is calibrated out (as a
            # real energy calibration would); the cascade's variance and
            # tails remain.
            cascade_gain = cfg.sipm.mean_avalanches(1.0 / cfg.sipm.pde)
            measured = (
                cfg.sipm.linearity_correction(charges)
                / cascade_gain
                / cfg.pe_per_mev
            )
            measured = measured + electronics
        else:
            n_pe, electronics, tail_u, tail_noise = draws
            measured = n_pe / cfg.pe_per_mev
            measured = measured + electronics
            # Heavy-tail (unmodeled) component.
            tail = tail_u < cfg.tail_probability
            measured = np.where(tail, measured + tail_noise * true_energy, measured)
        measured = np.maximum(measured, 0.0)
        nominal_sigma = np.sqrt(
            np.maximum(measured, 0.0) / cfg.pe_per_mev + cfg.electronics_noise_mev**2
        )
        return measured, nominal_sigma

    @obs_trace.traced("response.measure_position")
    def measure_position(
        self, true_positions: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Quantize lateral coordinates; smear and tile-assign depth.

        Returns:
            Tuple ``(measured, nominal_sigma)`` with shapes ``(k, 3)``.
        """
        layer_idx = self.geometry.layer_index(true_positions)
        depth = self._draw_depth(layer_idx, rng)
        return self._apply_position(true_positions, layer_idx, depth)

    def _draw_depth(self, layer_idx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Depth-smearing normal of every in-layer hit, one row per hit.

        Normals are consumed grouped by layer, stable within a layer, so
        the RNG stream is bit-compatible with a per-layer loop
        (Generator.normal streams identically across call boundaries).
        Rows of hits outside any layer hold 0 and are never used.
        """
        draws = np.zeros(layer_idx.shape[0])
        in_layer = np.flatnonzero(layer_idx >= 0)
        if in_layer.size:
            # Layer indices fit a small unsigned type, which numpy's
            # stable argsort orders by radix sort.
            small = np.min_scalar_type(self.geometry.num_layers - 1)
            owner = layer_idx[in_layer].astype(small)
            draws[in_layer[np.argsort(owner, kind="stable")]] = rng.normal(
                0.0, self.config.depth_sigma_cm, in_layer.size
            )
        return draws

    def _apply_position(
        self, true_positions: np.ndarray, layer_idx: np.ndarray, depth: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(measured, nominal_sigma)`` from rows of :meth:`_draw_depth`.

        Depth: Gaussian smear of the within-tile estimate, clipped to the
        owning tile (hits outside any layer keep their true depth).
        """
        cfg = self.config
        measured = np.empty_like(true_positions)
        measured[:, 0] = self.fiber_grid.quantize(true_positions[:, 0])
        measured[:, 1] = self.fiber_grid.quantize(true_positions[:, 1])
        z = true_positions[:, 2].copy()
        in_layer = layer_idx >= 0
        if np.any(in_layer):
            z_bottom = np.array([layer.z_bottom for layer in self.geometry.layers])
            z_top = np.array([layer.z_top for layer in self.geometry.layers])
            owner = layer_idx[in_layer]
            z[in_layer] = np.clip(
                z[in_layer] + depth[in_layer], z_bottom[owner], z_top[owner]
            )
        measured[:, 2] = z
        sigma = np.empty_like(measured)
        sigma[:, 0] = self.fiber_grid.position_sigma_cm
        sigma[:, 1] = self.fiber_grid.position_sigma_cm
        sigma[:, 2] = cfg.depth_sigma_cm
        return measured, sigma

    # -- full digitization ----------------------------------------------------

    @obs_trace.traced("response.digitize")
    def digitize(
        self,
        transport: TransportResult,
        batch: PhotonBatch,
        rng: np.random.Generator,
        min_hits: int = 1,
        max_hits: int = 8,
    ) -> EventSet:
        """Run the full measurement chain over a transport result.

        Steps: sort hits by (photon, order); merge same-layer hits closer
        than ``merge_radius_cm``; apply position and energy measurement;
        drop hits below the trigger threshold; group surviving hits into
        events and keep events with ``min_hits`` to ``max_hits`` hits
        (higher multiplicities — essentially only pile-up — are flagged
        unreconstructable and discarded, as the flight event filter
        would).

        The threshold only removes hits, so a photon with fewer than
        ``min_hits`` merged hits never forms an event.  Every random draw
        still covers every merged hit, in the order
        :meth:`measure_position` then :meth:`measure_energy` take them,
        but only the other photons' hits are measured.

        Args:
            transport: Raw interaction record.
            batch: The photon batch that produced it (for truth labels).
            rng: Random generator.
            min_hits: Minimum measured hits for an event to be retained.
            max_hits: Maximum measured hits for an event to be retained.

        Returns:
            An :class:`EventSet`.
        """
        if transport.num_hits == 0:
            return _empty_event_set(batch.source_direction)

        obs_metrics.inc("response.hits", transport.num_hits)
        first, pos, edep = self._merge_close_hits(
            transport, np.lexsort((transport.order, transport.photon_index))
        )
        ph, order = transport.photon_index.take(first), transport.order.take(first)
        # Hits folded into the hit before them.
        obs_metrics.inc("response.hits_merged", transport.num_hits - ph.shape[0])

        layer_idx = self.geometry.layer_index(pos)
        depth = self._draw_depth(layer_idx, rng)
        energy_draws = self._draw_energy_noise(edep, pos, rng)

        _, counts = _runs(ph)
        rows = np.flatnonzero(np.repeat(counts >= min_hits, counts))
        obs_metrics.inc("response.hits_measured", rows.size)
        ph, order, edep = ph.take(rows), order.take(rows), edep.take(rows)
        pos = pos.take(rows, axis=0)
        measured_pos, sigma_pos = self._apply_position(
            pos, layer_idx.take(rows), depth.take(rows)
        )
        measured_e, sigma_e = self._apply_energy_noise(
            edep, tuple(draw.take(rows) for draw in energy_draws)
        )

        keep = np.flatnonzero(measured_e >= self.config.trigger_threshold_mev)
        if keep.size == 0:
            return _empty_event_set(batch.source_direction)

        # Group hits into events (hits are already sorted by photon).
        starts, counts = _runs(ph.take(keep))
        enough = (counts >= min_hits) & (counts <= max_hits)
        starts, counts = starts[enough], counts[enough]
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # Measured rows of the kept events' hits, in order.
        hit_sel = keep.take(
            np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], counts)
        )
        unique_ph = ph.take(keep.take(starts))
        return EventSet(
            event_offsets=offsets,
            positions=measured_pos.take(hit_sel, axis=0),
            energies=measured_e.take(hit_sel),
            sigma_energy=sigma_e.take(hit_sel),
            sigma_position=sigma_pos.take(hit_sel, axis=0),
            true_positions=pos.take(hit_sel, axis=0),
            true_energies=edep.take(hit_sel),
            true_order=order.take(hit_sel),
            photon_index=unique_ph,
            labels=batch.labels.take(unique_ph),
            photon_energy=batch.energies.take(unique_ph),
            source_direction=batch.source_direction,
        )

    def _merge_close_hits(
        self, transport: TransportResult, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Merge consecutive same-photon, same-layer hits that are too close
        for the readout to separate.

        ``rows`` lists the transport's hits sorted by (photon, order).
        Merging is greedy over consecutive pairs, which matches the
        physical situation (a scatter followed immediately by absorption
        in the same tile).  Only pairs from one photon can merge, so only
        they are tested.  A merged hit is its group's energy-weighted
        position and summed energy; the sums are formed as ``np.bincount``
        over every hit would form them, but only the hits that merge are
        added, and no sorted copy of the hit arrays is made.

        Returns:
            ``(first, pos, edep)`` — the transport row of each merged
            hit's first hit (in ``rows`` order), and the merged hits'
            ``(m, 3)`` positions and ``(m,)`` energies.
        """
        ph = transport.photon_index.take(rows)
        pair = np.flatnonzero(ph[1:] == ph[:-1])
        prev = transport.positions.take(rows.take(pair), axis=0)
        this = transport.positions.take(rows.take(pair + 1), axis=0)
        layer = self.geometry.layer_index(this)
        close = (
            (layer == self.geometry.layer_index(prev))
            & (layer >= 0)
            & (np.linalg.norm(this - prev, axis=1) < self.config.merge_radius_cm)
        )
        # Sorted hits that merge into the one before them, ascending; the
        # k-th of them (from 0) joins group merged[k] - (k + 1).
        merged = pair.take(np.flatnonzero(close)) + 1
        is_first = np.ones(ph.shape[0], dtype=bool)
        is_first[merged] = False
        first = rows.take(np.flatnonzero(is_first))
        # Each group's sums as np.bincount forms them: from 0.0, in hit
        # order.  The group's first hit starts it (0.0 + x turns a -0.0
        # into +0.0), and np.add.at adds the merging hits in index order.
        e_first = transport.energies.take(first)
        e_sum = e_first + 0.0
        w_pos = transport.positions.take(first, axis=0)
        w_pos *= e_first[:, None]
        w_pos += 0.0
        group = merged - np.arange(1, merged.size + 1)
        merged_rows = rows.take(merged)
        e_merged = transport.energies.take(merged_rows)
        np.add.at(e_sum, group, e_merged)
        # On the flat array: x, y, z of each merging hit in turn.
        w_merged = transport.positions.take(merged_rows, axis=0)
        w_merged *= e_merged[:, None]
        flat = (3 * group)[:, None] + np.arange(3)
        np.add.at(w_pos.reshape(-1), flat.reshape(-1), w_merged.reshape(-1))
        with np.errstate(invalid="ignore"):
            w_pos /= e_sum[:, None]
        return first, w_pos, e_sum


def _runs(sorted_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of each run of equal values in a non-empty
    sorted array."""
    starts = np.concatenate([[0], np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1])
    return starts, np.diff(starts, append=sorted_ids.shape[0])


def _empty_event_set(source_direction: np.ndarray | None) -> EventSet:
    return EventSet(
        event_offsets=np.zeros(1, dtype=np.int64),
        positions=np.empty((0, 3)),
        energies=np.empty(0),
        sigma_energy=np.empty(0),
        sigma_position=np.empty((0, 3)),
        true_positions=np.empty((0, 3)),
        true_energies=np.empty(0),
        true_order=np.empty(0, dtype=np.int64),
        photon_index=np.empty(0, dtype=np.int64),
        labels=np.empty(0, dtype=np.int64),
        photon_energy=np.empty(0),
        source_direction=source_direction,
    )
