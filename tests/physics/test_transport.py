"""Tests for the Monte-Carlo photon transport."""

import numpy as np
import pytest

import repro.obs as obs
from repro.geometry.tiles import adapt_geometry, apt_geometry
from repro.obs.metrics import REGISTRY
from repro.physics.transport import (
    FATE_ABSORBED,
    FATE_ESCAPED,
    FATE_NO_INTERACTION,
    _material_path_to_geometric,
    _walk_slabs,
    transport_photons,
)
from repro.sources.background import BackgroundModel
from repro.sources.grb import GRBSource, PhotonBatch
from tests.geometry.test_tiles import (
    STACKS,
    _edge_rays,
    _random_rays,
    entry_rays,
    first_nonempty_slab,
    grazing_face_rays,
)
from tests.physics.transport_oracle import (
    material_path_to_geometric_sorted,
    segment_intersections_loop,
    transport_photons_oracle,
)

RESULT_FIELDS = (
    "photon_index",
    "order",
    "positions",
    "energies",
    "num_interactions",
    "fate",
    "escaped_energy",
)


def _vertical_batch(geometry, rng, n=5000, energy=0.5):
    half = geometry.half_size * 0.9
    origins = np.stack(
        [
            rng.uniform(-half, half, n),
            rng.uniform(-half, half, n),
            np.full(n, 1.0),
        ],
        axis=1,
    )
    directions = np.tile([0.0, 0.0, -1.0], (n, 1))
    energies = np.full(n, energy)
    return origins, directions, energies


class TestTransportBasics:
    def test_missing_photons_never_interact(self, geometry):
        rng = np.random.default_rng(0)
        origins = np.array([[200.0, 0.0, 1.0]])
        directions = np.array([[0.0, 0.0, -1.0]])
        res = transport_photons(geometry, origins, directions, np.array([1.0]), rng)
        assert res.num_hits == 0
        assert res.fate[0] == FATE_NO_INTERACTION
        assert res.escaped_energy[0] == pytest.approx(1.0)

    def test_hits_inside_scintillator(self, geometry):
        rng = np.random.default_rng(1)
        res = transport_photons(geometry, *_vertical_batch(geometry, rng), rng=rng)
        assert res.num_hits > 0
        assert np.all(geometry.contains(res.positions))

    def test_energy_conservation_absorbed(self, geometry):
        rng = np.random.default_rng(2)
        origins, dirs, energies = _vertical_batch(geometry, rng)
        res = transport_photons(geometry, origins, dirs, energies, rng)
        sums = np.zeros(len(energies))
        np.add.at(sums, res.photon_index, res.energies)
        absorbed = res.fate == FATE_ABSORBED
        assert np.allclose(sums[absorbed], energies[absorbed])

    def test_energy_conservation_escaped(self, geometry):
        rng = np.random.default_rng(3)
        origins, dirs, energies = _vertical_batch(geometry, rng)
        res = transport_photons(geometry, origins, dirs, energies, rng)
        sums = np.zeros(len(energies))
        np.add.at(sums, res.photon_index, res.energies)
        escaped = res.fate == FATE_ESCAPED
        assert np.any(escaped)
        assert np.allclose(
            sums[escaped] + res.escaped_energy[escaped], energies[escaped]
        )

    def test_deposits_positive(self, geometry):
        rng = np.random.default_rng(4)
        res = transport_photons(geometry, *_vertical_batch(geometry, rng), rng=rng)
        assert np.all(res.energies > 0)

    def test_order_counts_consecutive(self, geometry):
        rng = np.random.default_rng(5)
        res = transport_photons(geometry, *_vertical_batch(geometry, rng), rng=rng)
        multi = np.nonzero(res.num_interactions >= 2)[0][:50]
        for p in multi:
            hits = res.hits_of(int(p))
            assert np.array_equal(
                res.order[hits], np.arange(res.num_interactions[p])
            )

    def test_deterministic_same_seed(self, geometry):
        o, d, e = _vertical_batch(geometry, np.random.default_rng(6), n=500)
        r1 = transport_photons(geometry, o, d, e, np.random.default_rng(7))
        r2 = transport_photons(geometry, o, d, e, np.random.default_rng(7))
        assert np.array_equal(r1.positions, r2.positions)
        assert np.array_equal(r1.fate, r2.fate)


class TestTransportPhysics:
    def test_interaction_fraction_reasonable(self, geometry):
        """~6 cm CsI at 0.5 MeV: interaction prob = 1 - exp(-mu * 6)."""
        from repro.constants import CSI
        from repro.physics.crosssections import total_mu

        rng = np.random.default_rng(8)
        o, d, e = _vertical_batch(geometry, rng, n=20000, energy=0.5)
        res = transport_photons(geometry, o, d, e, rng)
        frac = (res.num_interactions > 0).mean()
        path = geometry.num_layers * geometry.layers[0].thickness
        expected = 1.0 - np.exp(-total_mu(0.5, CSI) * path)
        assert frac == pytest.approx(expected, abs=0.02)

    def test_multi_compton_events_exist(self, geometry):
        rng = np.random.default_rng(9)
        res = transport_photons(geometry, *_vertical_batch(geometry, rng), rng=rng)
        assert (res.num_interactions >= 2).sum() > 50

    def test_low_energy_mostly_single_hit(self, geometry):
        """Photoelectric dominates at 60 keV: single-hit absorption."""
        rng = np.random.default_rng(10)
        o, d, e = _vertical_batch(geometry, rng, n=5000, energy=0.06)
        res = transport_photons(geometry, o, d, e, rng)
        interacting = res.num_interactions[res.num_interactions > 0]
        assert (interacting == 1).mean() > 0.8

    def test_max_generations_respected(self, geometry):
        rng = np.random.default_rng(11)
        o, d, e = _vertical_batch(geometry, rng, n=2000, energy=5.0)
        res = transport_photons(geometry, o, d, e, rng, max_generations=3)
        assert res.num_interactions.max() <= 3


class TestTransportValidation:
    def test_rejects_zero_direction(self, geometry):
        with pytest.raises(ValueError):
            transport_photons(
                geometry,
                np.zeros((1, 3)),
                np.zeros((1, 3)),
                np.array([1.0]),
                np.random.default_rng(0),
            )

    def test_rejects_nonpositive_energy(self, geometry):
        with pytest.raises(ValueError):
            transport_photons(
                geometry,
                np.zeros((1, 3)),
                np.array([[0.0, 0.0, -1.0]]),
                np.array([0.0]),
                np.random.default_rng(0),
            )

    def test_rejects_length_mismatch(self, geometry):
        with pytest.raises(ValueError):
            transport_photons(
                geometry,
                np.zeros((2, 3)),
                np.array([[0.0, 0.0, -1.0]]),
                np.array([1.0, 1.0]),
                np.random.default_rng(0),
            )

    @pytest.mark.parametrize(
        "name, values",
        [
            pytest.param("origins", [[np.nan, 0.0, 1.0]], id="nan-origin"),
            pytest.param("origins", [[0.0, 0.0, np.inf]], id="inf-origin"),
            pytest.param("directions", [[0.0, np.nan, -1.0]], id="nan-direction"),
            pytest.param("directions", [[0.0, 0.0, -np.inf]], id="inf-direction"),
            pytest.param("energies", [np.nan], id="nan-energy"),
            pytest.param("energies", [np.inf], id="inf-energy"),
        ],
    )
    def test_rejects_non_finite_input(self, geometry, name, values):
        batch = {
            "origins": np.array([[0.0, 0.0, 1.0]]),
            "directions": np.array([[0.0, 0.0, -1.0]]),
            "energies": np.array([1.0]),
        }
        batch[name] = values
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            transport_photons(geometry, rng=np.random.default_rng(0), **batch)


def _recipe_batch(instrument, k, polar=None):
    """Bench-recipe exposure ``k``: a burst plus the instrument's background,
    the burst at the recipe's polar angle unless ``polar`` is given."""
    rng = np.random.default_rng([2024, 18, k])
    if instrument == "adapt":
        geometry = adapt_geometry()
        fluence = (0.1, 0.4, 0.8, 1.2)[k]
        polar = 30.0 if polar is None else polar
        background = BackgroundModel()
    else:
        geometry = apt_geometry()
        fluence = (0.05, 0.1, 0.2, 0.3)[k]
        polar = 20.0 if polar is None else polar
        background = BackgroundModel(flux_per_cm2_s=1.0, cos_polar_min=0.0)
    grb = GRBSource(
        fluence_mev_cm2=fluence,
        polar_angle_deg=polar,
        azimuth_deg=float(rng.uniform(0.0, 360.0)),
    )
    batch = PhotonBatch.concatenate(
        [grb.generate(geometry, rng), background.generate(geometry, rng)]
    )
    return geometry, batch.origins, batch.directions, batch.energies


def _assert_same_transport(geometry, origins, directions, energies, seed, **kw):
    rng_new = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    got = transport_photons(geometry, origins, directions, energies, rng_new, **kw)
    want = transport_photons_oracle(
        geometry, origins, directions, energies, rng_ref, **kw
    )
    for field in RESULT_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
    # The random stream is left where the full walk leaves it.
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return got


class TestTransportOracle:
    """Culling, the shared lateral test and the z-order walk change no bit."""

    # The recipe's polar angle, then a burst from the zenith (entering
    # mostly through the top face) and one at 85 degrees (mostly through
    # the sides, at every height of the stack).
    @pytest.mark.parametrize(
        "k, polar",
        [
            *(pytest.param(k, None, id=str(k)) for k in range(4)),
            pytest.param(3, 0.0, id="3-polar0"),
            pytest.param(3, 85.0, id="3-polar85"),
        ],
    )
    @pytest.mark.parametrize("instrument", ["adapt", "apt"])
    def test_recipe_exposures_match_full_walk(self, instrument, k, polar):
        geometry, origins, directions, energies = _recipe_batch(instrument, k, polar)
        res = _assert_same_transport(
            geometry, origins, directions, energies, seed=[7, k]
        )
        # The exposure exercises the cull: many rays never interact.
        assert np.mean(res.fate == FATE_NO_INTERACTION) > 0.3

    @pytest.mark.parametrize("energy", [0.06, 0.5, 5.0])
    def test_vertical_batches_match_full_walk(self, geometry, energy):
        origins, directions, energies = _vertical_batch(
            geometry, np.random.default_rng(12), n=3000, energy=energy
        )
        _assert_same_transport(geometry, origins, directions, energies, seed=13)

    def test_touching_layers_and_generation_cap(self):
        geometry = adapt_geometry(num_layers=6, layer_gap_cm=0.0)
        rng = np.random.default_rng(14)
        n = 3000
        origins = rng.uniform(-30.0, 30.0, size=(n, 3)) + [0.0, 0.0, -5.0]
        directions = rng.normal(size=(n, 3))
        energies = rng.uniform(0.05, 8.0, n)
        _assert_same_transport(
            geometry, origins, directions, energies, seed=15, max_generations=3
        )

    @pytest.mark.parametrize("num_layers, gap", [(4, 10.0), (20, 0.0)])
    def test_z_order_walk_matches_sorted_walk(self, num_layers, gap):
        geometry = adapt_geometry(num_layers=num_layers, layer_gap_cm=gap)
        rng = np.random.default_rng(16)
        n = 5000
        origins = rng.uniform(-40.0, 20.0, size=(n, 3))
        directions = rng.normal(size=(n, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        t_in, t_out = segment_intersections_loop(geometry, origins, directions)
        required = rng.exponential(1.0, n) * 3.0
        assert np.all(required > 0)
        got = _material_path_to_geometric(
            t_in, t_out, required, directions[:, 2] > 0
        )
        want = material_path_to_geometric_sorted(t_in, t_out, required)
        np.testing.assert_array_equal(got[1], want[1])
        live = ~want[1]
        assert live.sum() > 100
        assert got[0][live].tobytes() == want[0][live].tobytes()


def _far_face_rays(geo):
    """Photons on the far face of a slab, as after an interaction there,
    and one ulp either side of it, heading on through the stack."""
    rays = []
    for layer in geo.layers:
        for face, dz in ((layer.z_bottom, -1.0), (layer.z_top, 1.0)):
            for z in (face, np.nextafter(face, -np.inf), np.nextafter(face, np.inf)):
                for d in ([0.0, 0.0, dz], [0.3, -0.2, dz], [0.9, 0.1, 0.05 * dz]):
                    rays.append(([0.5, -0.5, z], d))
    return rays


def _gap_only_rays(geo):
    """Rays that enter the box laterally in a gap and leave it there."""
    half = geo.half_size
    rays = []
    for upper, lower in zip(geo.layers, geo.layers[1:]):
        if upper.z_bottom > lower.z_top:
            z = 0.5 * (upper.z_bottom + lower.z_top)
            for dz in (-0.005, 0.005):
                rays.append(([-half - 1.0, 0.2, z], [1.0, 0.1, dz]))
            # Across a corner of the box.
            rays.append(([-half - 0.5, half - 1.0, z], [1.0, 1.0, 0.001]))
    return rays


def _near_parallel_rays(geo):
    """Rays at and around the parallel cut ``|dz| < 1e-300``, from the
    side and from inside slabs, gaps and faces.  ``[0.8, 0.6, dz]`` has
    norm 1, so the tiny components are kept exactly."""
    half = geo.half_size
    heights = [0.5 * (layer.z_top + layer.z_bottom) for layer in geo.layers]
    heights += [geo.layers[0].z_bottom, geo.z_top, geo.z_bottom]
    heights += [
        0.5 * (upper.z_bottom + lower.z_top)
        for upper, lower in zip(geo.layers, geo.layers[1:])
    ]
    rays = []
    for z in heights:
        for dz in (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-300, 1e-300, -1e-200, 1e-200):
            rays.append(([-half - 1.0, 0.1, z], [0.8, 0.6, dz]))
            rays.append(([0.1, 0.2, z], [-0.8, 0.6, dz]))
    return rays


def _walk_rays(geo):
    """Every ray family the entry step has to get right, as (origins, dirs)."""
    families = [
        entry_rays(geo),
        grazing_face_rays(geo),
        _edge_rays(geo),
        _random_rays(geo, np.random.default_rng(43)),
    ]
    for rays in (_far_face_rays(geo), _gap_only_rays(geo), _near_parallel_rays(geo)):
        if rays:
            families.append(
                (
                    np.array([r[0] for r in rays], dtype=np.float64),
                    np.array([r[1] for r in rays], dtype=np.float64),
                )
            )
    origins, directions = (np.concatenate(parts) for parts in zip(*families))
    # Only unit vectors reach the walk; the near-parallel rays already are.
    norms = np.linalg.norm(directions, axis=1)
    directions[norms != 1.0] /= norms[norms != 1.0, None]
    return origins, directions


def _walk(geo, origins, directions, required):
    """``_walk_slabs`` on the rays, with its two counters."""
    lateral = geo.lateral_intervals(origins, directions)
    obs.enable()
    try:
        got = _walk_slabs(geo, origins[:, 2], directions[:, 2], lateral, required)
        counters = REGISTRY.dump()["counters"]
    finally:
        obs.disable()
    return got, counters["transport.rays_walked"], counters["transport.rays_full_walk"]


def _assert_same_walk(got, want):
    np.testing.assert_array_equal(got[1], want[1])
    live = ~want[1]
    assert got[0][live].tobytes() == want[0][live].tobytes()


@pytest.mark.parametrize("name", sorted(STACKS))
class TestEntrySlabWalk:
    """Settling rays at their entry slab gives the full walk's bits."""

    @pytest.mark.parametrize("scale", [0.3, 3.0])
    def test_matches_sorted_walk(self, name, scale):
        geo = STACKS[name]
        origins, directions = _walk_rays(geo)
        required = np.random.default_rng(44).exponential(scale, origins.shape[0])
        assert np.all(required > 0)
        got, walked, full = _walk(geo, origins, directions, required)
        t_in, t_out = segment_intersections_loop(geo, origins, directions)
        want = material_path_to_geometric_sorted(t_in, t_out, required)
        _assert_same_walk(got, want)
        assert walked == origins.shape[0]
        assert 0 < full < walked
        assert (~want[1]).sum() > 100

    def test_entry_rays_skip_the_full_walk(self, name):
        # A short path ends in the entry slab of every ray that has one,
        # upward or downward; the others cross no slab and escape.
        geo = STACKS[name]
        origins, directions = entry_rays(geo)
        required = np.full(origins.shape[0], 1e-3)
        got, walked, full = _walk(geo, origins, directions, required)
        t_in, t_out = segment_intersections_loop(geo, origins, directions)
        want = material_path_to_geometric_sorted(t_in, t_out, required)
        _assert_same_walk(got, want)
        assert walked == origins.shape[0]
        assert full == 0
        assert (~want[1]).sum() > origins.shape[0] // 2

    def test_required_zero_matches_z_order_walk(self, name):
        # At a path of exactly 0 the z-order walk answers the entry of the
        # first slab in walk order, even an empty one (rays entering at
        # mid-stack have one); settling at the entry slab would not.
        geo = STACKS[name]
        origins, directions = _walk_rays(geo)
        required = np.zeros(origins.shape[0])
        got, _, _ = _walk(geo, origins, directions, required)
        t_in, t_out = segment_intersections_loop(geo, origins, directions)
        want = _material_path_to_geometric(
            t_in, t_out, required, directions[:, 2] > 0
        )
        _assert_same_walk(got, want)
        if geo.num_layers > 1:
            _, _, has, layer = first_nonempty_slab(geo, origins, directions)
            first = np.where(directions[:, 2] > 0, geo.num_layers - 1, 0)
            assert np.any(has & (layer != first) & ~want[1])

    def test_required_equal_to_entry_length(self, name):
        # A path of exactly the entry slab's length ties interaction with
        # escape when that slab is the ray's last non-empty one.
        geo = STACKS[name]
        origins, directions = _walk_rays(geo)
        t_in, t_out, has, layer = first_nonempty_slab(geo, origins, directions)
        rows = np.nonzero(has)[0]
        origins, directions = origins[rows], directions[rows]
        t_in, t_out, layer = t_in[rows], t_out[rows], layer[rows]
        start = np.maximum(t_in, 1e-12)
        lengths = np.maximum(np.maximum(t_out, 1e-12) - start, 0.0)
        required = lengths[np.arange(rows.size), layer]
        got, _, _ = _walk(geo, origins, directions, required)
        want = material_path_to_geometric_sorted(t_in, t_out, required)
        _assert_same_walk(got, want)
        # Rays with no slab beyond the entry slab escape; on a stack,
        # the others interact at its far end.
        assert want[1].any()
        assert want[1].all() == (geo.num_layers == 1)


@pytest.mark.parametrize("name", ["adapt", "apt"])
class TestGapOnlyRays:
    """Rays that cross only a gap are settled as escapes at the entry step."""

    def test_gap_only_rays_escape_without_the_full_walk(self, name):
        geo = STACKS[name]
        rays = _gap_only_rays(geo)
        origins = np.array([r[0] for r in rays], dtype=np.float64)
        directions = np.array([r[1] for r in rays], dtype=np.float64)
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        box_in, box_out = geo.box_intersections(origins, directions)
        assert np.all(box_out > np.maximum(box_in, 1e-12))
        assert not first_nonempty_slab(geo, origins, directions)[2].any()
        required = np.random.default_rng(45).exponential(1.0, origins.shape[0])
        got, _, full = _walk(geo, origins, directions, required)
        assert got[1].all()
        assert full == 0


class TestTransportInputs:
    def test_non_unit_directions_normalized_without_writing_inputs(self):
        geometry, origins, directions, energies = _recipe_batch("adapt", 3)
        lengths = np.random.default_rng(17).uniform(0.5, 3.0, origins.shape[0])
        scaled = directions * lengths[:, None]
        inputs = (origins, scaled, energies)
        before = [a.copy() for a in inputs]
        # Ray blocks are divided by their norms as the full walk divides
        # the whole batch, bit for bit.
        _assert_same_transport(geometry, *inputs, seed=18)
        for a, b in zip(inputs, before):
            assert a.tobytes() == b.tobytes()
