"""Tests for the slab-stack detector geometry."""

import numpy as np
import pytest

from repro import constants
from repro.geometry.tiles import (
    DetectorGeometry,
    Layer,
    _faces_below,
    adapt_geometry,
    apt_geometry,
)
from tests.physics.frontend_oracle import layer_index_loop
from tests.physics.transport_oracle import segment_intersections_loop


def _layer(z_top, z_bottom, half_size=20.0):
    return Layer(
        z_top=z_top, z_bottom=z_bottom, half_size=half_size, material=constants.CSI
    )


def _assert_bitwise(actual, expected):
    """Equal shapes and equal bits (signed zeros and NaNs included)."""
    actual = np.ascontiguousarray(actual)
    expected = np.ascontiguousarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestLayer:
    def test_thickness(self):
        layer = Layer(z_top=0.0, z_bottom=-1.5, half_size=20.0, material=constants.CSI)
        assert layer.thickness == pytest.approx(1.5)

    def test_contains_z_inside(self):
        layer = Layer(z_top=0.0, z_bottom=-1.5, half_size=20.0, material=constants.CSI)
        assert layer.contains_z(np.array([-0.5]))[0]

    def test_contains_z_boundaries_inclusive(self):
        layer = Layer(z_top=0.0, z_bottom=-1.5, half_size=20.0, material=constants.CSI)
        assert layer.contains_z(np.array([0.0]))[0]
        assert layer.contains_z(np.array([-1.5]))[0]

    def test_contains_z_outside(self):
        layer = Layer(z_top=0.0, z_bottom=-1.5, half_size=20.0, material=constants.CSI)
        assert not layer.contains_z(np.array([0.1]))[0]
        assert not layer.contains_z(np.array([-1.6]))[0]


class TestGeometryInvariants:
    """The stack invariants the transport walk relies on."""

    def test_rejects_bottom_first_listing(self):
        with pytest.raises(ValueError, match="top-first"):
            DetectorGeometry(layers=(_layer(-11.5, -13.0), _layer(0.0, -1.5)))

    def test_rejects_overlapping_layers(self):
        with pytest.raises(ValueError, match="overlap"):
            DetectorGeometry(layers=(_layer(0.0, -1.5), _layer(-1.0, -2.5)))

    def test_rejects_mixed_half_sizes(self):
        with pytest.raises(ValueError, match="half_size"):
            DetectorGeometry(
                layers=(_layer(0.0, -1.5, 20.0), _layer(-11.5, -13.0, 25.0))
            )

    def test_rejects_inverted_layer(self):
        with pytest.raises(ValueError, match="z_bottom < z_top"):
            DetectorGeometry(layers=(_layer(-1.5, 0.0),))

    def test_rejects_empty_stack(self):
        with pytest.raises(ValueError, match="at least one layer"):
            DetectorGeometry(layers=())

    def test_touching_layers_allowed(self):
        geo = adapt_geometry(layer_gap_cm=0.0)
        for upper, lower in zip(geo.layers[:-1], geo.layers[1:]):
            assert upper.z_bottom == lower.z_top


class TestAdaptGeometry:
    def test_default_layer_count(self, geometry):
        assert geometry.num_layers == constants.ADAPT_NUM_LAYERS

    def test_top_at_origin(self, geometry):
        assert geometry.z_top == pytest.approx(0.0)

    def test_height_includes_gaps(self, geometry):
        expected = (
            constants.ADAPT_NUM_LAYERS * constants.ADAPT_TILE_THICKNESS_CM
            + (constants.ADAPT_NUM_LAYERS - 1) * constants.ADAPT_LAYER_GAP_CM
        )
        assert geometry.height == pytest.approx(expected)

    def test_layers_do_not_overlap(self, geometry):
        for upper, lower in zip(geometry.layers[:-1], geometry.layers[1:]):
            assert upper.z_bottom > lower.z_top

    def test_invalid_layer_count(self):
        with pytest.raises(ValueError):
            adapt_geometry(num_layers=0)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            adapt_geometry(tile_thickness_cm=-1.0)

    def test_single_layer(self):
        geo = adapt_geometry(num_layers=1)
        assert geo.num_layers == 1
        assert geo.height == pytest.approx(constants.ADAPT_TILE_THICKNESS_CM)


class TestLayerIndex:
    def test_point_in_first_layer(self, geometry):
        idx = geometry.layer_index(np.array([[0.0, 0.0, -0.5]]))
        assert idx[0] == 0

    def test_point_in_gap(self, geometry):
        # Between layer 0 (bottom -1.5) and layer 1 (top -11.5).
        idx = geometry.layer_index(np.array([[0.0, 0.0, -5.0]]))
        assert idx[0] == -1

    def test_point_outside_laterally(self, geometry):
        idx = geometry.layer_index(np.array([[100.0, 0.0, -0.5]]))
        assert idx[0] == -1

    def test_point_above_detector(self, geometry):
        idx = geometry.layer_index(np.array([[0.0, 0.0, 5.0]]))
        assert idx[0] == -1

    def test_every_layer_reachable(self, geometry):
        for i, layer in enumerate(geometry.layers):
            z = 0.5 * (layer.z_top + layer.z_bottom)
            assert geometry.layer_index(np.array([[0.0, 0.0, z]]))[0] == i

    def test_contains_matches_layer_index(self, geometry):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-30, 10, size=(500, 3))
        assert np.array_equal(
            geometry.contains(pts), geometry.layer_index(pts) >= 0
        )


@pytest.mark.parametrize("name", ["adapt", "apt", "gap0", "single"])
class TestLayerIndexOracle:
    """The ``searchsorted`` lookup equals the per-layer loop (last match wins)."""

    @staticmethod
    def _assert_same(geo, points):
        got = geo.layer_index(points)
        want = layer_index_loop(geo, points)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        return got

    def test_random_points(self, name):
        geo = STACKS[name]
        origins, _ = _random_rays(geo, np.random.default_rng(41), n=20000)
        got = self._assert_same(geo, origins)
        assert set(np.unique(got)) == set(range(-1, geo.num_layers))

    def test_face_and_gap_points(self, name):
        """Every z face (shared faces of touching layers belong to the lower
        layer), points just inside and outside each face, and gap middles."""
        geo = STACKS[name]
        faces = np.array([f for layer in geo.layers for f in (layer.z_top, layer.z_bottom)])
        z = np.concatenate(
            [
                faces,
                np.nextafter(faces, np.inf),
                np.nextafter(faces, -np.inf),
                0.5 * (faces[1:-1:2] + faces[2::2]),
                [-0.0, 0.0, geo.z_top + 1.0, geo.z_bottom - 1.0],
            ]
        )
        points = np.stack([np.full(z.size, 1.5), np.full(z.size, -2.5), z], axis=1)
        got = self._assert_same(geo, points)
        if name == "gap0":
            shared = faces[1:-1:2]
            lower = geo.layer_index(
                np.stack([np.zeros(shared.size), np.zeros(shared.size), shared], axis=1)
            )
            np.testing.assert_array_equal(lower, np.arange(1, geo.num_layers))
        assert np.any(got == -1) and np.any(got >= 0)

    def test_lateral_edges(self, name):
        """|x| and |y| exactly half_size are inside; one ulp beyond is out."""
        geo = STACKS[name]
        half = geo.half_size
        mid = 0.5 * (geo.layers[-1].z_top + geo.layers[-1].z_bottom)
        edges = [half, -half, np.nextafter(half, np.inf), -np.nextafter(half, np.inf), 0.0, -0.0]
        points = np.array([[x, y, mid] for x in edges for y in edges])
        got = self._assert_same(geo, points)
        assert got[0] == geo.num_layers - 1

    def test_non_finite_points(self, name):
        geo = STACKS[name]
        mid = 0.5 * (geo.layers[0].z_top + geo.layers[0].z_bottom)
        specials = [np.nan, np.inf, -np.inf]
        points = np.array(
            [[s, 0.0, mid] for s in specials]
            + [[0.0, s, mid] for s in specials]
            + [[0.0, 0.0, s] for s in specials]
            + [[np.nan, np.nan, np.nan]]
        )
        got = self._assert_same(geo, points)
        assert np.all(got == -1)

    def test_empty_and_single_point(self, name):
        geo = STACKS[name]
        self._assert_same(geo, np.empty((0, 3)))
        self._assert_same(geo, np.array([0.0, 0.0, geo.z_bottom]))


def _face_keys(faces):
    """Keys at every face and one ulp either side, ±0, NaN and ±inf."""
    faces = np.asarray(faces, dtype=np.float64)
    return np.concatenate(
        [
            faces,
            np.nextafter(faces, np.inf),
            np.nextafter(faces, -np.inf),
            [0.0, -0.0, np.nan, np.inf, -np.inf],
        ]
    )


@pytest.mark.parametrize("name", ["adapt", "apt", "gap0", "single"])
class TestFaceCounting:
    """Counting the faces below a key is ``np.searchsorted`` on the
    ascending faces, key for key."""

    @pytest.mark.parametrize("which", ["entry", "tops"])
    def test_matches_searchsorted(self, name, which):
        geo = STACKS[name]
        if which == "entry":
            faces, dtype = geo._faces_ascending, geo._code_type
        else:
            faces, dtype = geo._tops, geo._count_type
        z = _face_keys(faces)
        z = np.concatenate([z, np.random.default_rng(47).uniform(-60, 10, 5000)])
        got = _faces_below(z, faces, dtype)
        want = np.searchsorted(np.sort(faces), z)
        assert got.dtype == dtype and dtype.kind == "u"
        np.testing.assert_array_equal(got, want)
        # NaN sorts last: it counts every face.
        assert got[np.isnan(z)].tolist() == [faces.size]

    def test_duplicate_faces_count_alike(self, name):
        geo = STACKS[name]
        faces = geo._faces_ascending
        shared = faces[1:][faces[1:] == faces[:-1]]
        assert (shared.size > 0) == (name == "gap0")
        z = _face_keys(shared)
        np.testing.assert_array_equal(
            _faces_below(z, faces, geo._code_type), np.searchsorted(faces, z)
        )

    def test_signed_zero_face(self, name):
        # The top face is +0.0: -0.0 is at it, not above it.
        geo = STACKS[name]
        assert geo.z_top == 0.0
        z = np.array([-0.0, 0.0, 5e-324, -5e-324])
        got = _faces_below(z, geo._faces_ascending, geo._code_type)
        np.testing.assert_array_equal(got, np.searchsorted(geo._faces_ascending, z))
        assert got[0] == got[1] == geo._faces_ascending.size - 1

    def test_empty_keys(self, name):
        geo = STACKS[name]
        got = _faces_below(np.empty(0), geo._faces_ascending, geo._code_type)
        assert got.shape == (0,) and got.dtype == geo._code_type


class TestSegmentIntersections:
    def test_vertical_ray_total_path(self, geometry):
        origin = np.array([[0.0, 0.0, 1.0]])
        direction = np.array([[0.0, 0.0, -1.0]])
        t_in, t_out = geometry.segment_intersections(origin, direction)
        lengths = np.maximum(t_out - np.maximum(t_in, 0.0), 0.0)
        total = lengths.sum()
        expected = geometry.num_layers * constants.ADAPT_TILE_THICKNESS_CM
        assert total == pytest.approx(expected, rel=1e-9)

    def test_miss_detector(self, geometry):
        origin = np.array([[100.0, 100.0, 1.0]])
        direction = np.array([[0.0, 0.0, -1.0]])
        t_in, t_out = geometry.segment_intersections(origin, direction)
        lengths = np.maximum(t_out - np.maximum(t_in, 0.0), 0.0)
        assert lengths.sum() == pytest.approx(0.0)

    def test_oblique_ray_matches_numeric(self, geometry):
        origin = np.array([0.0, 0.0, 1.0])
        direction = np.array([0.3, 0.1, -1.0])
        direction = direction / np.linalg.norm(direction)
        t_in, t_out = geometry.segment_intersections(
            origin[None, :], direction[None, :]
        )
        analytic = np.maximum(t_out - np.maximum(t_in, 0.0), 0.0).sum()
        numeric = geometry.path_length_in_layers(origin, direction, n_steps=20001)
        assert analytic == pytest.approx(numeric, abs=0.05)

    def test_horizontal_ray_through_one_layer(self, geometry):
        layer = geometry.layers[1]
        z = 0.5 * (layer.z_top + layer.z_bottom)
        origin = np.array([[-50.0, 0.0, z]])
        direction = np.array([[1.0, 0.0, 0.0]])
        t_in, t_out = geometry.segment_intersections(origin, direction)
        lengths = np.maximum(t_out - np.maximum(t_in, 0.0), 0.0)
        # Crosses exactly one layer over its full lateral width.
        assert lengths[0, 1] == pytest.approx(2 * layer.half_size)
        assert lengths[0, 0] == pytest.approx(0.0)

    def test_ray_starting_inside_layer(self, geometry):
        layer = geometry.layers[0]
        z = 0.5 * (layer.z_top + layer.z_bottom)
        origin = np.array([[0.0, 0.0, z]])
        direction = np.array([[0.0, 0.0, -1.0]])
        t_in, t_out = geometry.segment_intersections(origin, direction)
        lengths = np.maximum(t_out - np.maximum(t_in, 0.0), 0.0)
        # Half the first layer remains ahead.
        assert lengths[0, 0] == pytest.approx(layer.thickness / 2.0, rel=1e-6)

    def test_upward_ray_exits_without_material(self, geometry):
        origin = np.array([[0.0, 0.0, 1.0]])
        direction = np.array([[0.0, 0.0, 1.0]])
        t_in, t_out = geometry.segment_intersections(origin, direction)
        lengths = np.maximum(t_out - np.maximum(t_in, 0.0), 0.0)
        assert lengths.sum() == pytest.approx(0.0)


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _edge_rays(geo):
    """Rays on the special cases of the slab arithmetic, as (origins, dirs)."""
    half = geo.half_size
    top, bottom = geo.layers[0], geo.layers[-1]
    mid_z = 0.5 * (top.z_top + top.z_bottom)
    face_z = [layer.z_top for layer in geo.layers] + [
        layer.z_bottom for layer in geo.layers
    ]
    rays = []
    # Axis-parallel, both senses of every axis, from above, inside and beside.
    for start in ([0.0, 0.0, 1.0], [0.0, 0.0, mid_z], [half + 5.0, 0.0, mid_z]):
        for axis in range(3):
            for sign in (1.0, -1.0):
                d = np.zeros(3)
                d[axis] = sign
                rays.append((start, d))
    # Starting exactly on every z face and on both lateral faces, heading
    # up, down and obliquely.
    headings = ([0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.3, -0.2, -1.0], [0.3, 0.2, 1.0])
    for z in face_z:
        for d in headings:
            rays.append(([1.0, -2.0, z], d))
    for x in (half, -half):
        for d in ([-1.0, 0.0, -0.5], [1.0, 0.0, -0.5], [0.0, 1.0, -1.0]):
            rays.append(([x, 0.5, mid_z], d))
    # Grazing a lateral face: running along it, and along a box corner.
    rays.append(([half, 0.0, 1.0], [0.0, 0.0, -1.0]))
    rays.append(([half, half, 1.0], [0.0, 0.0, -1.0]))
    rays.append(([half, -half - 1.0, mid_z], [0.0, 1.0, 0.0]))
    rays.append(([half + 1.0, 0.0, 1.0], [-1.0, 0.0, -1.0 / geo.height]))
    # Inside a slab, upward and downward; subnormal direction components.
    rays.append(([0.0, 0.0, mid_z], [0.1, 0.1, 1.0]))
    rays.append(([0.0, 0.0, mid_z], [0.1, 0.1, -1.0]))
    rays.append(([0.0, 0.0, mid_z], [1.0, 1e-310, 1e-310]))
    rays.append(([0.0, 0.0, bottom.z_bottom - 1.0], [0.0, 5e-324, 1.0]))
    origins = np.array([r[0] for r in rays], dtype=np.float64)
    directions = _unit([r[1] for r in rays])
    return origins, directions


def _random_rays(geo, rng, n=4000):
    half = geo.half_size
    origins = np.stack(
        [
            rng.uniform(-1.5 * half, 1.5 * half, n),
            rng.uniform(-1.5 * half, 1.5 * half, n),
            rng.uniform(geo.z_bottom - 5.0, geo.z_top + 5.0, n),
        ],
        axis=1,
    )
    return origins, _unit(rng.normal(size=(n, 3)))


STACKS = {
    "adapt": adapt_geometry(),
    "apt": apt_geometry(),
    "gap0": adapt_geometry(num_layers=5, layer_gap_cm=0.0),
    "single": adapt_geometry(num_layers=1),
}


@pytest.mark.parametrize("name", sorted(STACKS))
class TestSegmentIntersectionsOracle:
    """Bitwise agreement with the per-layer, per-axis loop."""

    def test_random_rays(self, name):
        geo = STACKS[name]
        origins, directions = _random_rays(geo, np.random.default_rng(31))
        got = geo.segment_intersections(origins, directions)
        want = segment_intersections_loop(geo, origins, directions)
        _assert_bitwise(got[0], want[0])
        _assert_bitwise(got[1], want[1])

    def test_edge_rays(self, name):
        geo = STACKS[name]
        origins, directions = _edge_rays(geo)
        got = geo.segment_intersections(origins, directions)
        want = segment_intersections_loop(geo, origins, directions)
        _assert_bitwise(got[0], want[0])
        _assert_bitwise(got[1], want[1])

    def test_box_interval_contains_every_slab(self, name):
        geo = STACKS[name]
        origins, directions = (
            np.concatenate(parts)
            for parts in zip(
                _random_rays(geo, np.random.default_rng(37)), _edge_rays(geo)
            )
        )
        t_in, t_out = geo.segment_intersections(origins, directions)
        box_in, box_out = geo.box_intersections(origins, directions)
        assert np.all(t_in >= box_in[:, None])
        assert np.all(t_out <= box_out[:, None])


def entry_rays(geo):
    """Rays whose entry slab is clear of face rounding, as (origins, dirs):
    through the top and bottom faces, laterally at mid-slab and mid-gap
    heights (up and down, shallow and steep), and from mid-slab points as
    after an interaction."""
    half = geo.half_size
    slab_z = [0.5 * (layer.z_top + layer.z_bottom) for layer in geo.layers]
    gap_z = [
        0.5 * (upper.z_bottom + lower.z_top)
        for upper, lower in zip(geo.layers, geo.layers[1:])
        if upper.z_bottom > lower.z_top
    ]
    rays = []
    for d in ([0.2, -0.1, -1.0], [-0.3, 0.2, -0.7], [0.0, 0.0, -1.0]):
        rays.append(([1.0, 2.0, geo.z_top + 1.0], d))
        rays.append(([1.0, 2.0, geo.z_bottom - 1.0], [d[0], d[1], -d[2]]))
    for z in slab_z + gap_z:
        for dz in (-0.4, -0.05, 0.05, 0.4):
            rays.append(([-half - 1.0, 0.3, z], [1.0, 0.2, dz]))
            rays.append(([0.3, half + 1.0, z], [0.1, -1.0, dz]))
    for z in slab_z:
        for dz in (-1.0, -0.3, 0.3, 1.0):
            rays.append(([0.5, -0.5, z], [0.3, 0.1, dz]))
    origins = np.array([r[0] for r in rays], dtype=np.float64)
    return origins, _unit([r[1] for r in rays])


def grazing_face_rays(geo):
    """Nearly horizontal rays that cross the side of the stack at a face's
    height, to within an ulp: their z at the lateral entry may round
    across the face, so the slab found from it must be checked in t-space.
    The ray may then graze one slab for less than an ulp of z and run on
    in the next."""
    half = geo.half_size
    faces = [layer.z_top for layer in geo.layers] + [
        layer.z_bottom for layer in geo.layers
    ]
    origins, directions = [], []
    for face in faces:
        for z in (np.nextafter(face, -np.inf), face, np.nextafter(face, np.inf)):
            for dz in (-1e-4, -1e-5, 1e-5, 1e-4):
                d = _unit([1.0, 0.2, dz])
                for back in (0.7, 1.0, 3.3, 7.1):
                    origins.append(np.array([-half, 0.3, z]) - back * d)
                    directions.append(d)
    return np.array(origins), np.array(directions)


def first_nonempty_slab(geo, origins, directions):
    """``(t_in, t_out, has, layer)`` from the per-layer loop: each ray's
    ``(n, L)`` intervals, whether any slab is non-empty after the
    transport walk's 1e-12 clip, and the first such layer in walk order
    (top layer first downward, bottom layer first upward)."""
    t_in, t_out = segment_intersections_loop(geo, origins, directions)
    eps = 1e-12
    nonempty = np.maximum(t_out, eps) > np.maximum(t_in, eps)
    walk = np.where(
        directions[:, 2:3] > 0,
        np.arange(geo.num_layers)[::-1],
        np.arange(geo.num_layers),
    )
    in_walk = np.take_along_axis(nonempty, walk, axis=1)
    layer = walk[np.arange(walk.shape[0]), np.argmax(in_walk, axis=1)]
    return t_in, t_out, in_walk.any(axis=1), layer


@pytest.mark.parametrize("name", sorted(STACKS))
class TestEntrySlabsOracle:
    """The entry slab against the per-layer loop, bit for bit."""

    def _check(self, geo, origins, directions):
        lateral = geo.lateral_intervals(origins, directions)
        e_in, e_out = geo.entry_slabs(origins[:, 2], directions[:, 2], lateral)
        t_in, t_out, has, layer = first_nonempty_slab(geo, origins, directions)
        known = ~np.isnan(e_in)
        assert np.array_equal(known, ~np.isnan(e_out))
        eps = 1e-12
        nonempty = known & (np.maximum(e_out, eps) > np.maximum(e_in, eps))
        # A non-empty entry slab is the first non-empty slab in walk order.
        rows = np.nonzero(nonempty)[0]
        assert np.all(has[rows])
        _assert_bitwise(e_in[rows], t_in[rows, layer[rows]])
        _assert_bitwise(e_out[rows], t_out[rows, layer[rows]])
        # A ray that leaves the lateral extent by the entry slab's start
        # crosses no slab.
        exits = known & (np.minimum(lateral[1], lateral[3]) <= e_in)
        assert not np.any(has[exits])
        assert not np.any(exits & nonempty)
        box_in, box_out = geo.box_intersections(origins, directions)
        in_box = box_out > np.maximum(box_in, eps)
        return known, nonempty, exits, in_box

    def test_entry_rays(self, name):
        geo = STACKS[name]
        origins, directions = entry_rays(geo)
        known, nonempty, exits, in_box = self._check(geo, origins, directions)
        assert in_box.all()
        # Each ray's entry slab is found, up or down: it holds path, or
        # the ray leaves the lateral extent before reaching it.
        assert np.all(nonempty | exits)

    def test_grazing_face_rays(self, name):
        geo = STACKS[name]
        known, nonempty, _, in_box = self._check(geo, *grazing_face_rays(geo))
        assert np.any(known & nonempty)

    def test_random_and_edge_rays(self, name):
        geo = STACKS[name]
        origins, directions = (
            np.concatenate(parts)
            for parts in zip(
                _random_rays(geo, np.random.default_rng(41)), _edge_rays(geo)
            )
        )
        known, _, _, in_box = self._check(geo, origins, directions)
        # Only rays parallel to the faces, or whose z at the lateral entry
        # rounds across a face, are left unknown.
        assert known[in_box].mean() > 0.99
