"""Slab-stack geometry for the ADAPT scintillating-tile detector.

The detector is a stack of horizontal scintillator slabs (``Layer``)
separated by gaps.  Photon transport (``repro.physics.transport``) needs
fast, vectorized answers to four questions:

1. Over which path lengths is a ray inside each slab?
   (``DetectorGeometry.segment_intersections``)
2. Does a ray cross the stack's bounding box at all?
   (``DetectorGeometry.box_intersections``)
3. Which slab does a ray enter first, and over which path lengths?
   (``DetectorGeometry.entry_slabs``)
4. Is a point inside active scintillator? (``DetectorGeometry.layer_index``)

The first three share one lateral interval per ray
(``DetectorGeometry.lateral_intervals``), which a caller asking more than
one of them computes once.

The stack is axis-aligned: layers are normal to z, with the top layer first.
Coordinates are in cm; the detector is centered on the z axis with its top
face at ``z = 0`` and extends downward (negative z), matching the convention
that a normally-incident GRB photon travels in direction ``(0, 0, -1)``.

``DetectorGeometry`` enforces the invariants the transport walk relies on:
layers are listed top-first, do not overlap in z (touching is allowed),
and share one lateral ``half_size``.  So along any ray the slab intervals
are ordered by z, every slab lies inside the box spanned by the outer
layers' faces, and one lateral interval per ray serves every layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import constants
from repro.constants import Material


@dataclass(frozen=True)
class Layer:
    """One scintillator slab.

    Attributes:
        z_top: z coordinate of the upper face (cm).
        z_bottom: z coordinate of the lower face (cm); ``z_bottom < z_top``.
        half_size: Half of the lateral extent in x and y (cm).
        material: Scintillator material of the slab.
    """

    z_top: float
    z_bottom: float
    half_size: float
    material: Material

    @property
    def thickness(self) -> float:
        """Slab thickness in cm."""
        return self.z_top - self.z_bottom

    def contains_z(self, z: np.ndarray) -> np.ndarray:
        """Vectorized test whether a z coordinate lies inside the slab."""
        return (z <= self.z_top) & (z >= self.z_bottom)


@dataclass(frozen=True)
class DetectorGeometry:
    """The full stack of layers plus derived lookup arrays.

    Use :func:`adapt_geometry` to build the default ADAPT configuration.
    """

    layers: tuple[Layer, ...]
    #: Sorted array of every slab face z coordinate, descending.  The
    #: invariants make it ``(top_0, bottom_0, top_1, bottom_1, ...)``.
    _z_faces: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("a detector needs at least one layer")
        tops = [layer.z_top for layer in self.layers]
        bottoms = [layer.z_bottom for layer in self.layers]
        if not all(bottom < top for top, bottom in zip(tops, bottoms)):
            raise ValueError("every layer needs z_bottom < z_top")
        if not all(lower < upper for upper, lower in zip(tops, tops[1:])):
            raise ValueError("layers must be listed top-first")
        if not all(top <= bottom for bottom, top in zip(bottoms, tops[1:])):
            raise ValueError("layers overlap in z")
        if len({layer.half_size for layer in self.layers}) != 1:
            raise ValueError("layers must share one half_size")
        object.__setattr__(
            self,
            "_z_faces",
            np.asarray(sorted(tops + bottoms, reverse=True), dtype=np.float64),
        )
        # Lookup tables of entry_slabs.  They are not dataclass fields, so
        # cache tokens, which hash the fields, do not change with them.
        object.__setattr__(self, "_faces_ascending", self._z_faces[::-1].copy())
        object.__setattr__(self, "_entry_faces", _entry_face_table(tops, bottoms))

    # -- basic extents -------------------------------------------------------

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def half_size(self) -> float:
        """Lateral half-extent shared by every layer (cm)."""
        return self.layers[0].half_size

    @property
    def z_top(self) -> float:
        """Top face of the uppermost layer (cm)."""
        return self.layers[0].z_top

    @property
    def z_bottom(self) -> float:
        """Bottom face of the lowest layer (cm)."""
        return self.layers[-1].z_bottom

    @property
    def height(self) -> float:
        """Total stack height including gaps (cm)."""
        return self.z_top - self.z_bottom

    # -- queries ---------------------------------------------------------------

    def layer_index(self, points: np.ndarray) -> np.ndarray:
        """Map points to layer indices.

        One ``searchsorted`` on the top faces finds the lowest layer whose
        top is at or above each point; only that layer can hold it.  The
        invariants make this the per-layer test with the last match
        winning: a point on a face shared by two touching layers belongs
        to the lower one, and a NaN coordinate matches no layer.

        Args:
            points: ``(n, 3)`` array of positions in cm.

        Returns:
            ``(n,)`` int array; the index of the layer containing each point,
            or ``-1`` for points in a gap or outside the detector.
        """
        points = np.atleast_2d(points)
        x, y, z = points[:, 0], points[:, 1], points[:, 2]
        # Top faces bottom layer first (ascending): the first one >= z.
        idx = self.num_layers - 1 - np.searchsorted(self._z_faces[-2::-2], z)
        half = self.half_size
        inside = (
            (idx >= 0)
            & (z >= self._z_faces[2 * idx + 1])
            & (np.abs(x) <= half)
            & (np.abs(y) <= half)
        )
        return np.where(inside, idx, -1)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Vectorized test whether points lie inside active scintillator."""
        return self.layer_index(points) >= 0

    def path_length_in_layers(
        self, origin: np.ndarray, direction: np.ndarray, n_steps: int = 512
    ) -> float:
        """Total scintillator path length along a ray (numerical, for tests).

        Integrates layer membership along the ray from ``origin`` until it
        exits the bounding box.  Used as a slow reference implementation to
        validate the analytic transport stepping.
        """
        origin = np.asarray(origin, dtype=np.float64)
        direction = np.asarray(direction, dtype=np.float64)
        direction = direction / np.linalg.norm(direction)
        # Length of the ray segment within the detector bounding box.
        span = self.height + 2.0 * self.half_size
        ts = np.linspace(0.0, 2.0 * span, n_steps)
        pts = origin[None, :] + ts[:, None] * direction[None, :]
        inside = self.contains(pts)
        dt = ts[1] - ts[0]
        return float(inside.sum() * dt)

    def segment_intersections(
        self, origins: np.ndarray, directions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Entry/exit path lengths of rays through each layer slab.

        For every ray and every layer, computes the parametric interval
        ``[t_in, t_out]`` (cm) over which the ray is inside that slab,
        intersected with the lateral extent and clipped below at
        ``t = 0``.  Intervals are empty (``t_in >= t_out``) when the ray
        misses the slab.

        Args:
            origins: ``(n, 3)`` ray origins.
            directions: ``(n, 3)`` unit ray directions.

        Returns:
            Tuple ``(t_in, t_out)``, each ``(n, num_layers)``: transposed
            views of layer-major arrays, so each layer's column is
            contiguous.
        """
        origins, directions = _as_rays(origins, directions)
        t_in, t_out = self.slab_intervals(
            origins[:, 2], directions[:, 2], self.lateral_intervals(origins, directions)
        )
        return t_in.T, t_out.T

    def box_intersections(
        self, origins: np.ndarray, directions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Entry/exit path lengths of rays through the stack's bounding box.

        The box is spanned by the top layer's upper face, the bottom
        layer's lower face and the shared lateral extent.  Rounding is
        monotone, so every :meth:`segment_intersections` interval lies
        inside this one, bit for bit: a ray whose box interval is empty
        (beyond ``t = 0``) crosses no slab.

        Args:
            origins: ``(n, 3)`` ray origins.
            directions: ``(n, 3)`` unit ray directions.

        Returns:
            Tuple ``(t_in, t_out)``, each ``(n,)``.
        """
        origins, directions = _as_rays(origins, directions)
        return self.box_intervals(
            origins[:, 2], directions[:, 2], self.lateral_intervals(origins, directions)
        )

    # -- the same queries on shared lateral intervals -------------------------

    def lateral_intervals(
        self, origins: np.ndarray, directions: np.ndarray
    ) -> np.ndarray:
        """Path-length intervals of rays inside the shared lateral extent.

        Every slab interval is the ray's z interval for that slab cut to
        these, so a caller that asks for the box, the entry slab and the
        slabs of the same rays computes them once and passes them (or
        their columns for a subset of the rays) to each query.

        Args:
            origins: ``(n, 3)`` ray origins.
            directions: ``(n, 3)`` unit ray directions.

        Returns:
            ``(4, n)`` rows ``x_lo, x_hi, y_lo, y_hi``.
        """
        origins, directions = _as_rays(origins, directions)
        half = self.half_size
        lateral = np.empty((4, origins.shape[0]))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for axis in (0, 1):
                lateral[2 * axis : 2 * axis + 2] = _slab_interval(
                    origins[:, axis], directions[:, axis], half, -half
                )
        return lateral

    def box_intervals(
        self, oz: np.ndarray, dz: np.ndarray, lateral: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`box_intersections` of rays with precomputed
        :meth:`lateral_intervals`.

        Args:
            oz: ``(n,)`` z of the ray origins.
            dz: ``(n,)`` z of the unit ray directions.
            lateral: ``(4, n)`` lateral intervals of the rays.

        Returns:
            Tuple ``(t_in, t_out)``, each ``(n,)``.
        """
        t_in, t_out = self._stack_intervals(
            oz, dz, self._z_faces[:1], self._z_faces[-1:], lateral
        )
        return t_in[0], t_out[0]

    def slab_intervals(
        self, oz: np.ndarray, dz: np.ndarray, lateral: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`segment_intersections` of rays with precomputed
        :meth:`lateral_intervals`, layer-major.

        Args:
            oz: ``(n,)`` z of the ray origins.
            dz: ``(n,)`` z of the unit ray directions.
            lateral: ``(4, n)`` lateral intervals of the rays.

        Returns:
            Tuple ``(t_in, t_out)``, each ``(num_layers, n)``.
        """
        return self._stack_intervals(
            oz, dz, self._z_faces[0::2], self._z_faces[1::2], lateral
        )

    def entry_slabs(
        self, oz: np.ndarray, dz: np.ndarray, lateral: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Interval of the slab each ray enters first, where that is certain.

        A downward ray meets the slabs top layer first, an upward ray
        bottom layer first (the walk order).  Along it the far-face
        distances ``(face - oz) / dz`` never decrease, since rounding is
        monotone; every slab interval starts at or after the lateral entry
        ``t0 = max(0, x_lo, y_lo)``, so a slab whose far face lies at or
        before ``t0`` is empty.  The entry slab is the first one whose far
        face lies past the ray's z at ``t0`` (one ``searchsorted``), kept
        only if the far face of the slab before it in walk order lies at
        or before ``t0`` in t-space: then every earlier slab is empty, bit
        for bit as :meth:`slab_intervals` computes it.  The entry slab's
        interval is reduced in :meth:`slab_intervals`' operand order, so
        it equals that slab's row there.

        The entry slab may itself be empty.  If the ray leaves the lateral
        extent (``min(x_hi, y_hi)``) at or before its ``t_in``, the ray
        crosses no slab at all: every later slab's interval starts at or
        after this one's and ends at or before the lateral exit.

        Rays parallel to the faces (``|dz| < 1e-300``), rays whose entry
        slab fails the check and rays with no slab ahead get NaN.

        Args:
            oz: ``(n,)`` z of the ray origins.
            dz: ``(n,)`` z of the unit ray directions.
            lateral: ``(4, n)`` lateral intervals of the rays.

        Returns:
            Tuple ``(t_in, t_out)``, each ``(n,)``.
        """
        t0 = np.maximum(np.maximum(0.0, lateral[0]), lateral[2])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # Column 2k (downward) or 2k + 1 (upward) of the face table,
            # where k counts the faces below the ray's z at t0.
            code = np.searchsorted(self._faces_ascending, oz + t0 * dz)
            code += code
            code += dz > 0
            prev_far, near, far = (faces.take(code) for faces in self._entry_faces)
            for dist in (prev_far, near, far):
                dist -= oz
                dist /= dz
        t_in = np.maximum(0.0, near, out=near)
        np.maximum(t_in, lateral[0], out=t_in)
        np.maximum(t_in, lateral[2], out=t_in)
        t_out = np.minimum(far, lateral[1], out=far)
        np.minimum(t_out, lateral[3], out=t_out)
        unknown = prev_far > t0
        unknown |= np.abs(dz) < 1e-300
        np.putmask(t_in, unknown, np.nan)
        np.putmask(t_out, unknown, np.nan)
        return t_in, t_out

    def _stack_intervals(
        self,
        oz: np.ndarray,
        dz: np.ndarray,
        z_upper: np.ndarray,
        z_lower: np.ndarray,
        lateral: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(k, n)`` intervals of ``n`` rays inside ``k`` z slabs of the
        shared lateral extent.

        Each interval is ``max(0, z, x, y)`` to ``min(z, x, y)``, reduced
        left to right in that order, so a tie between equal operands
        (signed zeros) resolves to the operand a slab-by-slab, axis-by-axis
        loop picks.  The x and y intervals are broadcast over the slabs.
        """
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t_in, t_out = _slab_interval(oz, dz, z_upper[:, None], z_lower[:, None])
        np.maximum(0.0, t_in, out=t_in)
        np.maximum(t_in, lateral[0], out=t_in)
        np.minimum(t_out, lateral[1], out=t_out)
        np.maximum(t_in, lateral[2], out=t_in)
        np.minimum(t_out, lateral[3], out=t_out)
        return t_in, t_out


def _as_rays(origins, directions) -> tuple[np.ndarray, np.ndarray]:
    """``(n, 3)`` float64 views of ray origins and directions."""
    return (
        np.atleast_2d(np.asarray(origins, dtype=np.float64)),
        np.atleast_2d(np.asarray(directions, dtype=np.float64)),
    )


def _entry_face_table(tops: list[float], bottoms: list[float]) -> np.ndarray:
    """Faces :meth:`DetectorGeometry.entry_slabs` looks up, ``(3, 4L + 2)``.

    Column ``2k`` serves a downward ray and ``2k + 1`` an upward one, where
    ``k`` of the ``2L`` faces lie below the ray's z at its lateral entry.
    The rows are the far face of the slab before the candidate in walk
    order, then the candidate's near and far faces.  An infinite face
    stands in where there is no slab before (a far distance of ``-inf``,
    so the check passes), and NaN faces where there is no candidate.
    """
    num_layers = len(tops)
    table = np.empty((3, 4 * num_layers + 2))
    for k in range(2 * num_layers + 1):
        # Downward: layers whose bottom face lies at or above z are behind.
        j = num_layers - (k + 1) // 2
        if j < num_layers:
            before = bottoms[j - 1] if j > 0 else np.inf
            table[:, 2 * k] = (before, tops[j], bottoms[j])
        else:
            table[:, 2 * k] = np.nan
        # Upward: layers whose top face lies below z are behind.
        j = num_layers - 1 - k // 2
        if j >= 0:
            before = tops[j + 1] if j < num_layers - 1 else -np.inf
            table[:, 2 * k + 1] = (before, bottoms[j], tops[j])
        else:
            table[:, 2 * k + 1] = np.nan
    return table


def _slab_interval(
    origin: np.ndarray, direction: np.ndarray, upper, lower
) -> tuple[np.ndarray, np.ndarray]:
    """Interval ``[lo, hi]`` of ``t`` where ``lower <= origin + t * direction
    <= upper``, per ray.

    ``origin`` and ``direction`` are ``(n,)``; the faces are scalars, or
    ``(k, 1)`` columns for ``(k, n)`` intervals.  A ray parallel to the
    faces (``|direction| < 1e-300``) is inside for every ``t`` or for
    none: ``[0, inf]`` or ``[inf, -inf]``.  Call under
    ``np.errstate(divide="ignore", over="ignore", invalid="ignore")``.
    """
    t1 = (upper - origin) / direction
    t2 = (lower - origin) / direction
    lo = np.minimum(t1, t2)
    hi = np.maximum(t1, t2, out=t1)
    par = np.nonzero(np.abs(direction) < 1e-300)[0]
    inside = (origin[par] <= upper) & (origin[par] >= lower)
    lo[..., par] = np.where(inside, 0.0, np.inf)
    hi[..., par] = np.where(inside, np.inf, -np.inf)
    return lo, hi


def adapt_geometry(
    num_layers: int = constants.ADAPT_NUM_LAYERS,
    tile_size_cm: float = constants.ADAPT_TILE_SIZE_CM,
    tile_thickness_cm: float = constants.ADAPT_TILE_THICKNESS_CM,
    layer_gap_cm: float = constants.ADAPT_LAYER_GAP_CM,
    material: Material = constants.CSI,
) -> DetectorGeometry:
    """Build the default ADAPT demonstrator geometry.

    Four CsI tile layers, 40 cm square, 1.5 cm thick, separated by 10 cm
    gaps, stacked downward from z = 0.
    """
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    if tile_thickness_cm <= 0 or tile_size_cm <= 0 or layer_gap_cm < 0:
        raise ValueError("tile dimensions must be positive and gap non-negative")
    layers = []
    z = 0.0
    for _ in range(num_layers):
        layers.append(
            Layer(
                z_top=z,
                z_bottom=z - tile_thickness_cm,
                half_size=tile_size_cm / 2.0,
                material=material,
            )
        )
        z -= tile_thickness_cm + layer_gap_cm
    return DetectorGeometry(layers=tuple(layers))


def apt_geometry(
    num_layers: int = constants.APT_NUM_LAYERS,
    tile_size_cm: float = constants.APT_TILE_SIZE_CM,
    tile_thickness_cm: float = constants.APT_TILE_THICKNESS_CM,
    layer_gap_cm: float = constants.APT_LAYER_GAP_CM,
    material: Material = constants.CSI,
) -> DetectorGeometry:
    """Build the full APT orbital-instrument geometry (paper Section VI).

    Twenty 1 m^2 CsI layers in a compact stack: ~25x the geometric area
    and ~5x the scintillator depth of the balloon demonstrator, which is
    what lets APT localize even dim (< 0.1 MeV/cm^2) bursts to within a
    degree.  At the Sun-Earth L2 orbit there is no atmospheric MeV
    background; pair this geometry with a strongly reduced
    :class:`~repro.sources.background.BackgroundModel` flux.
    """
    return adapt_geometry(
        num_layers=num_layers,
        tile_size_cm=tile_size_cm,
        tile_thickness_cm=tile_thickness_cm,
        layer_gap_cm=layer_gap_cm,
        material=material,
    )
