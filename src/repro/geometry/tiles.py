"""Slab-stack geometry for the ADAPT scintillating-tile detector.

The detector is a stack of horizontal scintillator slabs (``Layer``)
separated by gaps.  Photon transport (``repro.physics.transport``) needs
fast, vectorized answers to three questions:

1. Over which path lengths is a ray inside each slab?
   (``DetectorGeometry.segment_intersections``)
2. Does a ray cross the stack's bounding box at all?
   (``DetectorGeometry.box_intersections``)
3. Is a point inside active scintillator? (``DetectorGeometry.layer_index``)

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
        t_in, t_out = self._stack_intervals(
            origins, directions, self._z_faces[0::2], self._z_faces[1::2]
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
        t_in, t_out = self._stack_intervals(
            origins, directions, self._z_faces[:1], self._z_faces[-1:]
        )
        return t_in[0], t_out[0]

    def _stack_intervals(
        self,
        origins: np.ndarray,
        directions: np.ndarray,
        z_upper: np.ndarray,
        z_lower: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(k, n)`` intervals of ``n`` rays inside ``k`` z slabs of the
        shared lateral extent.

        Each interval is ``max(0, z, x, y)`` to ``min(z, x, y)``, reduced
        left to right in that order, so a tie between equal operands
        (signed zeros) resolves to the operand a slab-by-slab, axis-by-axis
        loop picks.  The x and y intervals are computed once per ray and
        broadcast over the slabs.
        """
        origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
        directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
        half = self.half_size
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t_in, t_out = _slab_interval(
                origins[:, 2], directions[:, 2], z_upper[:, None], z_lower[:, None]
            )
            np.maximum(0.0, t_in, out=t_in)
            for axis in (0, 1):
                lo, hi = _slab_interval(
                    origins[:, axis], directions[:, axis], half, -half
                )
                np.maximum(t_in, lo, out=t_in)
                np.minimum(t_out, hi, out=t_out)
        return t_in, t_out


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
