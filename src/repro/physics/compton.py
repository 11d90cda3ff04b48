"""Compton-scattering kinematics and Klein--Nishina angle sampling.

Conventions: energies in MeV; ``cos_theta`` is the cosine of the photon
scattering angle; directions are unit 3-vectors.  All functions are
vectorized over photons.
"""

from __future__ import annotations

import numpy as np

from repro.constants import ELECTRON_MASS_MEV

_ME = ELECTRON_MASS_MEV


def scattered_energy(energy: np.ndarray, cos_theta: np.ndarray) -> np.ndarray:
    """Photon energy after Compton scattering.

    ``E' = E / (1 + (E / m_e c^2) (1 - cos theta))``

    Args:
        energy: Incident photon energies, MeV.
        cos_theta: Cosine of the scattering angle.

    Returns:
        Scattered photon energies, MeV.
    """
    energy = np.asarray(energy, dtype=np.float64)
    cos_theta = np.asarray(cos_theta, dtype=np.float64)
    return energy / (1.0 + (energy / _ME) * (1.0 - cos_theta))


def cos_theta_from_energies(
    total_energy: np.ndarray, deposited_first: np.ndarray
) -> np.ndarray:
    """Scattering-angle cosine from measured energies (the Compton formula).

    Given the photon's total energy ``E`` and the energy ``E1`` it deposited
    in its *first* interaction, the scattered energy is ``E' = E - E1`` and

    ``cos theta = 1 - m_e c^2 (1/E' - 1/E)``.

    This is the quantity the paper calls ``eta``.  Values may fall outside
    [-1, 1] when the energies are mismeasured; callers decide whether to
    clip or reject such rings.

    Args:
        total_energy: ``E``, MeV.
        deposited_first: ``E1``, MeV.

    Returns:
        ``eta = cos theta`` (unclipped).
    """
    total_energy = np.asarray(total_energy, dtype=np.float64)
    deposited_first = np.asarray(deposited_first, dtype=np.float64)
    scattered = total_energy - deposited_first
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = 1.0 - _ME * (1.0 / scattered - 1.0 / total_energy)
    return eta


def klein_nishina_differential(
    energy: np.ndarray, cos_theta: np.ndarray
) -> np.ndarray:
    """Unnormalized Klein--Nishina differential cross section d(sigma)/d(Omega).

    Proportional to ``(E'/E)^2 (E'/E + E/E' - sin^2 theta)``; the common
    ``r_e^2 / 2`` prefactor is omitted since samplers and tests only need
    relative values.
    """
    energy = np.asarray(energy, dtype=np.float64)
    cos_theta = np.asarray(cos_theta, dtype=np.float64)
    ratio = scattered_energy(energy, cos_theta) / energy  # reprolint: disable=NUM002 -- photon energy > 0 MeV is a documented precondition
    sin2 = 1.0 - cos_theta**2
    return ratio**2 * (ratio + 1.0 / ratio - sin2)  # reprolint: disable=NUM002 -- ratio = E'/E in (0, 1] for E > 0


def sample_klein_nishina(
    energy: np.ndarray, rng: np.random.Generator, max_rounds: int = 256
) -> np.ndarray:
    """Sample Compton scattering-angle cosines from the Klein--Nishina law.

    Vectorized implementation of Kahn's composition--rejection method
    (Kahn 1954), which remains >= ~50% efficient at every energy -- a
    uniform-in-``cos theta`` proposal degrades badly for forward-peaked
    high-energy photons.

    With ``alpha = E / m_e c^2`` and ``eta = E / E'`` in ``[1, 1 + 2 alpha]``:

    * branch 1 (probability ``(1+2a)/(9+2a)``): propose ``eta = 1 + 2 a u``,
      accept with probability ``4 (1/eta - 1/eta^2)``;
    * branch 2: propose ``eta = (1+2a)/(1+2au)``, accept with probability
      ``(cos^2 theta + 1/eta)/2`` where ``cos theta = 1 - (eta-1)/a``.

    Args:
        energy: Incident photon energies, MeV. Shape ``(n,)``.
        rng: NumPy random generator.
        max_rounds: Safety bound on rejection rounds.

    Returns:
        ``(n,)`` array of sampled ``cos theta``.

    Raises:
        RuntimeError: If sampling fails to converge (cannot happen for
            positive finite energies within ``max_rounds`` in practice).
    """
    energy = np.atleast_1d(np.asarray(energy, dtype=np.float64))
    n = energy.shape[0]
    out = np.empty(n, dtype=np.float64)
    pending = np.arange(n)
    alpha_all = energy / _ME
    for _ in range(max_rounds):
        if pending.size == 0:
            return out
        a = alpha_all.take(pending)
        # One draw for the round's three uniforms: a double takes one raw
        # draw and the array fills row by row, so the rows are the values
        # (and leave the stream where) three size-m calls would.
        r1, r2, r3 = rng.uniform(size=(3, pending.size))
        # Repeated subexpressions formed once, from the same operands.
        two_a = 2.0 * a
        one_2a = 1.0 + two_a
        two_a_r2 = two_a * r2
        branch1 = r1 <= one_2a / (9.0 + two_a)
        eta = np.where(branch1, 1.0 + two_a_r2, one_2a / (1.0 + two_a_r2))
        cos_t = 1.0 - (eta - 1.0) / a  # reprolint: disable=NUM002 -- alpha = E/m_e > 0 for physical photons
        inv_eta = 1.0 / eta  # reprolint: disable=NUM002 -- eta in [1, 1+2*alpha] by construction
        accept_p = np.where(
            branch1,
            4.0 * (inv_eta - 1.0 / eta**2),  # reprolint: disable=NUM002 -- eta in [1, 1+2*alpha] by construction
            0.5 * (cos_t**2 + inv_eta),
        )
        accept = r3 <= accept_p
        out[pending[accept]] = cos_t[accept]
        pending = pending[~accept]
    raise RuntimeError("Klein-Nishina rejection sampling did not converge")


def cross_columns(
    a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cross products ``a x b`` of 3-vectors held as ``(x, y, z)`` columns.

    The products and subtractions are numpy's ``cross``, in its operand
    order, so every component (signed zeros included) is the same bit for
    bit, without its casts and strided ``(n, 3)`` temporaries.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    c0 = a1 * b2
    c0 -= a2 * b1
    c1 = a2 * b0
    c1 -= a0 * b2
    c2 = a0 * b1
    c2 -= a1 * b0
    return c0, c1, c2


def norm_columns(c0: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Euclidean norms of 3-vectors held as columns.

    Sums the squares as ``(c0^2 + c1^2) + c2^2``, the order
    ``np.linalg.norm(v, axis=1)`` reduces an ``(n, 3)`` array in, so the
    norms are the same bit for bit.
    """
    sum_sq = c0 * c0
    sum_sq += c1 * c1
    sum_sq += c2 * c2
    return np.sqrt(np.maximum(sum_sq, 0.0, out=sum_sq), out=sum_sq)


def perpendicular_frame(
    d: tuple[np.ndarray, ...], helper: tuple[np.ndarray, ...]
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Unit vectors ``u, v`` spanning the plane perpendicular to each ``d``.

    ``u = (helper x d) / |helper x d|`` and ``v = d x u``, all as ``(x, y,
    z)`` columns; ``helper`` must not be parallel to ``d``.  Shared by the
    background source's generation planes and the Compton scatter frame.
    """
    u = cross_columns(helper, d)
    norm = norm_columns(*u)
    for column in u:
        column /= norm
    return u, cross_columns(d, u)


def rotate_directions(
    directions: np.ndarray,
    cos_theta: np.ndarray,
    phi: np.ndarray,
) -> np.ndarray:
    """Rotate unit vectors by polar angle theta and azimuth phi about themselves.

    Builds an orthonormal frame ``(u, v, d)`` around each direction ``d`` and
    returns ``sin(theta) (cos(phi) u + sin(phi) v) + cos(theta) d`` — the
    standard scattering rotation.

    Args:
        directions: ``(n, 3)`` unit direction vectors.
        cos_theta: ``(n,)`` scattering-angle cosines.
        phi: ``(n,)`` azimuthal angles, radians.

    Returns:
        ``(n, 3)`` rotated unit vectors.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    cos_theta = np.asarray(cos_theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    d = (directions[:, 0], directions[:, 1], directions[:, 2])

    # Helper axis not parallel to d: z unless d is nearly +-z, then x.
    near_z = np.abs(d[2]) > 0.999
    h0 = near_z.astype(np.float64)
    u, v = perpendicular_frame(d, (h0, np.zeros_like(h0), 1.0 - h0))

    sin_theta = np.sqrt(np.clip(1.0 - cos_theta**2, 0.0, 1.0))
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    # sin(theta) (cos(phi) u + sin(phi) v) + cos(theta) d, per column.
    rotated = []
    for k in range(3):
        column = cos_phi * u[k]
        column += sin_phi * v[k]
        column *= sin_theta
        column += cos_theta * d[k]
        rotated.append(column)
    # Guard against accumulated roundoff.
    norm = norm_columns(*rotated)
    out = np.empty((norm.shape[0], 3))
    for k in range(3):
        np.divide(rotated[k], norm, out=out[:, k])
    return out
