"""Tests for Compton kinematics and Klein--Nishina sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import ELECTRON_MASS_MEV
from repro.physics.compton import (
    cos_theta_from_energies,
    klein_nishina_differential,
    rotate_directions,
    sample_klein_nishina,
    scattered_energy,
)


class TestScatteredEnergy:
    def test_forward_scatter_no_loss(self):
        assert scattered_energy(1.0, 1.0) == pytest.approx(1.0)

    def test_backscatter_limit(self):
        # E' -> m_e/2 as E -> inf at cos theta = -1.
        e = scattered_energy(1000.0, -1.0)
        assert e == pytest.approx(ELECTRON_MASS_MEV / 2.0, rel=1e-2)

    def test_90_degree(self):
        e0 = 0.511
        expected = e0 / (1.0 + e0 / ELECTRON_MASS_MEV)
        assert scattered_energy(e0, 0.0) == pytest.approx(expected, rel=1e-6)

    @given(
        st.floats(min_value=0.03, max_value=30.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_energy_never_gains(self, energy, cos_t):
        assert scattered_energy(energy, cos_t) <= energy + 1e-12


class TestCosThetaFromEnergies:
    @given(
        st.floats(min_value=0.1, max_value=30.0),
        st.floats(min_value=-0.99, max_value=0.99),
    )
    @settings(max_examples=100)
    def test_inverse_of_scattered_energy(self, energy, cos_t):
        """cos_theta_from_energies inverts the Compton formula exactly."""
        e_scattered = scattered_energy(energy, cos_t)
        deposit = energy - e_scattered
        recovered = cos_theta_from_energies(energy, deposit)
        assert recovered == pytest.approx(cos_t, abs=1e-9)

    def test_unphysical_energies_exceed_range(self):
        # Depositing almost all the energy of a low-energy photon implies
        # an impossible scattering angle (|eta| > 1).
        eta = cos_theta_from_energies(np.array([0.2]), np.array([0.19]))
        assert abs(eta[0]) > 1.0

    def test_zero_deposit_gives_forward(self):
        eta = cos_theta_from_energies(np.array([1.0]), np.array([0.0]))
        assert eta[0] == pytest.approx(1.0)


class TestKleinNishinaDifferential:
    def test_positive_everywhere(self):
        cos = np.linspace(-1, 1, 201)
        for e in [0.03, 0.3, 3.0, 30.0]:
            assert np.all(klein_nishina_differential(np.full_like(cos, e), cos) > 0)

    def test_maximum_at_forward(self):
        cos = np.linspace(-1, 1, 201)
        for e in [0.03, 0.3, 3.0, 30.0]:
            vals = klein_nishina_differential(np.full_like(cos, e), cos)
            assert np.argmax(vals) == len(cos) - 1

    def test_forward_value_is_two(self):
        assert klein_nishina_differential(1.0, 1.0) == pytest.approx(2.0)

    def test_thomson_limit_symmetric(self):
        # At E -> 0 the distribution approaches (1 + cos^2)/... symmetric.
        lo = klein_nishina_differential(1e-4, -0.5)
        hi = klein_nishina_differential(1e-4, 0.5)
        assert lo == pytest.approx(hi, rel=1e-3)


class TestSampleKleinNishina:
    def test_output_in_range(self):
        rng = np.random.default_rng(0)
        c = sample_klein_nishina(np.geomspace(0.03, 30, 5000), rng)
        assert np.all(c >= -1.0) and np.all(c <= 1.0)

    def test_distribution_matches_analytic(self):
        """Chi-square GoF against bin-integrated analytic probabilities."""
        rng = np.random.default_rng(1)
        e = 2.0
        n = 100_000
        samples = sample_klein_nishina(np.full(n, e), rng)
        edges = np.linspace(-1, 1, 41)
        hist, _ = np.histogram(samples, bins=edges)
        fine = np.linspace(-1, 1, 20001)
        pdf = klein_nishina_differential(np.full_like(fine, e), fine)
        cdf = np.concatenate(
            [[0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(fine))]
        )
        cdf /= cdf[-1]
        expected = n * np.diff(np.interp(edges, fine, cdf))
        mask = expected > 25
        z = (hist[mask] - expected[mask]) / np.sqrt(expected[mask])
        assert (z**2).mean() < 2.0

    def test_high_energy_forward_peaked(self):
        rng = np.random.default_rng(2)
        lo = sample_klein_nishina(np.full(20000, 0.05), rng)
        hi = sample_klein_nishina(np.full(20000, 20.0), rng)
        assert hi.mean() > lo.mean() + 0.3

    def test_deterministic_with_seed(self):
        a = sample_klein_nishina(np.full(100, 1.0), np.random.default_rng(3))
        b = sample_klein_nishina(np.full(100, 1.0), np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestSampleKleinNishinaOracle:
    """One ``(3, m)`` uniform draw per round equals three size-``m``
    calls: the same values, and the stream left in the same state."""

    @pytest.mark.parametrize("m", [0, 1, 7, 20000])
    def test_matches_three_call_loop(self, m):
        from tests.physics.transport_oracle import sample_klein_nishina_oracle

        energy = np.geomspace(0.01, 30.0, max(m, 1))[:m]
        energy = np.random.default_rng(m).permutation(energy)
        rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
        got = sample_klein_nishina(energy, rng_new)
        want = sample_klein_nishina_oracle(energy, rng_ref)
        assert got.shape == want.shape == (m,)
        assert got.tobytes() == want.tobytes()
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("energy", [0.01, 0.511, 30.0])
    def test_energy_extremes(self, energy):
        from tests.physics.transport_oracle import sample_klein_nishina_oracle

        e = np.full(257, energy)
        rng_new, rng_ref = np.random.default_rng(6), np.random.default_rng(6)
        got = sample_klein_nishina(e, rng_new)
        assert got.tobytes() == sample_klein_nishina_oracle(e, rng_ref).tobytes()
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


class TestRotateDirections:
    def test_preserves_unit_norm(self):
        rng = np.random.default_rng(0)
        d = rng.normal(size=(200, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        cos_t = rng.uniform(-1, 1, 200)
        phi = rng.uniform(0, 2 * np.pi, 200)
        out = rotate_directions(d, cos_t, phi)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_rotation_angle_correct(self):
        rng = np.random.default_rng(1)
        d = rng.normal(size=(200, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        cos_t = rng.uniform(-1, 1, 200)
        phi = rng.uniform(0, 2 * np.pi, 200)
        out = rotate_directions(d, cos_t, phi)
        dots = np.einsum("ij,ij->i", d, out)
        assert np.allclose(dots, cos_t, atol=1e-9)

    def test_handles_z_aligned(self):
        d = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        out = rotate_directions(d, np.array([0.5, 0.5]), np.array([0.3, 1.2]))
        assert np.allclose(np.einsum("ij,ij->i", d, out), 0.5)

    def test_identity_at_zero_angle(self):
        d = np.array([[0.6, 0.0, 0.8]])
        out = rotate_directions(d, np.array([1.0]), np.array([2.0]))
        assert np.allclose(out, d, atol=1e-9)

    def test_azimuth_spreads_uniformly(self):
        """Rotated vectors at fixed theta cover the cone azimuthally."""
        n = 5000
        d = np.tile([0.0, 0.0, -1.0], (n, 1))
        rng = np.random.default_rng(4)
        phi = rng.uniform(0, 2 * np.pi, n)
        out = rotate_directions(d, np.zeros(n), phi)
        # Perpendicular components should average to ~zero.
        assert abs(out[:, 0].mean()) < 0.05
        assert abs(out[:, 1].mean()) < 0.05


def _unit_rows(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestRotateDirectionsOracle:
    """The column-wise frame gives the ``np.cross`` frame's bits."""

    @staticmethod
    def _assert_same(directions, cos_theta, phi):
        from tests.physics.frontend_oracle import rotate_directions_oracle

        got = rotate_directions(directions, cos_theta, phi)
        want = rotate_directions_oracle(directions, cos_theta, phi)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 20000])
    def test_random_directions(self, n):
        rng = np.random.default_rng(n)
        directions = _unit_rows(rng.normal(size=(n, 3)))
        self._assert_same(
            directions, rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 2 * np.pi, n)
        )

    def test_near_z_switch(self):
        """Directions either side of |z| = 0.999, where the helper axis
        switches from z to x."""
        rng = np.random.default_rng(5)
        z = np.concatenate([rng.uniform(0.998, 1.0, 500), -rng.uniform(0.998, 1.0, 500)])
        azimuth = rng.uniform(0.0, 2 * np.pi, z.size)
        rho = np.sqrt(1.0 - z**2)
        directions = np.stack([rho * np.cos(azimuth), rho * np.sin(azimuth), z], axis=1)
        self._assert_same(
            directions, rng.uniform(-1.0, 1.0, z.size), rng.uniform(0.0, 6.3, z.size)
        )

    @pytest.mark.parametrize("cos_theta", [1.0, -1.0, 0.0, 0.5])
    def test_axis_aligned_directions(self, cos_theta):
        """+-z, +-x, +-y and signed-zero components, at cos theta = +-1 too."""
        directions = np.array(
            [
                [0.0, 0.0, 1.0],
                [0.0, 0.0, -1.0],
                [-0.0, 0.0, -1.0],
                [0.0, -0.0, 1.0],
                [-0.0, -0.0, -1.0],
                [1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0],
                [-1.0, -0.0, 0.0],
                [1.0, 0.0, -0.0],
                [0.0, 1.0, 0.0],
                [0.0, -1.0, -0.0],
                [-0.0, -1.0, 0.0],
            ]
        )
        n = directions.shape[0]
        phi = np.linspace(0.0, 2 * np.pi, n)
        phi[:3] = [0.0, np.pi / 2, np.pi]
        self._assert_same(directions, np.full(n, cos_theta), phi)
