"""Tests for cross sections / attenuation coefficients."""

import numpy as np
import pytest

from repro.constants import (
    CLASSICAL_ELECTRON_RADIUS_CM,
    CSI,
    PLASTIC,
)
from repro.physics.crosssections import (
    PAIR_THRESHOLD_MEV,
    compton_mu,
    interaction_probabilities,
    klein_nishina_total,
    pair_mu,
    photoelectric_mu,
    total_mu,
)

THOMSON_CM2 = 8.0 * np.pi / 3.0 * CLASSICAL_ELECTRON_RADIUS_CM**2


class TestKleinNishinaTotal:
    def test_thomson_limit(self):
        assert klein_nishina_total(1e-5) == pytest.approx(THOMSON_CM2, rel=1e-3)

    def test_monotonic_decreasing(self):
        e = np.geomspace(0.01, 100, 100)
        sigma = klein_nishina_total(e)
        assert np.all(np.diff(sigma) < 0)

    def test_known_value_at_511kev(self):
        # sigma(k=1) ~ 0.4318 sigma_Thomson (standard result).
        ratio = klein_nishina_total(0.511) / THOMSON_CM2
        assert ratio == pytest.approx(0.4318, rel=0.81e-2)


class TestAttenuation:
    def test_photoelectric_dominates_low_energy_csi(self):
        assert photoelectric_mu(0.05, CSI) > compton_mu(0.05, CSI)

    def test_compton_dominates_mev_csi(self):
        assert compton_mu(1.0, CSI) > photoelectric_mu(1.0, CSI)

    def test_pe_negligible_in_plastic(self):
        assert photoelectric_mu(0.1, PLASTIC) < 0.02 * compton_mu(0.1, PLASTIC)

    def test_pair_zero_below_threshold(self):
        assert pair_mu(1.0, CSI) == 0.0
        assert pair_mu(PAIR_THRESHOLD_MEV, CSI) == 0.0

    def test_pair_rises_above_threshold(self):
        assert pair_mu(5.0, CSI) > 0.0
        assert pair_mu(20.0, CSI) > pair_mu(5.0, CSI)

    def test_total_is_sum(self):
        e = np.geomspace(0.03, 30, 20)
        assert np.allclose(
            total_mu(e, CSI),
            compton_mu(e, CSI) + photoelectric_mu(e, CSI) + pair_mu(e, CSI),
        )

    def test_csi_mean_free_path_at_1mev(self):
        # CsI mu/rho ~ 0.055-0.06 cm^2/g at 1 MeV -> mu ~ 0.25/cm.
        mu = total_mu(1.0, CSI)
        assert 0.15 < mu < 0.4

    def test_density_scaling(self):
        assert compton_mu(1.0, CSI) / compton_mu(1.0, PLASTIC) == pytest.approx(
            CSI.electron_density_cm3 / PLASTIC.electron_density_cm3
        )


class TestInteractionProbabilities:
    def test_sum_to_one(self):
        e = np.geomspace(0.03, 30, 50)
        p_c, p_pe, p_pp = interaction_probabilities(e, CSI)
        assert np.allclose(p_c + p_pe + p_pp, 1.0)

    def test_all_nonnegative(self):
        e = np.geomspace(0.03, 30, 50)
        for p in interaction_probabilities(e, CSI):
            assert np.all(p >= 0.0)

    def test_compton_fraction_rises_then_pair_takes_over(self):
        p_c_low = interaction_probabilities(np.array([0.05]), CSI)[0][0]
        p_c_mid = interaction_probabilities(np.array([1.0]), CSI)[0][0]
        assert p_c_mid > p_c_low
        p_pp_high = interaction_probabilities(np.array([30.0]), CSI)[2][0]
        assert p_pp_high > 0.1


class TestCrossSectionOracles:
    """The log taken only above the pair threshold, and the Klein--Nishina
    total with its repeated subexpressions formed once, change no bit."""

    ENERGIES = np.concatenate(
        [
            np.geomspace(0.01, 30.0, 4001),
            [
                PAIR_THRESHOLD_MEV,
                np.nextafter(PAIR_THRESHOLD_MEV, 0.0),
                np.nextafter(PAIR_THRESHOLD_MEV, np.inf),
                0.0,
                -1.0,
                np.inf,
                np.nan,
            ],
        ]
    )

    @pytest.mark.parametrize("material", [CSI, PLASTIC], ids=["csi", "plastic"])
    def test_pair_mu_matches_oracle(self, material):
        from tests.physics.transport_oracle import pair_mu_oracle

        with np.errstate(invalid="ignore", divide="ignore"):
            want = pair_mu_oracle(self.ENERGIES, material)
        got = pair_mu(self.ENERGIES, material)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # At and below the threshold exactly 0.0; one ulp above, positive.
        at = np.nonzero(self.ENERGIES == PAIR_THRESHOLD_MEV)[0]
        assert got[at].tolist() == [0.0]
        assert got[-5] > 0.0

    def test_pair_mu_of_scalars(self):
        from tests.physics.transport_oracle import pair_mu_oracle

        for e in (0.5, PAIR_THRESHOLD_MEV, 3.0):
            assert pair_mu(e, CSI) == pair_mu_oracle(e, CSI)
            assert np.ndim(pair_mu(e, CSI)) == 0

    def test_pair_log_only_above_threshold(self, monkeypatch):
        """The log sees exactly the energies above 2 m_e."""
        import repro.physics.crosssections as xs

        seen = []

        class _Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def log(x, *args, **kwargs):
                seen.append(np.array(x, copy=True))
                return np.log(x, *args, **kwargs)

        monkeypatch.setattr(xs, "np", _Numpy())
        energies = self.ENERGIES[np.isfinite(self.ENERGIES)]
        xs.pair_mu(energies, CSI)
        above = energies[energies > PAIR_THRESHOLD_MEV]
        assert len(seen) == 1
        assert seen[0].tobytes() == (above / PAIR_THRESHOLD_MEV).tobytes()

    def test_klein_nishina_total_matches_oracle(self):
        from tests.physics.transport_oracle import klein_nishina_total_oracle

        energies = self.ENERGIES[:-3]
        with np.errstate(invalid="ignore", divide="ignore"):
            want = klein_nishina_total_oracle(energies)
            got = klein_nishina_total(energies)
        assert got.tobytes() == want.tobytes()
