"""Tests for photon energy spectra."""

import dataclasses

import numpy as np
import pytest

from repro.physics.spectra import BandSpectrum, PowerLawSpectrum


class TestPowerLaw:
    def test_samples_within_bounds(self):
        spec = PowerLawSpectrum(index=-2.0, e_min=0.03, e_max=30.0)
        rng = np.random.default_rng(0)
        e = spec.sample(10000, rng)
        assert e.min() >= 0.03 and e.max() <= 30.0

    def test_exact_distribution(self):
        """Analytic CDF comparison for the closed-form sampler."""
        spec = PowerLawSpectrum(index=-2.0, e_min=0.1, e_max=10.0)
        rng = np.random.default_rng(1)
        e = np.sort(spec.sample(50000, rng))
        # CDF of E^-2 on [a,b]: (1/a - 1/x) / (1/a - 1/b)
        a, b = 0.1, 10.0
        cdf = (1 / a - 1 / e) / (1 / a - 1 / b)
        empirical = np.arange(1, e.size + 1) / e.size
        assert np.abs(cdf - empirical).max() < 0.01  # KS-like bound

    def test_log_uniform_special_case(self):
        spec = PowerLawSpectrum(index=-1.0, e_min=0.1, e_max=10.0)
        rng = np.random.default_rng(2)
        e = spec.sample(50000, rng)
        # log-uniform: median = geometric mean of bounds.
        assert np.median(e) == pytest.approx(1.0, rel=0.05)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            PowerLawSpectrum(e_min=1.0, e_max=0.5)

    def test_mean_energy_analytic(self):
        spec = PowerLawSpectrum(index=-2.0, e_min=0.1, e_max=10.0)
        # <E> = ln(b/a) / (1/a - 1/b) for index -2.
        expected = np.log(100.0) / (10.0 - 0.1)
        assert spec.mean_energy() == pytest.approx(expected, rel=1e-3)


class TestBand:
    def test_continuous_at_break(self):
        spec = BandSpectrum(alpha=-0.5, beta=-2.35, e_peak=0.5)
        eb = spec._e_break
        below = spec.pdf_unnormalized(np.array([eb * 0.9999]))
        above = spec.pdf_unnormalized(np.array([eb * 1.0001]))
        assert below[0] == pytest.approx(above[0], rel=1e-2)

    def test_high_energy_power_law(self):
        spec = BandSpectrum(alpha=-0.5, beta=-2.35, e_peak=0.5)
        e1, e2 = 5.0, 10.0
        ratio = (
            spec.pdf_unnormalized(np.array([e2]))[0]
            / spec.pdf_unnormalized(np.array([e1]))[0]
        )
        assert ratio == pytest.approx((e2 / e1) ** -2.35, rel=1e-6)

    def test_samples_within_bounds(self):
        spec = BandSpectrum()
        rng = np.random.default_rng(3)
        e = spec.sample(10000, rng)
        assert e.min() >= spec.e_min and e.max() <= spec.e_max

    def test_sampler_matches_pdf(self):
        spec = BandSpectrum()
        rng = np.random.default_rng(4)
        e = spec.sample(100_000, rng)
        edges = np.geomspace(spec.e_min, spec.e_max, 30)
        hist, _ = np.histogram(e, bins=edges)
        grid = np.geomspace(spec.e_min, spec.e_max, 20001)
        pdf = spec.pdf_unnormalized(grid)
        cdf = np.concatenate(
            [[0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))]
        )
        cdf /= cdf[-1]
        expected = e.size * np.diff(np.interp(edges, grid, cdf))
        mask = expected > 25
        z = (hist[mask] - expected[mask]) / np.sqrt(expected[mask])
        assert (z**2).mean() < 2.5

    def test_alpha_beta_ordering_enforced(self):
        with pytest.raises(ValueError):
            BandSpectrum(alpha=-3.0, beta=-2.0)

    def test_mean_energy_in_range(self):
        spec = BandSpectrum()
        m = spec.mean_energy()
        assert spec.e_min < m < spec.e_max
        # Band spectra are soft: the mean sits well below 1 MeV.
        assert m < 1.0


def _uncached_band_sample(spec, n, rng):
    """The inverse-CDF draw with its table rebuilt from the spectrum."""
    grid = np.geomspace(spec.e_min, spec.e_max, 4096)
    pdf = spec.pdf_unnormalized(grid)
    dcdf = 0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid)
    cdf = np.concatenate([[0.0], np.cumsum(dcdf)])
    cdf /= cdf[-1]
    return np.interp(rng.uniform(0.0, 1.0, size=n), cdf, grid)


def _uncached_mean_energy(spec):
    grid = np.geomspace(spec.e_min, spec.e_max, 8192)
    pdf = spec.pdf_unnormalized(grid)
    norm = max(np.trapezoid(pdf, grid), np.finfo(np.float64).tiny)
    return float(np.trapezoid(grid * pdf, grid) / norm)


class TestSpectrumTables:
    """Inverse-CDF tables and means are built once per distinct spectrum."""

    @pytest.mark.parametrize(
        "kw", [{}, {"alpha": -1.1, "e_peak": 2.5}, {"e_min": 0.05, "e_max": 10.0}]
    )
    def test_draws_equal_the_uncached_computation(self, kw):
        spec = BandSpectrum(**kw)
        rng_new, rng_ref = np.random.default_rng(8), np.random.default_rng(8)
        got = spec.sample(5000, rng_new)
        want = _uncached_band_sample(BandSpectrum(**kw), 5000, rng_ref)
        assert got.tobytes() == want.tobytes()
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        assert spec.mean_energy() == _uncached_mean_energy(BandSpectrum(**kw))

    def test_equal_instances_share_a_table(self):
        from repro.physics.spectra import _inverse_cdf

        a, b = BandSpectrum(e_peak=0.7), BandSpectrum(e_peak=0.7)
        assert a is not b and a == b and hash(a) == hash(b)
        a.sample(10, np.random.default_rng(0))
        hits = _inverse_cdf.cache_info().hits
        b.sample(10, np.random.default_rng(0))
        assert _inverse_cdf.cache_info().hits == hits + 1
        table = _inverse_cdf(a)
        assert table is _inverse_cdf(b)
        assert not table[0].flags.writeable and not table[1].flags.writeable

    def test_a_drawn_spectrum_cannot_change_shape(self):
        spec = BandSpectrum(e_peak=0.5)
        before = spec.sample(2000, np.random.default_rng(9))
        mean_before = spec.mean_energy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.e_peak = 3.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            PowerLawSpectrum().index = -1.0
        assert spec == BandSpectrum(e_peak=0.5)
        assert spec.sample(2000, np.random.default_rng(9)).tobytes() == before.tobytes()
        assert spec.mean_energy() == mean_before

    def test_changed_parameters_get_the_new_table(self):
        spec = BandSpectrum(e_peak=0.5)
        before = spec.sample(2000, np.random.default_rng(9))
        mean_before = spec.mean_energy()
        changed = dataclasses.replace(spec, e_peak=3.0)
        fresh = BandSpectrum(e_peak=3.0)
        assert (changed._e0, changed._e_break, changed._join) == (
            fresh._e0, fresh._e_break, fresh._join
        )
        got = changed.sample(2000, np.random.default_rng(9))
        want = _uncached_band_sample(fresh, 2000, np.random.default_rng(9))
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() != before.tobytes()
        assert changed.mean_energy() == _uncached_mean_energy(fresh)
        assert changed.mean_energy() > mean_before

    def test_cache_is_bounded(self):
        from repro.physics.spectra import TABLE_CACHE_SIZE, _inverse_cdf

        for k in range(TABLE_CACHE_SIZE + 5):
            BandSpectrum(e_peak=0.1 + 0.01 * k).sample(1, np.random.default_rng(k))
        assert _inverse_cdf.cache_info().currsize <= TABLE_CACHE_SIZE
        assert _inverse_cdf.cache_info().maxsize == TABLE_CACHE_SIZE
