"""Tests for containment-calibration campaigns."""

import numpy as np
import pytest

from repro.experiments.calibration import (
    CalibrationReport,
    calibration_trial,
    fit_temperature,
    run_calibration,
)
from repro.experiments.trials import TrialConfig
from repro.localization.hierarchy import SkymapConfig

FAST_SKYMAP = SkymapConfig(resolution_deg=0.5, temperature=2.5)


class TestCalibrationTrial:
    def test_row_shape_and_ranges(self, geometry, response):
        row = calibration_trial(
            geometry,
            response,
            np.random.default_rng(0),
            TrialConfig(condition="true_deta"),
            FAST_SKYMAP,
        )
        assert row.shape == (5,)
        assert 0.0 <= row[0] <= 180.0
        assert row[1] > 0 and row[2] >= row[1]  # a68 <= a90
        assert row[3] in (0.0, 1.0) and row[4] in (0.0, 1.0)

    def test_ml_condition_requires_pipeline(self, geometry, response):
        with pytest.raises(ValueError):
            calibration_trial(
                geometry,
                response,
                np.random.default_rng(1),
                TrialConfig(condition="ml"),
                FAST_SKYMAP,
            )


class TestRunCalibration:
    @pytest.fixture(scope="class")
    def report(self, geometry, response):
        return run_calibration(
            geometry, response, seed=11, n_trials=10,
            skymap=FAST_SKYMAP, n_workers=2,
        )

    def test_report_well_formed(self, report):
        assert report.n_trials == 10
        assert report.errors_deg.shape == (10,)
        assert np.all(np.isfinite(report.errors_deg))
        ok = np.isfinite(report.area90_deg2)
        assert np.all(report.area90_deg2[ok] >= report.area68_deg2[ok])
        assert report.contained68.dtype == bool

    def test_oracle_condition_roughly_calibrated(self, report):
        # The fitted temperature keeps 90% coverage near 0.9; at n=10 a
        # loose lower bound is all a seeded test can honestly assert.
        assert report.fraction(0.9) >= 0.6
        assert np.median(report.errors_deg) < 2.0

    def test_worker_count_invariance(self, geometry, response, report):
        serial = run_calibration(
            geometry, response, seed=11, n_trials=10,
            skymap=FAST_SKYMAP, n_workers=1,
        )
        assert np.array_equal(serial.errors_deg, report.errors_deg)
        assert np.array_equal(serial.contained90, report.contained90)

    def test_summary_is_jsonable(self, report):
        import json

        s = report.summary()
        json.dumps(s)
        assert s["n_trials"] == 10
        assert 0.0 <= s["fraction90"] <= 1.0

    def test_fraction_validates_level(self, report):
        with pytest.raises(ValueError):
            report.fraction(0.5)

    def test_invalid_trial_count(self, geometry, response):
        with pytest.raises(ValueError):
            run_calibration(geometry, response, seed=0, n_trials=0)

    def test_to_record(self, report):
        rec = report.to_record({"seed": 11})
        assert rec.experiment == "skymap_calibration"
        assert rec.parameters["seed"] == 11
        assert rec.results["fraction90"] == report.fraction(0.9)


class TestFitTemperature:
    def test_picks_first_calibrated_candidate(self, geometry, response):
        t, rep = fit_temperature(
            geometry, response, seed=11, n_trials=8,
            skymap=SkymapConfig(resolution_deg=0.5),
            temperatures=(1.0, 2.5), n_workers=2,
        )
        assert t in (1.0, 2.5)
        assert isinstance(rep, CalibrationReport)
        # Either the fit converged (coverage reached the level) or it
        # fell back to the hottest candidate.
        assert rep.fraction(0.9) >= 0.9 or t == 2.5

    def test_empty_grid_rejected(self, geometry, response):
        with pytest.raises(ValueError):
            fit_temperature(
                geometry, response, seed=0, n_trials=1, temperatures=()
            )


class TestHeldOutCoverage:
    def test_oracle_90_region_covers_about_90_percent(self, geometry, response):
        """Held-out 90% coverage of the ``true_deta`` oracle at T = 2.5.

        Temperature 2.5 is what ``fit_temperature`` picks at seed 77 and
        what ``examples/skymap_alert.py`` ships; seed 123 is held out from
        that fit.  This pins only the oracle condition's 90% region.  The
        68% region under-covers here (0.58), and the baseline and ML
        conditions are not calibrated yet: both belong to ROADMAP.md
        item 1.
        """
        report = run_calibration(
            geometry, response, seed=123, n_trials=100,
            config=TrialConfig(condition="true_deta"),
            skymap=SkymapConfig(resolution_deg=0.25, temperature=2.5),
            n_workers=2,
        )
        assert 0.85 <= report.fraction(0.9) <= 0.95
