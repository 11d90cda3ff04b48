"""Follow-up alert scenario: hierarchical sky-map localization regions.

Simulates a burst, reconstructs its rings, and runs the coarse-to-fine
hierarchical sky search (`repro.localization.hierarchy`) to produce what
a follow-up telescope would receive in the alert: the best-fit
direction, the 68%/90% credible-region areas, whether the truth landed
inside the 90% region, and an ASCII rendering of the posterior with the
true source marked.  A flat dense scan at the same resolution is run
alongside to show the coarse-to-fine cost advantage.

Run:  python examples/skymap_alert.py                (~30 seconds)
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.detector import DetectorResponse
from repro.geometry import adapt_geometry
from repro.localization.hierarchy import SkymapConfig, hierarchical_skymap
from repro.localization.pipeline import prepare_rings
from repro.localization.skymap import SkyGrid, compute_skymap, render_ascii
from repro.models.features import polar_angle_of
from repro.sources import BackgroundModel, GRBSource, simulate_exposure
from repro.sources.grb import LABEL_GRB


def main() -> None:
    rng = np.random.default_rng(11)
    geometry = adapt_geometry()
    response = DetectorResponse(geometry)

    grb = GRBSource(fluence_mev_cm2=2.0, polar_angle_deg=35.0, azimuth_deg=60.0)
    exposure = simulate_exposure(geometry, rng, grb, BackgroundModel())
    events = response.digitize(exposure.transport, exposure.batch, rng, min_hits=2)
    rings = prepare_rings(events)
    n_grb = int((rings.labels == LABEL_GRB).sum())

    # Alert-quality numbers: the oracle-width GRB rings (the upper bound
    # the dEta network approaches).  Temperature 2.5 is the value
    # `repro.experiments.calibration.fit_temperature` picks for this
    # oracle at 0.25 deg, so the 90% region is honest.
    grb_rings = rings.select(rings.labels == LABEL_GRB)
    grb_rings = grb_rings.with_deta(
        np.maximum(grb_rings.true_eta_errors(), 1e-3)
    )
    config = SkymapConfig(resolution_deg=0.25, temperature=2.5)

    t0 = time.perf_counter()
    hier = hierarchical_skymap(grb_rings, config)
    hier_s = time.perf_counter() - t0
    sky = hier.sky
    best = sky.best_direction()
    err = np.degrees(np.arccos(np.clip(best @ grb.source_direction, -1, 1)))

    # The same resolution by brute force, for the cost comparison.
    flat_grid = SkyGrid.build(config.resolution_deg, config.max_polar_deg)
    t0 = time.perf_counter()
    compute_skymap(grb_rings, flat_grid)
    flat_s = time.perf_counter() - t0

    print(f"Burst at polar {grb.polar_angle_deg} deg / azimuth "
          f"{grb.azimuth_deg} deg; {rings.num_rings} rings "
          f"({n_grb} GRB)\n")
    print(f"Best-fit direction : polar {polar_angle_of(best):.1f} deg, "
          f"error {err:.2f} deg")
    print(f"68% credible area  : "
          f"{sky.credible_region_area_deg2(0.68):8.2f} deg^2")
    print(f"90% credible area  : "
          f"{sky.credible_region_area_deg2(0.90):8.2f} deg^2")
    print(f"Truth inside 90%   : {sky.contains(grb.source_direction, 0.9)}")
    print(f"Search cost        : {hier.cells_evaluated} cells over "
          f"{hier.levels} levels in {hier_s * 1e3:.1f} ms "
          f"(dense scan: {flat_grid.num_pixels} pixels, "
          f"{flat_s * 1e3:.0f} ms -> {flat_s / hier_s:.0f}x)\n")

    # Visual: the raw-pipeline map (all rings, propagated widths, robust
    # cap), which is what localization actually sees before the networks.
    raw = compute_skymap(rings, SkyGrid.build(resolution_deg=2.0), cap=4.0)
    print("Raw likelihood sky map, all rings (view from zenith; "
          "X = true source):\n")
    print(render_ascii(raw, width=64, height=26, marker=grb.source_direction))


if __name__ == "__main__":
    main()
