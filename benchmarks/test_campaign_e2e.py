"""End-to-end campaign benchmark on the persistent campaign executor.

The workload is a miniature fig-9-shaped campaign: a sweep of fluence
points, each mapping independent baseline trials over workers.  Low
fluence means cheap trials, so orchestration overhead weighs most at
exactly the points papers sweep the most.  ``run_campaign_executor``
runs it on one :class:`CampaignExecutor` for the whole campaign, with
the campaign-constant context broadcast once and arguments/results
moved through shared memory, and must match a serial run bit for bit.
The tracked campaign numbers come from ``python3 -m bench``.
"""

from __future__ import annotations

import numpy as np
import pytest

#: The campaign: one trial set per fluence point (the paper's fig 9 sweep
#: shape), at a fixed mid-sweep polar angle.  Many small stages is the
#: orchestration-overhead-dominated regime this benchmark isolates.
FLUENCES = tuple(round(0.1 * k, 1) for k in range(1, 13))
POLAR_DEG = 30.0
N_TRIALS = 3
N_WORKERS = 4


def run_campaign_executor(geometry, response, n_workers: int = N_WORKERS):
    """The campaign on one persistent executor, including its startup."""
    from repro.experiments.trials import TrialConfig, run_trials
    from repro.parallel import CampaignExecutor

    out = []
    with CampaignExecutor(n_workers) as ex:
        for fluence in FLUENCES:
            out.append(
                run_trials(
                    geometry,
                    response,
                    seed=_stage_seed(fluence),
                    n_trials=N_TRIALS,
                    config=TrialConfig(
                        fluence_mev_cm2=fluence, polar_angle_deg=POLAR_DEG
                    ),
                    executor=ex,
                )
            )
    return out


def _stage_seed(fluence: float) -> int:
    return 9000 + int(round(fluence * 10))


@pytest.fixture(scope="module")
def geometry():
    from repro.geometry.tiles import adapt_geometry

    return adapt_geometry()


@pytest.fixture(scope="module")
def response(geometry):
    from repro.detector.response import DetectorResponse

    return DetectorResponse(geometry)


def test_campaign_implementations_bit_identical(geometry, response):
    """The executor campaign equals the serial one, bit for bit."""
    from repro.experiments.trials import TrialConfig, run_trials

    serial = [
        run_trials(
            geometry,
            response,
            seed=_stage_seed(fluence),
            n_trials=N_TRIALS,
            config=TrialConfig(
                fluence_mev_cm2=fluence, polar_angle_deg=POLAR_DEG
            ),
        )
        for fluence in FLUENCES
    ]
    pooled = run_campaign_executor(geometry, response, n_workers=2)
    for ref, ex in zip(serial, pooled):
        np.testing.assert_array_equal(ref, ex)


def test_perf_campaign_executor(benchmark, geometry, response):
    """One full campaign on a cold persistent executor (startup included)."""
    benchmark.pedantic(
        run_campaign_executor, args=(geometry, response), rounds=1, iterations=1
    )

