"""Tests for the persistent campaign executor.

Pooled tests share the process-wide registry executors (``get_executor``)
so the spawn cost of the worker processes is paid once per worker count
for the whole suite; the registry is torn down atexit.
"""

import os

import numpy as np
import pytest

from repro.parallel.executor import (
    CHUNKS_PER_WORKER,
    MAX_CHUNK_TASKS,
    CampaignExecutor,
    CampaignWorkerError,
    auto_chunksize,
    get_executor,
)


# Module-level workers: spawn-context workers import them by reference.

def square(x):
    return x * x


def scale(common, x):
    return common * x


def report_pid(x):
    return os.getpid()


def fail_on_three(x):
    if x == 3:
        raise ValueError("task three exploded")
    return x


def row_sums(arr):
    return arr.sum(axis=1)


def draw_normal(seed_seq):
    return np.random.default_rng(seed_seq).normal(size=8)


class TestAutoChunksize:
    def test_small_workload_single_task_chunks(self):
        assert auto_chunksize(3, 4) == 1

    def test_targets_chunks_per_worker(self):
        n_tasks, n_workers = 160, 4
        size = auto_chunksize(n_tasks, n_workers)
        n_chunks = -(-n_tasks // size)
        assert n_chunks >= CHUNKS_PER_WORKER * n_workers

    def test_capped(self):
        assert auto_chunksize(10_000_000, 1) == MAX_CHUNK_TASKS

    def test_degenerate(self):
        assert auto_chunksize(0, 4) == 1
        assert auto_chunksize(5, 0) == 1


class TestSerialExecutor:
    def test_is_serial(self):
        ex = CampaignExecutor(1)
        assert ex.is_serial
        assert ex.worker_pids() == []

    def test_map(self):
        assert CampaignExecutor(1).map(square, [1, 2, 3]) == [1, 4, 9]

    def test_map_with_common(self):
        assert CampaignExecutor(1).map(scale, [1, 2], common=10) == [10, 20]

    def test_empty(self):
        assert CampaignExecutor(1).map(square, []) == []


class TestPooledExecutor:
    def test_matches_serial_for_any_chunking(self):
        ex = get_executor(2)
        expected = [i * i for i in range(25)]
        for chunksize in (None, 1, 7, 100):
            assert ex.map(square, list(range(25)), chunksize=chunksize) == expected

    def test_pool_persists_across_maps(self):
        """One pool, many map calls — the heart of the executor."""
        ex = get_executor(2)
        pids_before = ex.worker_pids()
        assert len(pids_before) == 2
        for _ in range(3):
            ex.map(square, list(range(10)))
        assert ex.worker_pids() == pids_before

    def test_runs_in_worker_processes(self):
        ex = get_executor(2)
        pids = set(ex.map(report_pid, list(range(8)), chunksize=1))
        assert os.getpid() not in pids
        assert pids <= set(ex.worker_pids())

    def test_common_payload(self):
        ex = get_executor(2)
        assert ex.map(scale, [1, 2, 3], common=10) == [10, 20, 30]
        # New common value replaces the cached one.
        assert ex.map(scale, [1, 2, 3], common=7) == [7, 14, 21]
        # Dropping the common payload reverts to single-argument calls.
        assert ex.map(square, [4]) == [16]

    def test_error_carries_remote_traceback_and_pool_survives(self):
        ex = get_executor(2)
        pids = ex.worker_pids()
        with pytest.raises(CampaignWorkerError, match="task three exploded"):
            ex.map(fail_on_three, list(range(6)), chunksize=1)
        assert ex.worker_pids() == pids
        assert ex.map(square, [5, 6]) == [25, 36]

    def test_large_arrays_roundtrip(self):
        """Args and results above the shm threshold survive transport."""
        ex = get_executor(2)
        rng = np.random.default_rng(5)
        args = [rng.normal(size=(400, 50)) for _ in range(6)]
        out = ex.map(row_sums, args, chunksize=2)
        for result, arr in zip(out, args):
            np.testing.assert_array_equal(result, arr.sum(axis=1))

    def test_rng_results_independent_of_chunking(self):
        """Per-task SeedSequences make results chunking-invariant."""
        seeds = np.random.SeedSequence(2024).spawn(10)
        expected = [draw_normal(s) for s in seeds]
        ex = get_executor(2)
        for chunksize in (1, 4):
            seeds = np.random.SeedSequence(2024).spawn(10)
            out = ex.map(draw_normal, seeds, chunksize=chunksize)
            for got, want in zip(out, expected):
                np.testing.assert_array_equal(got, want)

    def test_closed_executor_rejects_map(self):
        ex = CampaignExecutor(1)
        ex.close()
        with pytest.raises(RuntimeError, match="closed"):
            ex.map(square, [1])


class TestCampaignBitIdentity:
    def test_run_trials_identical_1_vs_4_workers(self, geometry, response):
        """Campaign results must not depend on worker count or chunking."""
        from repro.experiments.trials import TrialConfig, run_trials

        config = TrialConfig(fluence_mev_cm2=1.0, polar_angle_deg=30.0)
        kwargs = dict(seed=123, n_trials=6, config=config)
        serial = run_trials(geometry, response, n_workers=1, **kwargs)
        pooled = run_trials(geometry, response, n_workers=4, **kwargs)
        np.testing.assert_array_equal(serial, pooled)
        # And a repeat through the same warm pool is byte-stable.
        again = run_trials(geometry, response, n_workers=4, **kwargs)
        np.testing.assert_array_equal(serial, again)
