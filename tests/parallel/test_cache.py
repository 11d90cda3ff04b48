"""Tests for the deterministic campaign stage cache."""

import dataclasses

import numpy as np
import pytest

from repro.parallel.cache import StageCache, config_token, resolve_cache


@dataclasses.dataclass(frozen=True)
class FakeConfig:
    fluence: float = 1.0
    polar: float = 20.0
    condition: str = "baseline"


class TestConfigToken:
    def test_stable(self):
        a = config_token(42, 10, FakeConfig(), np.arange(5.0))
        b = config_token(42, 10, FakeConfig(), np.arange(5.0))
        assert a == b
        assert len(a) == 32

    def test_sensitive_to_each_part(self):
        base = config_token(42, 10, FakeConfig())
        assert config_token(43, 10, FakeConfig()) != base
        assert config_token(42, 11, FakeConfig()) != base
        assert config_token(42, 10, FakeConfig(polar=30.0)) != base

    def test_sensitive_to_array_contents_and_shape(self):
        base = config_token(np.arange(6.0))
        assert config_token(np.arange(6.0) + 1e-12) != base
        assert config_token(np.arange(6.0).reshape(2, 3)) != base
        assert config_token(np.arange(6.0).astype(np.float32)) != base

    def test_container_types_distinguished(self):
        assert config_token([1, 2]) != config_token((1, 2))
        assert config_token({"a": 1}) != config_token({"a": 2})
        assert config_token(None) != config_token(0)
        assert config_token(False) != config_token(0.0)

    def test_dict_key_order_irrelevant(self):
        assert config_token({"a": 1, "b": 2}) == config_token({"b": 2, "a": 1})

    def test_sensitive_to_schema_version(self, monkeypatch):
        import repro.parallel.cache as cache_mod

        current = config_token(42, 10, FakeConfig())
        monkeypatch.setattr(
            cache_mod, "CACHE_SCHEMA_VERSION", cache_mod.CACHE_SCHEMA_VERSION - 1
        )
        assert config_token(42, 10, FakeConfig()) != current


class TestStageCache:
    def test_miss_then_hit(self, tmp_path):
        cache = StageCache(tmp_path)
        token = config_token(1, 2, 3)
        assert cache.load("stage", token) is None
        payload = {"errors": np.arange(10.0), "meta": (1, "x")}
        cache.store("stage", token, payload)
        out = cache.load("stage", token)
        np.testing.assert_array_equal(out["errors"], payload["errors"])
        assert out["meta"] == (1, "x")

    def test_stages_namespaced(self, tmp_path):
        cache = StageCache(tmp_path)
        token = config_token(7)
        cache.store("alpha", token, "A")
        cache.store("beta", token, "B")
        assert cache.load("alpha", token) == "A"
        assert cache.load("beta", token) == "B"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = StageCache(tmp_path)
        token = config_token(1)
        cache.store("stage", token, [1, 2, 3])
        cache.path_for("stage", token).write_bytes(b"not a pickle")
        assert cache.load("stage", token) is None

    def test_corrupt_entry_is_quarantined_not_rescanned(self, tmp_path):
        cache = StageCache(tmp_path)
        token = config_token(2)
        cache.store("stage", token, [1, 2, 3])
        path = cache.path_for("stage", token)
        path.write_bytes(b"garbage bytes")
        assert cache.load("stage", token) is None
        # The bad file was moved aside, so the entry is now a clean miss
        # and a fresh store reclaims the real path.
        assert not path.exists()
        assert path.with_suffix(".pkl.corrupt").exists()
        assert cache.load("stage", token) is None
        cache.store("stage", token, [4, 5])
        assert cache.load("stage", token) == [4, 5]

    def test_entry_from_renamed_module_layout_is_corrupt_not_crash(
        self, tmp_path
    ):
        """Unpickling an entry written by an older code layout raises
        ModuleNotFoundError — must degrade to a recompute, not crash."""
        cache = StageCache(tmp_path)
        token = config_token(3)
        path = cache.path_for("stage", token)
        path.parent.mkdir(parents=True, exist_ok=True)
        # GLOBAL opcode referencing a module that no longer exists.
        path.write_bytes(b"crepro.legacy_module_gone\nOldResult\n.")
        assert cache.load("stage", token) is None
        assert not path.exists()
        assert path.with_suffix(".pkl.corrupt").exists()

    def test_resolve_cache(self, tmp_path):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert resolve_cache(True) is not None
        assert resolve_cache(tmp_path).root == tmp_path
        cache = StageCache(tmp_path)
        assert resolve_cache(cache) is cache


class TestCampaignCaching:
    def test_run_trials_cache_hit_is_bit_identical(
        self, tmp_path, geometry, response
    ):
        from repro.experiments.trials import TrialConfig, run_trials

        kwargs = dict(
            seed=55, n_trials=3, config=TrialConfig(polar_angle_deg=20.0)
        )
        fresh = run_trials(geometry, response, cache=tmp_path, **kwargs)
        assert list(tmp_path.glob("trials_*.pkl"))
        cached = run_trials(geometry, response, cache=tmp_path, **kwargs)
        np.testing.assert_array_equal(fresh, cached)
        # The key covers the seed: a different campaign misses.
        other = run_trials(
            geometry, response, cache=tmp_path,
            seed=56, n_trials=3, config=TrialConfig(polar_angle_deg=20.0),
        )
        assert len(list(tmp_path.glob("trials_*.pkl"))) == 2
        assert not np.array_equal(fresh, other)

    def test_training_rings_cache_hit_is_bit_identical(
        self, tmp_path, geometry, response
    ):
        from repro.experiments.datasets import generate_training_rings

        kwargs = dict(
            seed=99,
            polar_angles_deg=np.array([10.0, 50.0]),
            exposures_per_angle=2,
        )
        fresh = generate_training_rings(
            geometry, response, cache=tmp_path, **kwargs
        )
        assert list(tmp_path.glob("training_rings_*.pkl"))
        cached = generate_training_rings(
            geometry, response, cache=tmp_path, **kwargs
        )
        np.testing.assert_array_equal(fresh.features, cached.features)
        np.testing.assert_array_equal(fresh.labels, cached.labels)
        np.testing.assert_array_equal(fresh.polar_true, cached.polar_true)
