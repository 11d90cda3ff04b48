"""Parity suite: eager vs planned vs INT8, per the plan's contract.

The *float64* planned backend must be bit-identical to the eager module
stack whenever a block runs as a single tile (the default for per-event
blocks) — the runtime default dtype is float32, so bit-parity tests
request float64 explicitly; the INT8 plan must match
``QuantizedMLP.forward`` exactly under any tiling (integer arithmetic
is row-independent).
"""

import numpy as np
import pytest

from repro.infer import (
    EagerEngine,
    InferRequest,
    build_engine,
    compile_int8_plan,
    compile_plan,
    evaluate_request,
)
from repro.models.background import build_background_net
from repro.models.deta import build_deta_net
from repro.nn.layers import Dropout, Linear, ReLU, Sequential
from repro.nn.serialize import load_model_params, save_model_params
from repro.quantization.qat import convert_to_int8, prepare_qat


def _warmed(net, rng, width):
    """Training pass to populate BatchNorm running stats, then eval."""
    net.train()
    net.forward(rng.normal(size=(256, width)))
    net.eval()
    return net


@pytest.fixture(scope="module")
def nets():
    """Paper-shaped (but narrow) background/dEta nets with warm BN stats."""
    rng = np.random.default_rng(42)
    out = {}
    out["background"] = _warmed(
        build_background_net(hidden_widths=(32, 16), rng=rng), rng, 13
    )
    out["background_swapped"] = _warmed(
        build_background_net(hidden_widths=(32, 16), rng=rng, swapped=True),
        rng, 13,
    )
    out["deta"] = _warmed(
        build_deta_net(hidden_widths=(8, 16, 8), rng=rng), rng, 13
    )
    return out


class TestEagerPlannedBitParity:
    @pytest.mark.parametrize(
        "name", ["background", "background_swapped", "deta"]
    )
    def test_bitwise_on_event_sized_blocks(self, nets, name):
        net = nets[name]
        rng = np.random.default_rng(7)
        plan = compile_plan(net, dtype=np.float64)
        for n in (597, 1, 3):  # paper's first-iteration block, then edges
            x = rng.normal(size=(n, 13))
            np.testing.assert_array_equal(plan.run(x), net.forward(x))

    def test_bitwise_on_empty_block(self, nets):
        plan = compile_plan(nets["background"])
        out = plan.run(np.zeros((0, 13)))
        assert out.shape == (0, 1)

    def test_bitwise_with_dropout_layers(self):
        rng = np.random.default_rng(8)
        net = Sequential(
            Linear(6, 12, rng), ReLU(), Dropout(0.4, rng=rng),
            Linear(12, 1, rng),
        )
        net.eval()
        x = rng.normal(size=(100, 6))
        np.testing.assert_array_equal(
            compile_plan(net, dtype=np.float64).run(x), net.forward(x)
        )

    def test_retiled_block_matches_to_ulp(self, nets):
        net = nets["background"]
        rng = np.random.default_rng(9)
        x = rng.normal(size=(100, 13))
        plan = compile_plan(net, micro_batch=16, dtype=np.float64)
        np.testing.assert_allclose(
            plan.run(x), net.forward(x), rtol=1e-12, atol=1e-14
        )


class TestInt8Parity:
    @pytest.fixture(scope="class")
    def quantized(self):
        rng = np.random.default_rng(3)
        net = Sequential(
            Linear(13, 16, rng), ReLU(), Linear(16, 8, rng), ReLU(),
            Linear(8, 1, rng),
        )
        qat = prepare_qat(net)
        qat.train()
        x = rng.normal(size=(4000, 13))
        qat.forward(x)
        qat.eval()
        return convert_to_int8(qat), x

    def test_plan_matches_eager_int8_exactly(self, quantized):
        engine, x = quantized
        plan = compile_int8_plan(engine)
        np.testing.assert_array_equal(
            plan.run(x[:500]), engine.forward(x[:500])
        )

    def test_exact_under_any_tiling(self, quantized):
        engine, x = quantized
        plan = compile_int8_plan(engine, micro_batch=7)
        np.testing.assert_array_equal(
            plan.run(x[:100]), engine.forward(x[:100])
        )

    def test_edge_batches(self, quantized):
        engine, x = quantized
        plan = compile_int8_plan(engine)
        for n in (0, 1):
            out = plan.run(x[:n])
            assert out.shape == (n, 1)
            np.testing.assert_array_equal(out, engine.forward(x[:n]))

    def test_layer_widths(self, quantized):
        engine, _ = quantized
        assert compile_int8_plan(engine).layer_widths == (13, 16, 8, 1)


class TestEngines:
    def test_planned_engine_bitwise_vs_eager(self, tiny_models, rings, events):
        from repro.models.features import extract_features

        pipeline = tiny_models
        feats = extract_features(
            rings, events, polar_guess_deg=20.0,
            include_polar=pipeline.background_net.include_polar,
        )
        eager = build_engine(pipeline, "reference")
        planned = build_engine(pipeline, "planned", dtype="float64")
        assert isinstance(eager, EagerEngine)
        for kind in ("background", "deta"):
            request = InferRequest(kind, feats)
            np.testing.assert_array_equal(
                evaluate_request(planned, request),
                evaluate_request(eager, request),
            )

    def test_unknown_backend_rejected(self, tiny_models):
        with pytest.raises(ValueError, match="unknown backend"):
            build_engine(tiny_models, "jit")

    def test_int8_backend_requires_quantized_bundle(self, tiny_models):
        with pytest.raises(ValueError, match="Int8BackgroundNet"):
            build_engine(tiny_models, "int8")

    def test_unknown_request_kind_rejected(self, tiny_models):
        engine = build_engine(tiny_models, "reference")
        with pytest.raises(ValueError, match="request kind"):
            evaluate_request(engine, InferRequest("logits", np.zeros((1, 13))))


class TestSerializationRoundTrip:
    def test_save_load_compile_is_bitwise(self, tmp_path, nets):
        rng = np.random.default_rng(10)
        src = nets["background"]
        path = tmp_path / "bg.npz"
        save_model_params(src, path)
        clone = build_background_net(
            hidden_widths=(32, 16), rng=np.random.default_rng(0)
        )
        load_model_params(clone, path)
        clone.eval()
        x = rng.normal(size=(64, 13))
        np.testing.assert_array_equal(
            compile_plan(clone).run(x), compile_plan(src).run(x)
        )


class TestEndToEndCampaignParity:
    def test_planned_backend_bitwise_on_full_campaign(
        self, geometry, response, tiny_models
    ):
        from repro.experiments.trials import TrialConfig, run_trials, trial_error

        config = TrialConfig(condition="ml")
        # Reference: each trial localized with the eager bundles.
        ref = [
            trial_error(
                geometry, response, np.random.default_rng(s), config,
                tiny_models, engine=None,
            )
            for s in np.random.SeedSequence(13).spawn(3)
        ]
        planned = run_trials(
            geometry, response, seed=13, n_trials=3,
            config=config, ml_pipeline=tiny_models,
        )
        np.testing.assert_array_equal(planned, ref)

    def test_explicit_engine_in_localize(self, tiny_models, events):
        engine = build_engine(tiny_models, "planned", dtype="float64")
        ref = tiny_models.localize(events, np.random.default_rng(5))
        out = tiny_models.localize(events, np.random.default_rng(5),
                                   engine=engine)
        np.testing.assert_array_equal(out.direction, ref.direction)
        assert out.iterations == ref.iterations
        assert out.rings_kept == ref.rings_kept
        assert out.converged == ref.converged
