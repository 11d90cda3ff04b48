"""Tests for the FPGA HLS cost model (paper Table III)."""

import numpy as np
import pytest

from repro.fpga.hls_model import (
    PAPER_NUM_RINGS,
    PAPER_WIDTHS,
    batch_latency_cycles,
    synthesize_from_plan,
    synthesize_kernel,
)

PAPER = {
    "int8": dict(latency=881, ii=692, bram=15, dsp=4304, ff=366545,
                 lut=775986, ms=4.13),
    "fp32": dict(latency=1891, ii=1209, bram=144, dsp=7467, ff=651014,
                 lut=817041, ms=7.22),
}


class TestBatchLatency:
    def test_formula(self):
        assert batch_latency_cycles(10, 100, 150) == 10 * 100 + 50

    def test_single_input_is_latency(self):
        assert batch_latency_cycles(1, 100, 150) == 150

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            batch_latency_cycles(0, 100, 150)
        with pytest.raises(ValueError):
            batch_latency_cycles(5, 100, 50)


class TestSynthesizeKernel:
    def test_ii_matches_paper(self):
        for dtype in ("int8", "fp32"):
            r = synthesize_kernel(dtype=dtype)
            assert r.ii_cycles == pytest.approx(PAPER[dtype]["ii"], rel=0.01)

    def test_resources_match_paper(self):
        for dtype in ("int8", "fp32"):
            r = synthesize_kernel(dtype=dtype)
            assert r.dsp == pytest.approx(PAPER[dtype]["dsp"], rel=0.02)
            assert r.ff == pytest.approx(PAPER[dtype]["ff"], rel=0.02)
            assert r.lut == pytest.approx(PAPER[dtype]["lut"], rel=0.02)
            assert r.bram == pytest.approx(PAPER[dtype]["bram"], rel=0.15)

    def test_batch_latency_matches_paper(self):
        for dtype in ("int8", "fp32"):
            r = synthesize_kernel(dtype=dtype)
            assert r.batch_latency_ms(PAPER_NUM_RINGS) == pytest.approx(
                PAPER[dtype]["ms"], rel=0.02
            )

    def test_single_input_latency_in_ballpark(self):
        for dtype in ("int8", "fp32"):
            r = synthesize_kernel(dtype=dtype)
            assert r.latency_cycles == pytest.approx(
                PAPER[dtype]["latency"], rel=0.4
            )
            assert r.latency_cycles >= r.ii_cycles

    def test_throughput_ratio(self):
        r8 = synthesize_kernel(dtype="int8")
        r32 = synthesize_kernel(dtype="fp32")
        ratio = r8.throughput_per_second() / r32.throughput_per_second()
        assert ratio == pytest.approx(1.75, abs=0.1)

    def test_num_weights(self):
        r = synthesize_kernel()
        assert r.num_weights == sum(
            a * b for a, b in zip(PAPER_WIDTHS[:-1], PAPER_WIDTHS[1:])
        )

    def test_wider_network_costs_more(self):
        small = synthesize_kernel(widths=(13, 64, 1))
        big = synthesize_kernel(widths=(13, 512, 256, 1))
        assert big.dsp > small.dsp
        assert big.ii_cycles >= small.ii_cycles

    def test_clock_scales_ms_not_cycles(self):
        slow = synthesize_kernel(clock_ns=10.0)
        fast = synthesize_kernel(clock_ns=5.0)
        assert slow.ii_cycles == fast.ii_cycles
        assert slow.batch_latency_ms(100) == pytest.approx(
            2.0 * fast.batch_latency_ms(100)
        )

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError):
            synthesize_kernel(dtype="fp16")

    def test_bad_widths_rejected(self):
        with pytest.raises(ValueError):
            synthesize_kernel(widths=(13,))
        with pytest.raises(ValueError):
            synthesize_kernel(widths=(13, 0, 1))


def _trained_net(rng, widths):
    """A small MLP of these widths, fitted for a few epochs, in eval mode."""
    from repro.nn.layers import Linear, ReLU, Sequential
    from repro.nn.losses import MSELoss
    from repro.nn.optim import SGD

    layers = []
    for w_in, w_out in zip(widths[:-1], widths[1:]):
        layers += [Linear(w_in, w_out, rng), ReLU()]
    net = Sequential(*layers[:-1])
    x = rng.normal(size=(256, widths[0]))
    y = x[:, :1] - 0.5 * x[:, 1:2]
    loss, opt = MSELoss(), SGD(net.parameters(), lr=0.01)
    net.train()
    for _ in range(5):
        opt.zero_grad()
        _, grad = loss(net.forward(x), y)
        net.backward(grad)
        opt.step()
    net.eval()
    return net, x


class TestSynthesizeFromPlan:
    """Table III from a compiled plan: the plan's widths, and its dtype
    unless one is given."""

    WIDTHS = (13, 32, 16, 1)

    @pytest.fixture(scope="class")
    def plans(self):
        from repro.infer import compile_int8_plan, compile_plan
        from repro.quantization.qat import convert_to_int8, prepare_qat

        rng = np.random.default_rng(11)
        net, _ = _trained_net(rng, self.WIDTHS)
        qat_net, x = _trained_net(rng, self.WIDTHS)
        qat = prepare_qat(qat_net)
        qat.train()
        qat.forward(x)
        qat.eval()
        return compile_plan(net), compile_int8_plan(convert_to_int8(qat))

    def test_plans_carry_the_network_widths(self, plans):
        float_plan, int8_plan = plans
        assert not float_plan.quantized and int8_plan.quantized
        for plan in plans:
            assert plan.layer_widths == self.WIDTHS

    def test_dtype_follows_quantization(self, plans):
        for plan, dtype in zip(plans, ("fp32", "int8")):
            report = synthesize_from_plan(plan)
            assert report == synthesize_kernel(plan.layer_widths, dtype)
            assert report.dtype == dtype

    def test_explicit_dtype_overrides_the_pick(self, plans):
        for plan, dtype in zip(plans, ("int8", "fp32")):
            report = synthesize_from_plan(plan, dtype=dtype)
            assert report == synthesize_kernel(plan.layer_widths, dtype)
            assert report.dtype == dtype
