"""Mixed precision: grad scaler dynamics, fp16 casting, overflow skips."""

import numpy as np
import pytest

from repro.amp import GradScaler, cast_model_to
from repro.cluster.device import Device, DeviceKind
from repro.config import FP16Config
from repro.nn import Linear
from repro.nn.module import Parameter
from repro.tensor import Tensor
from repro.utils.units import MB

from conftest import set_default_device


def _scaler(**kw):
    defaults = dict(enabled=True, initial_scale=2.0**8, growth_interval=2)
    defaults.update(kw)
    return GradScaler(FP16Config(**defaults))


class TestGradScaler:
    def test_scale_loss(self):
        s = _scaler()
        loss = Tensor(np.array([2.0]))
        scaled = s.scale_loss(loss)
        assert scaled.numpy()[0] == 2.0 * 256

    def test_unscale_divides(self):
        s = _scaler()
        p = Parameter(np.zeros(2, dtype=np.float32))
        p.grad = Tensor(np.full(2, 256.0, dtype=np.float32))
        assert s.unscale_and_check([p])
        np.testing.assert_allclose(p.grad.numpy(), [1.0, 1.0])

    def test_overflow_backs_off(self):
        s = _scaler()
        p = Parameter(np.zeros(2, dtype=np.float32))
        p.grad = Tensor(np.array([np.inf, 1.0], dtype=np.float32))
        assert not s.unscale_and_check([p])
        assert s.scale == 128.0
        assert s.overflows == 1

    def test_nan_detected(self):
        s = _scaler()
        p = Parameter(np.zeros(1, dtype=np.float32))
        p.grad = Tensor(np.array([np.nan], dtype=np.float32))
        assert not s.unscale_and_check([p])

    def test_growth_after_interval(self):
        s = _scaler(growth_interval=2)
        p = Parameter(np.zeros(1, dtype=np.float32))
        for _ in range(2):
            p.grad = Tensor(np.ones(1, dtype=np.float32))
            s.unscale_and_check([p])
        assert s.scale == 512.0

    def test_scale_floor(self):
        s = _scaler(initial_scale=2.0, min_scale=1.0)
        p = Parameter(np.zeros(1, dtype=np.float32))
        for _ in range(5):
            p.grad = Tensor(np.array([np.inf], dtype=np.float32))
            s.unscale_and_check([p])
        assert s.scale == 1.0

    def test_spec_grads_assumed_finite(self):
        from repro.comm.payload import SpecArray

        s = _scaler()
        p = Parameter(SpecArray((4,), "float32"))
        p.grad = Tensor(SpecArray((4,), "float32"))
        assert s.unscale_and_check([p])


class TestFP16Cast:
    def setup_method(self):
        self.dev = Device("amp", DeviceKind.GPU, memory_capacity=64 * MB)
        set_default_device(self.dev)

    def teardown_method(self):
        set_default_device(None)

    def test_cast_halves_param_bytes(self):
        lin = Linear(64, 64)
        before = self.dev.memory.breakdown()["param"]
        cast_model_to(lin, "float16")
        after = self.dev.memory.breakdown()["param"]
        assert after == before // 2
        assert lin.weight.dtype == np.float16

    def test_cast_preserves_values(self):
        lin = Linear(4, 4, rng=np.random.default_rng(0))
        w = lin.weight.numpy().copy()
        cast_model_to(lin, "float16")
        np.testing.assert_allclose(lin.weight.numpy(), w, atol=1e-2)

    def test_cast_idempotent(self):
        lin = Linear(4, 4)
        cast_model_to(lin, "float16")
        bytes_once = self.dev.memory.breakdown()["param"]
        cast_model_to(lin, "float16")
        assert self.dev.memory.breakdown()["param"] == bytes_once
