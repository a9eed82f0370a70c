"""Optimizers: math correctness, state accounting, LR schedules."""

import numpy as np
import pytest

from repro.cluster import uniform_cluster
from repro.cluster.device import Device, DeviceKind
from repro.comm.payload import SpecArray
from repro.nn.module import Parameter
from repro.optim import SGD, Adam, AdamW, LinearWarmupCosine
from repro.runtime import SpmdRuntime
from repro.tensor import Tensor
from repro.utils.units import MB

from conftest import set_default_device


def _param(values, dtype="float32"):
    p = Parameter(np.asarray(values, dtype=dtype))
    p.grad = Tensor(np.ones_like(np.asarray(values, dtype=np.float32)))
    return p


def _reference_adam(w, g, lr, b1, b2, eps, steps, wd=0.0, decoupled=False):
    w = w.astype(np.float64).copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t in range(1, steps + 1):
        grad = g.copy()
        if wd and not decoupled:
            grad = grad + wd * w
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad * grad
        mh = m / (1 - b1**t)
        vh = v / (1 - b2**t)
        upd = mh / (np.sqrt(vh) + eps)
        if wd and decoupled:
            upd = upd + wd * w
        w = w - lr * upd
    return w


class TestAdamMath:
    def test_matches_reference_3_steps(self):
        w0 = np.array([1.0, -2.0, 0.5], dtype=np.float32)
        p = Parameter(w0.copy())
        opt = Adam([p], lr=0.1)
        for _ in range(3):
            p.grad = Tensor(np.ones(3, dtype=np.float32))
            opt.step()
        ref = _reference_adam(w0, np.ones(3), 0.1, 0.9, 0.999, 1e-8, 3)
        np.testing.assert_allclose(p.numpy(), ref, rtol=1e-5)

    def test_adamw_decoupled(self):
        w0 = np.array([1.0, 1.0], dtype=np.float32)
        p = Parameter(w0.copy())
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        p.grad = Tensor(np.ones(2, dtype=np.float32))
        opt.step()
        ref = _reference_adam(w0, np.ones(2), 0.1, 0.9, 0.999, 1e-8, 1, wd=0.5, decoupled=True)
        np.testing.assert_allclose(p.numpy(), ref, rtol=1e-5)

    def test_fp16_master_weights(self):
        """Tiny updates must accumulate in the fp32 master even when the
        fp16 param can't represent them."""
        p = Parameter(np.full(4, 1.0, dtype=np.float16))
        opt = Adam([p], lr=1e-4)
        state_master = None
        for _ in range(10):
            p.grad = Tensor(np.full(4, 1.0, dtype=np.float32))
            opt.step()
        state_master = opt.state_for(p)["master"].numpy()
        assert state_master[0] < 1.0  # master moved
        assert p.dtype == np.float16

    def test_skip_param_without_grad(self):
        p = Parameter(np.ones(2, dtype=np.float32))
        opt = Adam([p])
        opt.step()  # no grad: no state, no crash
        np.testing.assert_array_equal(p.numpy(), [1.0, 1.0])

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_zero_grad(self):
        p = _param([1.0])
        opt = Adam([p])
        opt.zero_grad()
        assert p.grad is None


class TestSGD:
    def test_plain_sgd(self):
        p = _param([1.0, 2.0])
        SGD([p], lr=0.5).step()
        np.testing.assert_allclose(p.numpy(), [0.5, 1.5])

    def test_momentum_accumulates(self):
        p = Parameter(np.zeros(1, dtype=np.float32))
        opt = SGD([p], lr=1.0, momentum=0.9)
        for _ in range(2):
            p.grad = Tensor(np.ones(1, dtype=np.float32))
            opt.step()
        # v1 = 1; w1 = -1; v2 = 1.9; w2 = -2.9
        np.testing.assert_allclose(p.numpy(), [-2.9], rtol=1e-6)

    def test_weight_decay(self):
        p = _param([2.0])
        SGD([p], lr=0.1, weight_decay=1.0).step()
        # g_eff = 1 + 2 -> w = 2 - 0.3
        np.testing.assert_allclose(p.numpy(), [1.7], rtol=1e-6)


class TestGradClipping:
    def test_clip_rescales(self):
        p = Parameter(np.zeros(4, dtype=np.float32))
        p.grad = Tensor(np.full(4, 2.0, dtype=np.float32))  # norm 4
        opt = Adam([p])
        norm = opt.clip_grad_norm(1.0)
        assert norm == pytest.approx(4.0)
        assert float(np.linalg.norm(p.grad.numpy())) == pytest.approx(1.0, rel=1e-4)

    def test_no_clip_below_threshold(self):
        p = _param([0.1])
        opt = Adam([p])
        opt.clip_grad_norm(10.0)
        np.testing.assert_allclose(p.grad.numpy(), [1.0])


class TestStateAccounting:
    def setup_method(self):
        self.dev = Device("opt", DeviceKind.GPU, memory_capacity=64 * MB)
        set_default_device(self.dev)

    def teardown_method(self):
        set_default_device(None)

    def test_adam_state_bytes(self):
        p = Parameter(np.zeros(1000, dtype=np.float32))
        p.grad = Tensor(np.ones(1000, dtype=np.float32))
        before = self.dev.memory.breakdown().get("optim", 0)
        opt = Adam([p])
        opt.step()
        after = self.dev.memory.breakdown().get("optim", 0)
        assert after - before == 2 * 4000  # m + v fp32

    def test_fp16_param_adds_master(self):
        p = Parameter(np.zeros(1000, dtype=np.float16))
        p.grad = Tensor(np.ones(1000, dtype=np.float32))
        opt = Adam([p])
        opt.step()
        assert self.dev.memory.breakdown()["optim"] == 3 * 4000  # m + v + master

    def test_spec_mode_state_allocated(self):
        p = Parameter(SpecArray((1000,), "float32"))
        p.grad = Tensor(SpecArray((1000,), "float32"))
        opt = Adam([p])
        opt.step()
        assert self.dev.memory.breakdown()["optim"] == 8000


class TestSchedulers:
    def test_cosine_endpoints(self):
        p = _param([1.0])
        opt = Adam([p], lr=1.0)
        sched = LinearWarmupCosine(opt, base_lr=1.0, warmup_steps=0, total_steps=100, min_lr=0.1)
        assert sched.get_lr(0) == pytest.approx(1.0)
        assert sched.get_lr(100) == pytest.approx(0.1)
        assert sched.get_lr(50) == pytest.approx(0.55)

    def test_warmup_ramp(self):
        p = _param([1.0])
        opt = Adam([p], lr=1.0)
        sched = LinearWarmupCosine(opt, base_lr=1.0, warmup_steps=10, total_steps=100)
        assert sched.get_lr(5) == pytest.approx(0.5)
        assert sched.get_lr(10) == pytest.approx(1.0)
        assert sched.get_lr(100) == pytest.approx(0.0, abs=1e-9)

    def test_step_updates_optimizer_lr(self):
        p = _param([1.0])
        opt = Adam([p], lr=1.0)
        sched = LinearWarmupCosine(opt, base_lr=2.0, warmup_steps=2, total_steps=4)
        sched.step()
        assert opt.defaults["lr"] == pytest.approx(1.0)
