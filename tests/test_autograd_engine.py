"""Tests for the backward engine: accumulation, graph mechanics, memory
behaviour, checkpointing, spec mode."""

import gc

import numpy as np
import pytest

from repro.autograd import checkpoint, no_grad, ops
from repro.cluster.device import Device, DeviceKind, Storage
from repro.comm.payload import SpecArray
from repro.tensor import Tensor
from repro.utils.units import MB

from conftest import set_default_device


class TestBackwardMechanics:
    def test_scalar_seed_required(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = ops.mul(x, 2.0)
        with pytest.raises(RuntimeError):
            y.backward()

    def test_explicit_grad_seed(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = ops.mul(x, 3.0)
        y.backward(Tensor(np.array([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(x.grad.numpy(), [3.0, 6.0, 9.0])

    def test_backward_on_leaf_accumulates_seed(self):
        x = Tensor(np.ones(2), requires_grad=True)
        x.backward(Tensor(np.array([5.0, 6.0])))
        np.testing.assert_allclose(x.grad.numpy(), [5.0, 6.0])

    def test_backward_on_detached_raises(self):
        x = Tensor(np.ones(2))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_multi_use_accumulation(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = ops.add(ops.mul(x, 3.0), ops.mul(x, 4.0))  # 7x
        y.backward()
        assert x.grad.numpy()[0] == 7.0

    def test_repeated_backward_accumulates_into_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        for _ in range(2):
            ops.mul(x, 2.0).sum().backward()
        np.testing.assert_allclose(x.grad.numpy(), [4.0, 4.0])

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        ops.mul(x, 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        a = ops.mul(x, 2.0)
        b = ops.mul(x, 5.0)
        y = ops.mul(a, b)  # 10 x^2 -> dy/dx = 20x = 60
        y.backward()
        assert x.grad.numpy()[0] == pytest.approx(60.0)

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.ones(2), requires_grad=True)
        h = x
        for _ in range(3000):
            h = ops.add(h, 1.0)
        h.sum().backward()
        np.testing.assert_allclose(x.grad.numpy(), [1.0, 1.0])

    def test_stop_at_non_grad_inputs(self):
        x = Tensor(np.ones(2), requires_grad=True)
        c = Tensor(np.ones(2))  # constant
        y = ops.mul(x, c).sum()
        y.backward()
        assert c.grad is None
        assert x.grad is not None

    def test_live_output_nothing_consumed_gets_a_zero_grad(self):
        from repro.autograd import Function

        class TwoHeads(Function):  # y = 2x, z = 3x
            @staticmethod
            def forward(ctx, x):
                return 2.0 * x.payload, 3.0 * x.payload

            @staticmethod
            def backward(ctx, gy, gz):
                return (2.0 * gy + 3.0 * gz,)

        x = Tensor(np.ones(2), requires_grad=True)
        y, z = TwoHeads.apply(x)  # z stays alive and takes no part in the loss
        y.sum().backward()
        assert x.grad.numpy().tolist() == [2.0, 2.0]


class TestNoGrad:
    def test_no_graph_built(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            y = ops.mul(x, 2.0)
        assert y.grad_fn is None
        assert not y.requires_grad

    def test_nested_restores(self):
        from repro.autograd.function import grad_enabled

        with no_grad():
            with no_grad():
                assert not grad_enabled()
            assert not grad_enabled()
        assert grad_enabled()


class TestMemoryBehaviour:
    def setup_method(self):
        self.dev = Device("mem", DeviceKind.GPU, memory_capacity=512 * MB)
        set_default_device(self.dev)

    def teardown_method(self):
        set_default_device(None)

    def test_activations_freed_after_backward(self):
        x = Tensor(SpecArray((256, 1024), "float32"), requires_grad=True)
        ws = [
            Tensor(SpecArray((1024, 1024), "float32"), requires_grad=True, tag="param")
            for _ in range(4)
        ]
        h = x
        for w in ws:
            h = ops.gelu(ops.matmul(h, w))
        after_fwd = self.dev.memory.allocated
        loss = h.sum()
        loss.backward()
        del h, loss
        gc.collect()
        residual = self.dev.memory.allocated
        # params + grads + x + x.grad remain; forward activations are gone
        expected = sum(w.nbytes for w in ws) * 2 + x.nbytes * 2
        assert residual <= expected + 4096
        # forward really did hold activations: 2 per layer (matmul + gelu)
        held = after_fwd - sum(w.nbytes for w in ws) - x.nbytes
        assert held >= 8 * x.nbytes

    def test_peak_shape_rises_through_forward(self):
        x = Tensor(SpecArray((64, 64)), requires_grad=True)
        w = Tensor(SpecArray((64, 64)), requires_grad=True)
        base = self.dev.memory.allocated
        h = ops.matmul(x, w)
        assert self.dev.memory.allocated > base

    def test_view_ops_do_not_allocate(self):
        x = Tensor(SpecArray((64, 64)), requires_grad=True)
        base = self.dev.memory.allocated
        ops.reshape(x, (4096,))
        ops.transpose(x, (1, 0))
        assert self.dev.memory.allocated == base


class TestCheckpoint:
    def test_grad_equivalence(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 8)), requires_grad=True)

        def block(x, w):
            return ops.gelu(ops.matmul(x, w))

        block(x, w).sum().backward()
        gx, gw = x.grad.numpy().copy(), w.grad.numpy().copy()
        x.zero_grad(), w.zero_grad()
        checkpoint(block, x, w).sum().backward()
        np.testing.assert_allclose(x.grad.numpy(), gx, rtol=1e-6)
        np.testing.assert_allclose(w.grad.numpy(), gw, rtol=1e-6)

    def test_memory_saved(self):
        dev = Device("ckpt", DeviceKind.GPU, memory_capacity=512 * MB)
        set_default_device(dev)
        try:
            def run(use_ckpt):
                dev.memory.reset_peak()
                x = Tensor(SpecArray((128, 512)), requires_grad=True)
                ws = [Tensor(SpecArray((512, 512)), requires_grad=True) for _ in range(4)]

                def block(x, *ws):
                    h = x
                    for w in ws:
                        h = ops.gelu(ops.matmul(h, w))
                    return h

                if use_ckpt:
                    out = checkpoint(block, x, *ws)
                else:
                    out = block(x, *ws)
                return dev.memory.peak  # peak during forward

            peak_plain = run(False)
            gc.collect()
            peak_ckpt = run(True)
            assert peak_ckpt < peak_plain
        finally:
            set_default_device(None)

    def test_forward_value_unchanged(self):
        x = Tensor(np.full((2, 2), 0.5), requires_grad=True)
        out = checkpoint(lambda a: ops.gelu(a), x)
        np.testing.assert_array_equal(out.numpy(), ops.gelu(x).numpy())


    def test_dropout_recomputed_under_the_forward_mask(self):
        """The recompute rewinds the rank RNG to where the forward stood —
        checkpointed gradients equal plain ones with dropout on — and puts
        it back, so later draws are an uncheckpointed run's."""
        from repro.cluster import uniform_cluster
        from repro.runtime import SpmdRuntime

        def prog(ctx, use_ckpt):
            x = Tensor(np.ones((4, 8)), requires_grad=True)

            def block(x):
                return ops.mul(ops.dropout(ops.mul(x, 2.0), 0.5), x)

            out = checkpoint(block, x) if use_ckpt else block(x)
            out.sum().backward()
            return x.grad.numpy(), ctx.rng.random(4)

        rt = SpmdRuntime(uniform_cluster(1))
        (plain, draws_plain), = rt.run(prog, False, seed=7)
        (ckpt, draws_ckpt), = rt.run(prog, True, seed=7)
        assert set(np.unique(plain)) == {0.0, 8.0}, "mask never dropped or kept"
        np.testing.assert_array_equal(ckpt, plain)
        np.testing.assert_array_equal(draws_ckpt, draws_plain)


class TestKeywordTensor:
    def test_tensor_by_keyword_is_rejected_at_apply(self):
        """A keyword Tensor is invisible to autograd; it used to die three
        layers down, in backward's grad-count check."""
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(TypeError, match=r"Mul\.apply.*'b'"):
            ops.Mul.apply(a, b=b)
        with no_grad(), pytest.raises(TypeError, match="'b'"):
            ops.Mul.apply(a, b=b)
        # non-tensor keywords keep working
        assert ops.Sum.apply(a, axis=None, keepdims=False).item() == 3.0


class TestSpecBackward:
    def test_shapes_propagate(self):
        x = Tensor(SpecArray((8, 16)), requires_grad=True)
        w = Tensor(SpecArray((16, 4)), requires_grad=True)
        loss = ops.cross_entropy(ops.matmul(x, w), None)
        loss.backward()
        assert x.grad.shape == (8, 16)
        assert w.grad.shape == (16, 4)

    def test_flops_charged_in_both_modes(self):
        from repro.cluster import uniform_cluster
        from repro.runtime import SpmdRuntime

        def prog(ctx):
            x = Tensor(
                SpecArray((64, 64)) if not ctx.materialize else np.zeros((64, 64), dtype=np.float32),
                requires_grad=True,
            )
            w = Tensor(
                SpecArray((64, 64)) if not ctx.materialize else np.zeros((64, 64), dtype=np.float32),
                requires_grad=True,
            )
            ops.matmul(x, w).sum().backward()
            return ctx.clock.time

        rt = SpmdRuntime(uniform_cluster(1))
        t_real = rt.run(prog)[0]
        t_spec = rt.run(prog, materialize=False)[0]
        assert t_real == pytest.approx(t_spec)
        assert t_real > 0


class TestOutputConstruction:
    """``Function.apply`` builds its outputs inline; each one must equal what
    ``Tensor._wrap`` makes from the same arguments, slot for slot."""

    SLOTS = ("payload", "device", "tag", "requires_grad", "grad", "grad_hook", "name")

    @pytest.mark.parametrize("materialize", [True, False], ids=["real", "spec"])
    @pytest.mark.parametrize("requires_grad", [True, False], ids=["grad", "nograd"])
    @pytest.mark.parametrize("op", ["reshape", "mul", "sum"])
    def test_apply_outputs_equal_wrap(self, materialize, requires_grad, op):
        from repro.autograd.function import FnCtx
        from repro.cluster import uniform_cluster
        from repro.runtime import SpmdRuntime

        def prog(ctx):
            data = np.ones((2, 3), np.float32)
            x = Tensor(data if materialize else SpecArray((2, 3), "float32"),
                       requires_grad=requires_grad)
            out = {"reshape": lambda: ops.reshape(x, (3, 2)),
                   "mul": lambda: ops.mul(x, 2.0),
                   "sum": lambda: x.sum()}[op]()
            view = op == "reshape"
            ref = Tensor._wrap(out.payload, ctx.device, materialize,
                               x.storage if view else None, "activation")
            ref.requires_grad = requires_grad  # _wrap builds a tensor with no gradient
            for slot in self.SLOTS:
                assert getattr(out, slot) is getattr(ref, slot) or (
                    getattr(out, slot) == getattr(ref, slot)), slot
            assert type(out.payload) is (np.ndarray if materialize else SpecArray)
            if view:
                assert out.storage is x.storage is ref.storage
            else:
                assert out.storage is not ref.storage
                for slot in Storage.__slots__:
                    assert getattr(out.storage, slot) == getattr(ref.storage, slot), slot
            if requires_grad:
                assert type(out.grad_fn) is FnCtx and out.grad_fn.outputs[0]() is out
            else:
                assert out.grad_fn is None is ref.grad_fn
            return True

        rt = SpmdRuntime(uniform_cluster(1))
        assert rt.run(prog, materialize=materialize) == [True]

    def test_spec_payload_is_taken_as_is(self):
        spec = SpecArray((4, 2), "float16")
        assert Tensor(spec).payload is spec
        assert Tensor(spec, dtype="float32").payload.dtype == np.float32
