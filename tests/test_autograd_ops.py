"""Gradient checks for every autograd op (float64 central differences)."""

import numpy as np
import pytest

from repro.autograd import gradcheck, ops
from repro.tensor import Tensor

rng = np.random.default_rng(12345)


def t(shape, seed=None, positive=False):
    r = np.random.default_rng(seed) if seed is not None else rng
    arr = r.standard_normal(shape)
    if positive:
        arr = np.abs(arr) + 0.5
    return Tensor(arr, dtype="float64", requires_grad=True)


class TestElementwiseGrads:
    def test_add_broadcast(self):
        gradcheck(ops.add, [t((3, 4)), t((4,))])

    def test_sub(self):
        gradcheck(ops.sub, [t((2, 3)), t((2, 3))])

    def test_mul_broadcast(self):
        gradcheck(ops.mul, [t((2, 1, 3)), t((4, 3))])

    def test_div(self):
        gradcheck(ops.div, [t((3,)), t((3,), positive=True)])

    def test_neg(self):
        gradcheck(ops.neg, [t((5,))])

    def test_power(self):
        gradcheck(lambda a: ops.power(a, 3.0), [t((4,), positive=True)])

    def test_gelu(self):
        gradcheck(ops.gelu, [t((6,))])

    def test_scalar_operand(self):
        gradcheck(lambda a: ops.mul(a, 2.5), [t((3,))])

    def test_dunder_chain(self):
        a, b = t((3,)), t((3,), positive=True)
        gradcheck(lambda a, b: (a * b + a - b / 2.0) ** 2.0, [a, b])


class TestMatmulGrads:
    def test_2d(self):
        gradcheck(ops.matmul, [t((3, 4)), t((4, 5))])

    def test_batched(self):
        gradcheck(ops.matmul, [t((2, 3, 4)), t((2, 4, 5))])

    def test_broadcast_batch(self):
        gradcheck(ops.matmul, [t((2, 3, 4)), t((4, 5))])

    def test_4d_attention_shape(self):
        gradcheck(ops.matmul, [t((2, 2, 3, 4)), t((2, 2, 4, 3))])


class TestShapeGrads:
    def test_reshape(self):
        gradcheck(lambda a: ops.reshape(a, (6,)), [t((2, 3))])

    def test_transpose(self):
        gradcheck(lambda a: ops.transpose(a, (1, 0, 2)), [t((2, 3, 4))])

    def test_swapaxes(self):
        gradcheck(lambda a: ops.swapaxes(a, -1, -2), [t((2, 3, 4))])

    def test_slice(self):
        gradcheck(lambda a: ops.slice_(a, (slice(1, 3), slice(None))), [t((4, 3))])

    def test_split_sum(self):
        def fn(a):
            p1, p2 = ops.split(a, 2, axis=0)
            return ops.add(p1, p2)

        gradcheck(fn, [t((4, 3))])


class TestReductionGrads:
    def test_sum_all(self):
        gradcheck(lambda a: a.sum(), [t((3, 4))])

    def test_sum_axis_keepdims(self):
        gradcheck(lambda a: ops.sum_(a, axis=1, keepdims=True), [t((3, 4))])

    def test_mean_axis(self):
        gradcheck(lambda a: ops.mean_(a, axis=0), [t((3, 4))])

    def test_mean_all(self):
        gradcheck(lambda a: a.mean(), [t((5,))])


class TestSoftmaxLossGrads:
    def test_softmax(self):
        gradcheck(lambda a: ops.softmax(a, -1), [t((3, 5))], rtol=1e-3)

    def test_layer_norm(self):
        x = t((3, 6))
        g = Tensor(np.random.default_rng(1).standard_normal(6) + 1.0, dtype="float64", requires_grad=True)
        b = Tensor(np.random.default_rng(2).standard_normal(6), dtype="float64", requires_grad=True)
        gradcheck(lambda x, g, b: ops.layer_norm(x, g, b), [x, g, b], rtol=2e-3, atol=1e-5)

    def test_cross_entropy(self):
        logits = t((6, 5))
        targets = np.random.default_rng(3).integers(0, 5, 6)
        gradcheck(lambda l: ops.cross_entropy(l, targets), [logits], rtol=1e-3)

    @pytest.mark.parametrize("materialize", [True, False])
    def test_cross_entropy_tensor_targets(self, materialize):
        """Targets passed as a ``Tensor`` are a second tensor input: they
        receive a ``None`` gradient and the logits the array-target one —
        in spec mode on the cold dispatch and on the plan's replay."""
        from repro.cluster import uniform_cluster
        from repro.runtime import SpmdRuntime

        ids = np.random.default_rng(3).integers(0, 5, 6)
        logits_data = np.random.default_rng(4).standard_normal((6, 5))

        def prog(ctx):
            grads = []
            for targets in (ids, Tensor(ids), Tensor(ids)):
                logits = Tensor(logits_data, requires_grad=True)
                ops.cross_entropy(logits, targets).backward()
                if isinstance(targets, Tensor):
                    assert targets.grad is None
                grads.append(logits.grad.payload)
            return grads

        rt = SpmdRuntime(uniform_cluster(1))
        (by_array, *by_tensor), = rt.run(prog, materialize=materialize)
        for g in by_tensor:
            if materialize:
                np.testing.assert_array_equal(g, by_array)
            else:
                assert (g.shape, g.dtype) == (by_array.shape, by_array.dtype)
        if not materialize:  # the second tensor-target call replayed a plan
            (plan,) = [p for key, p in rt.op_plans.items()
                       if key[0] is ops.CrossEntropy]
            assert plan and list(plan.grads.values())[0][1] is None


class TestEmbeddingGrad:
    def test_scatter_add(self):
        w = Tensor(rng.standard_normal((7, 3)), dtype="float64", requires_grad=True)
        idx = np.array([[0, 2], [2, 6]])
        out = ops.embedding(w, idx)
        out.sum().backward()
        expect = np.zeros((7, 3))
        for i in idx.reshape(-1):
            expect[i] += 1
        np.testing.assert_allclose(w.grad.numpy(), expect)

    def test_forward_values(self):
        w = Tensor(np.arange(12.0).reshape(4, 3))
        out = ops.embedding(w, np.array([1, 3]))
        np.testing.assert_array_equal(out.numpy(), [[3, 4, 5], [9, 10, 11]])


class TestDropout:
    def test_eval_mode_identity(self):
        x = Tensor(np.ones(100))
        out = ops.dropout(x, 0.5, training=False)
        np.testing.assert_array_equal(out.numpy(), x.numpy())

    def test_scaling_preserves_mean(self):
        x = Tensor(np.ones(100_000, dtype=np.float64))
        out = ops.dropout(x, 0.3, training=True)
        assert float(out.numpy().mean()) == pytest.approx(1.0, abs=0.02)

    def test_mask_applied_to_grad(self):
        x = Tensor(np.ones(1000), requires_grad=True)
        out = ops.dropout(x, 0.5, training=True)
        out.sum().backward()
        # grad zero exactly where output zero
        np.testing.assert_array_equal(x.grad.numpy() == 0, out.numpy() == 0)
