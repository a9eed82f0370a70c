"""Tests for nn modules: registration, layers, transformer, losses."""

import numpy as np
import pytest

from repro.autograd import gradcheck, ops
from repro.comm.payload import SpecArray
from repro.nn import (
    CrossEntropyLoss,
    Dropout,
    Embedding,
    FeedForward,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    MSELoss,
    MultiHeadAttention,
    Parameter,
    TransformerLayer,
)
from repro.nn import init as init_mod
from repro.nn.layers import patchify
from repro.tensor import Tensor


class TestModule:
    def test_parameter_registration(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.zeros((2, 2)))
                self.child = Linear(2, 2)

        m = M()
        names = dict(m.named_parameters())
        assert "w" in names
        assert "child.weight" in names and "child.bias" in names

    def test_num_parameters(self):
        lin = Linear(3, 4)
        assert lin.num_parameters() == 3 * 4 + 4

    def test_no_bias(self):
        lin = Linear(3, 4, bias=False)
        assert lin.bias is None
        assert lin.num_parameters() == 12

    def test_train_eval_propagates(self):
        m = ModuleList([Dropout(0.5), Dropout(0.5)])
        m.eval()
        assert not m[0].training and not m[1].training
        m.train()
        assert m[0].training

    def test_state_dict_roundtrip(self):
        rng = np.random.default_rng(0)
        a = Linear(3, 4, rng=rng)
        b = Linear(3, 4, rng=np.random.default_rng(9))
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.weight.numpy(), b.weight.numpy())

    def test_state_dict_mismatch(self):
        a = Linear(3, 4)
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": np.zeros((3, 4))})

    def test_zero_grad(self):
        lin = Linear(2, 2)
        x = Tensor(np.ones((1, 2)))
        lin(x).sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None

    def test_module_list_iteration(self):
        ml = ModuleList([Dropout(0.0), Dropout(0.0)])
        assert len(ml) == 2
        assert list(ml)[0] is ml[0]

    def test_setattr_before_init_raises(self):
        class Bad(Module):
            def __init__(self):
                self.w = Parameter(np.zeros(2))  # missing super().__init__()

        with pytest.raises(RuntimeError):
            Bad()


class TestInitializers:
    def test_lecun_std(self):
        rng = np.random.default_rng(0)
        w = init_mod.lecun_normal()((1000, 10), rng)
        assert float(np.std(w)) == pytest.approx((1 / 1000) ** 0.5, rel=0.1)

    def test_xavier_uniform_bound(self):
        rng = np.random.default_rng(0)
        w = init_mod.xavier_uniform()((100, 100), rng)
        bound = (6 / 200) ** 0.5
        assert np.abs(w).max() <= bound

    def test_param_payload_spec_mode(self):
        from repro.cluster import uniform_cluster
        from repro.runtime import SpmdRuntime

        def prog(ctx):
            p = init_mod.param_payload((3, 3), init_mod.zeros_init, None)
            return isinstance(p, SpecArray)

        assert SpmdRuntime(uniform_cluster(1)).run(prog, materialize=False) == [True]


class TestLayers:
    def test_linear_forward(self):
        lin = Linear(3, 2, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((5, 3)).astype(np.float32)
        out = lin(Tensor(x))
        expect = x @ lin.weight.numpy() + lin.bias.numpy()
        np.testing.assert_allclose(out.numpy(), expect, rtol=1e-5)

    def test_layernorm_normalizes(self):
        ln = LayerNorm(16)
        x = Tensor(np.random.default_rng(0).standard_normal((4, 16)) * 5 + 3)
        out = ln(x).numpy()
        np.testing.assert_allclose(out.mean(-1), 0, atol=1e-5)
        np.testing.assert_allclose(out.std(-1), 1, atol=1e-2)

    def test_embedding_shape(self):
        emb = Embedding(10, 4)
        out = emb(np.array([[1, 2, 3]]))
        assert out.shape == (1, 3, 4)

    def test_patch_embedding_shapes(self):
        patches = patchify(Tensor(np.zeros((2, 8, 8, 3), dtype=np.float32)), 2)
        assert Linear(2 * 2 * 3, 16)(patches).shape == (2, 16, 16)

    def test_patch_embedding_rejects_bad_patch(self):
        with pytest.raises(ValueError):
            patchify(Tensor(np.zeros((1, 7, 7, 3), dtype=np.float32)), 2)

    def test_patchify_preserves_pixels(self):
        """Patch (0,0) of the patchified tensor must equal the image's
        top-left block."""
        img = np.random.default_rng(0).standard_normal((1, 4, 4, 2)).astype(np.float32)
        patches = patchify(Tensor(img), 2).numpy()
        np.testing.assert_allclose(patches[0, 0], img[0, :2, :2, :].reshape(-1))

    def test_dropout_probability_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        x = Tensor(np.ones((4, 4), dtype=np.float32))
        np.testing.assert_array_equal(Dropout(0.0)(x).numpy(), x.numpy())


class TestAttention:
    def test_output_shape(self):
        mha = MultiHeadAttention(16, 4, rng=np.random.default_rng(0))
        out = mha(Tensor(np.zeros((2, 5, 16), dtype=np.float32)))
        assert out.shape == (2, 5, 16)

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3)

    def test_causal_masking(self):
        """With a causal mask, output at position t must not depend on
        inputs at positions > t."""
        rng = np.random.default_rng(0)
        mha = MultiHeadAttention(8, 2, causal=True, rng=np.random.default_rng(1))
        x = rng.standard_normal((1, 4, 8)).astype(np.float32)
        base = mha(Tensor(x)).numpy()
        x2 = x.copy()
        x2[0, 3] += 10.0  # perturb the last position
        out2 = mha(Tensor(x2)).numpy()
        np.testing.assert_allclose(out2[0, :3], base[0, :3], atol=1e-5)
        assert not np.allclose(out2[0, 3], base[0, 3])

    def test_non_causal_fully_connected(self):
        rng = np.random.default_rng(0)
        mha = MultiHeadAttention(8, 2, causal=False, rng=np.random.default_rng(1))
        x = rng.standard_normal((1, 4, 8)).astype(np.float32)
        base = mha(Tensor(x)).numpy()
        x2 = x.copy()
        x2[0, 3] += 10.0
        out2 = mha(Tensor(x2)).numpy()
        assert not np.allclose(out2[0, 0], base[0, 0])

    def test_gradcheck_end_to_end(self):
        layer = TransformerLayer(4, 2, mlp_ratio=1, dtype="float64", rng=np.random.default_rng(3))
        x = Tensor(
            np.random.default_rng(4).standard_normal((1, 3, 4)),
            dtype="float64",
            requires_grad=True,
        )
        gradcheck(lambda x: layer(x), [x], rtol=2e-3, atol=1e-5)


class TestTransformer:
    def test_feedforward_expansion(self):
        ff = FeedForward(8, mlp_ratio=4)
        assert ff.dense_1.weight.shape == (8, 32)
        assert ff.dense_2.weight.shape == (32, 8)

    def test_layer_preserves_shape(self):
        layer = TransformerLayer(16, 4)
        out = layer(Tensor(np.zeros((2, 3, 16), dtype=np.float32)))
        assert out.shape == (2, 3, 16)

    def test_spec_mode_layer(self):
        layer = TransformerLayer(16, 4, rng=np.random.default_rng(0))
        # a spec input through a materialized layer still infers shapes
        out = layer(Tensor(SpecArray((2, 3, 16), "float32")))
        assert out.shape == (2, 3, 16)


class TestLosses:
    def test_ce_matches_manual(self):
        logits = np.random.default_rng(0).standard_normal((4, 5)).astype(np.float32)
        targets = np.array([1, 0, 3, 2])
        loss = CrossEntropyLoss()(Tensor(logits), targets).item()
        p = np.exp(logits - logits.max(-1, keepdims=True))
        p /= p.sum(-1, keepdims=True)
        expect = -np.mean(np.log(p[np.arange(4), targets]))
        assert loss == pytest.approx(expect, rel=1e-5)

    def test_ce_3d_logits(self):
        logits = Tensor(np.zeros((2, 3, 5), dtype=np.float32))
        targets = np.zeros((2, 3), dtype=np.int64)
        loss = CrossEntropyLoss()(logits, targets)
        assert loss.item() == pytest.approx(np.log(5), rel=1e-5)

    def test_mse(self):
        loss = MSELoss()(Tensor(np.array([1.0, 2.0])), Tensor(np.array([0.0, 0.0])))
        assert loss.item() == pytest.approx(2.5)
