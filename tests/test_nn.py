"""Tests for nn modules: registration, layers, transformer, losses."""

import collections
import pickle
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.autograd import gradcheck, ops
from repro.cluster import uniform_cluster
from repro.comm.payload import SpecArray
from repro.models import BertConfig, ViTConfig, build_bert, build_vit
from repro.models.gpt import GPTConfig, build_gpt
from repro.nn import (
    CrossEntropyLoss,
    Dropout,
    Embedding,
    FeedForward,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    MultiHeadAttention,
    Parameter,
    TransformerLayer,
)
from repro.nn import init as init_mod
from repro.nn.layers import patchify
from repro.parallel import tensor_mode
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

    def test_registers_without_super_init(self):
        """Registration is the instance dict: a module that skips
        ``super().__init__()`` still registers its parameters and
        children, in assignment order."""
        class NoInit(Module):
            def __init__(self):
                self.w = Parameter(np.zeros(2))
                self.child = Linear(2, 2)
                self.v = Parameter(np.zeros(3))

        m = NoInit()
        assert [n for n, _ in m.named_parameters()] == [
            "w", "v", "child.weight", "child.bias"]
        assert list(m._modules) == ["child"] and m.training

    def test_overwritten_or_deleted_parameter_leaves_the_registry(self):
        lin = Linear(3, 4)
        lin.bias = None
        assert [n for n, _ in lin.named_parameters()] == ["weight"]
        assert lin.num_parameters() == 12
        del lin.weight
        assert lin.parameters() == [] and lin.num_parameters() == 0

        m = ModuleList([Linear(2, 2)])
        setattr(m, "0", 5)  # a child overwritten by a plain value
        assert m._modules == {} and m.parameters() == []

    def test_shared_parameter_yielded_once(self):
        """A tensor reachable under two names is one parameter, under the
        first name the walk meets: counted once and stepped once."""
        from repro.optim import Adam

        class Tied(Module):
            def __init__(self):
                self.a = Linear(4, 4, rng=np.random.default_rng(0))
                self.b = Linear(4, 4, rng=np.random.default_rng(1))
                self.b.weight = self.a.weight

            def forward(self, x):
                return self.b(self.a(x))

        m = Tied()
        assert [n for n, _ in m.named_parameters()] == ["a.weight", "a.bias", "b.bias"]
        assert m.num_parameters() == 16 + 4 + 4
        opt = Adam(m.parameters(), lr=0.1)
        m(Tensor(np.ones((2, 4), np.float32))).sum().backward()
        opt.step()
        assert opt.state[id(m.a.weight)]["t"] == 1

        # a child held twice is walked once
        shared = Linear(2, 2)
        ml = ModuleList([shared, shared])
        assert [n for n, _ in ml.named_parameters()] == ["0.weight", "0.bias"]


class _Leaf(Module):
    def __init__(self, p):
        self.w = p

    def forward(self, x):
        return x


#: one action on a module: (target, attribute, kind, pick)
_ACTIONS = st.lists(st.tuples(
    st.integers(0, 2), st.sampled_from("abc"),
    st.sampled_from(["param", "module", "none", "plain", "del"]),
    st.integers(0, 3)), max_size=30)


class TestRegistrationSemantics:
    """Parameters are attributes: whatever sequence of assignments and
    ``del`` a model goes through, ``named_parameters()`` and ``_modules``
    read what a plain ordered registry of its attributes says."""

    @staticmethod
    def _expected(root, registry):
        """Own parameters in attribute order, then each child's, depth
        first; a tensor already yielded is skipped."""
        out, seen = [], set()

        def walk(m, prefix):
            attrs = registry.get(id(m), {"w": getattr(m, "w", None)})
            for name, v in attrs.items():
                if isinstance(v, Parameter) and id(v) not in seen:
                    seen.add(id(v))
                    out.append((prefix + name, v))
            for name, v in attrs.items():
                if isinstance(v, Module):
                    walk(v, f"{prefix}{name}.")

        walk(root, "")
        return out

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(actions=_ACTIONS)
    def test_registry_follows_attributes(self, actions):
        params = [Parameter(np.zeros(i + 1)) for i in range(3)]
        # targets nest root > mid > low; a module value only ever goes below
        # its target, so the tree stays acyclic
        root, mid, low = Module(), Module(), Module()
        targets = [root, mid, low]
        leaves = [_Leaf(params[0]), _Leaf(Parameter(np.zeros(4)))]
        registry = {id(m): {} for m in targets}
        for t, name, kind, pick in actions:
            m, attrs = targets[t], registry[id(targets[t])]
            if kind == "del":
                if name in attrs:
                    delattr(m, name)
                    del attrs[name]
                continue
            if kind == "param":
                value = params[pick % 3]
            elif kind == "module":
                below = targets[t + 1:] + leaves
                value = below[pick % len(below)]
            else:
                value = None if kind == "none" else 7
            setattr(m, name, value)
            attrs[name] = value
        for m in targets:
            children = {n: v for n, v in registry[id(m)].items() if isinstance(v, Module)}
            assert m._modules == children
            got = m.named_parameters()
            want = self._expected(m, registry)
            assert [n for n, _ in got] == [n for n, _ in want]
            assert all(a is b for (_, a), (_, b) in zip(got, want))


#: parameter names of one serial TransformerLayer, in registration order
_LAYER = ["norm_1.gamma", "norm_1.beta", "attention.qkv.weight", "attention.qkv.bias",
          "attention.out.weight", "attention.out.bias", "norm_2.gamma", "norm_2.beta",
          "mlp.dense_1.weight", "mlp.dense_1.bias", "mlp.dense_2.weight", "mlp.dense_2.bias"]
#: ... and of the zoo's models at the configs below (a module's own
#: parameters precede its children's, so ``pos_emb`` leads)
_ORDER = {
    "layer": _LAYER,
    "gpt": (["0.pos_emb", "0.token_emb.weight"]
            + [f"{i}.{n}" for i in (1, 2) for n in _LAYER]
            + ["3.norm.gamma", "3.norm.beta", "3.head.weight"]),
    "vit": (["pos_emb", "patch_proj.weight", "patch_proj.bias"]
            + ["layers.0." + n for n in _LAYER]
            + ["norm.gamma", "norm.beta", "head.weight", "head.bias"]),
    "bert": (["pos_emb", "token_emb.weight"] + ["layers.0." + n for n in _LAYER]
             + ["norm.gamma", "norm.beta", "head.weight", "head.bias"]),
}
_VIT = ViTConfig(hidden_size=16, n_layers=1, n_heads=4, image_size=8, patch_size=4)
_BERT = BertConfig(vocab_size=32, hidden_size=16, n_layers=1, n_heads=4, seq_len=8)
_GPT = GPTConfig(vocab_size=32, hidden_size=16, n_layers=2, n_heads=4, seq_len=8,
                 dtype="float32")
#: tensor mode -> (world, tensor config, models built in it)
_MODE_CASES = {
    "1d": (4, dict(size=4, mode="1d"), ("layer", "vit", "bert", "bert_vp", "gpt")),
    "2d": (4, dict(size=4, mode="2d"), ("layer", "vit")),
    "2.5d": (8, dict(size=8, mode="2.5d", depth=2), ("layer", "vit")),
    "3d": (8, dict(size=8, mode="3d"), ("layer", "vit")),
    "sequence": (4, dict(size=4, mode="sequence"), ("layer", "bert")),
}


def _names(m):
    return [n for n, _ in m.named_parameters()]


def _build(model, pc=None):
    if model == "layer":
        return TransformerLayer(16, 4, mode=tensor_mode(pc))
    if model == "gpt":
        return build_gpt(_GPT, pc)
    if model == "vit":
        return build_vit(_VIT, pc).model
    return build_bert(_BERT, pc, vocab_parallel_loss=model == "bert_vp").model


class TestRegistrationOrder:
    """Parameter order is what DDP buckets, optimizer state and the goldens
    are laid out over: every in-tree model keeps the order it had when
    ``Module.__setattr__`` registered each assignment."""

    @pytest.mark.parametrize("model", ["layer", "gpt", "vit", "bert"])
    def test_serial(self, model):
        assert _names(_build(model)) == _ORDER[model]

    @pytest.mark.parametrize("name", _MODE_CASES)
    def test_every_tensor_mode(self, name):
        world, tensor, models = _MODE_CASES[name]

        def prog(ctx, pc):
            return [_names(_build(model, pc)) for model in models]

        for per_rank in repro.launch(dict(parallel=dict(tensor=tensor)),
                                     uniform_cluster(world), prog,
                                     world_size=world, materialize=False):
            for model, names in zip(models, per_rank):
                assert names == _ORDER[model.split("_")[0]], model

    def test_pipeline_stages(self):
        def prog(ctx, pc):
            return _names(build_gpt(_GPT, pc))

        first, last = repro.launch(dict(parallel=dict(pipeline=2)), uniform_cluster(2),
                                   prog, world_size=2, materialize=False)
        assert first == _ORDER["gpt"][:14]
        assert last == ["0." + n for n in _LAYER] + ["1.norm.gamma", "1.norm.beta",
                                                     "1.head.weight"]


class TestCallIsForward:
    """``m(x)`` runs the class's own ``forward`` with no wrapper frame, and a
    hand-written ``__call__`` anywhere above a class is kept."""

    def test_grandchild_forward_override(self):
        class A(Module):
            def forward(self, x):
                return ("A", x)

        class B(A):
            pass

        class C(B):
            def forward(self, x):
                return ("C", x)

        assert A()(1) == ("A", 1) and B()(2) == ("A", 2) and C()(3) == ("C", 3)
        assert C.__call__ is C.forward and B.__call__ is A.forward

    def test_ancestor_call_is_kept(self):
        class Wrapped(Module):
            def __call__(self, x):
                return ("wrapped", self.forward(x))

            def forward(self, x):
                return x

        class Child(Wrapped):
            def forward(self, x):
                return 2 * x

        class Grandchild(Child):
            pass

        assert Wrapped()(1) == ("wrapped", 1)
        assert Child()(1) == ("wrapped", 2) and Grandchild()(3) == ("wrapped", 6)

    def test_base_forward_still_raises(self):
        with pytest.raises(NotImplementedError):
            ModuleList([])(1)


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

    def test_ranks_that_draw_alike_draw_once(self):
        """In a materialized run, ranks that draw one init from generators in
        one state share the draw (``SpmdRuntime.draws``): each rank's
        parameters and generators end bit-identical to building the layers
        outside any run, a rank's copy is its own, ``init_fn`` runs once per
        distinct draw (also with the ranks switching every microsecond), a
        draw every rank is past is dropped, and the table is empty after the
        run."""
        from repro.comm import Communicator
        from repro.parallel.common import shard_sections
        from repro.parallel.tensor1d import ColumnParallelLinear
        from repro.runtime import SpmdRuntime

        calls = collections.Counter()
        xavier = init_mod.xavier_uniform()

        def counted(shape, rng):  # pure: neither count nor nap reaches the draw
            calls[shape, pickle.dumps(rng.bit_generator.state)] += 1
            time.sleep(0.005)  # the other ranks reach the table meanwhile
            return xavier(shape, rng)

        def build(comm=None):
            rngs = [np.random.default_rng([7, i]) for i in range(3)]
            tp = (ColumnParallelLinear(8, 12, comm, weight_init=counted, rng=rngs[2])
                  if comm is not None else Linear(8, 12, weight_init=counted, rng=rngs[2]))
            layers = [Linear(8, 6, weight_init=counted, rng=rngs[0]),
                      LayerNorm(6, rng=rngs[1]), tp]
            params = [p.payload.copy() for m in layers for p in m.parameters()]
            return layers, params, [r.bit_generator.state for r in rngs]

        _, ref, ref_states = build()

        def prog(ctx):
            world = Communicator.world(ctx)
            layers, _, states = build(world)
            if ctx.rank == 0:
                layers[0].weight.payload += 1.0
            world.barrier()
            held = None
            if ctx.rank == 0:  # every rank is past every draw: the next miss drops them
                init_mod.param_payload((2,), init_mod.normal(), np.random.default_rng(0))
                held = len(ctx.runtime.draws)
            return [p.payload.copy() for m in layers for p in m.parameters()], states, held

        calls.clear()
        rt = SpmdRuntime(uniform_cluster(4))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # ranks interleave inside the table's check-then-draw
        try:
            results = rt.run(prog)
        finally:
            sys.setswitchinterval(interval)
        assert set(calls.values()) == {1}
        assert rt.draws == {}
        assert [held for _, _, held in results] == [1, None, None, None]
        for rank, (params, states, _) in enumerate(results):
            want = [*ref[:4], shard_sections(ref[4], 1, 4, rank),
                    shard_sections(ref[5], 0, 4, rank)]
            if rank == 0:
                want[0] = want[0] + 1.0
            assert [(p.dtype, p.shape, p.tobytes()) for p in params] == \
                [(w.dtype, w.shape, w.tobytes()) for w in want]
            assert states == ref_states

        # a model asking the init factories per build (GPT's position embedding and
        # head) keys each distinct draw once, at most one draw per turn
        cfg = GPTConfig(vocab_size=64, hidden_size=32, n_layers=2, n_heads=4, seq_len=8,
                        dtype="float32")
        ref = [p.payload for p in build_gpt(cfg).parameters()]
        drawn = []

        class Logged(dict):
            def __setitem__(self, key, value):
                drawn.append(key), super().__setitem__(key, value)

        rt = SpmdRuntime(uniform_cluster(4))
        rt.draws = Logged()
        results = rt.run(lambda ctx: [p.payload for p in build_gpt(cfg).parameters()])
        keys = set(drawn)  # a key names its draw: the init's code and arguments, then the rest
        assert len({(k[0].__qualname__, *(c.cell_contents for c in k[0].__closure__ or ()), *k[1:])
                    for k in keys}) == len(keys)
        assert len(drawn) <= len(ref)
        for params in results:
            assert [(p.dtype, p.tobytes()) for p in params] == [(w.dtype, w.tobytes()) for w in ref]


    def test_constant_inits_skip_the_draw_table(self):
        """``zeros_init`` / ``ones_init`` never move the generator, so a rank
        drawing one twice at one width would repeat its key: they skip the
        table, and their bits and the generator stay what they were."""
        from repro.runtime import SpmdRuntime

        drawn = []

        class Logged(dict):
            def __setitem__(self, key, value):
                drawn.append(key), super().__setitem__(key, value)

        def prog(ctx):
            rng = np.random.default_rng(5)
            out = [init_mod.param_payload((8,), init, rng)
                   for init in (init_mod.zeros_init, init_mod.zeros_init, init_mod.ones_init,
                                init_mod.normal(), init_mod.ones_init)]
            return out, rng.bit_generator.state

        rt = SpmdRuntime(uniform_cluster(2))
        rt.draws = Logged()
        results = rt.run(prog)
        assert [k[0] for k in drawn] == [init_mod.normal()]
        ref = np.random.default_rng(5)
        want = [np.zeros(8, np.float32), np.zeros(8, np.float32), np.ones(8, np.float32),
                init_mod.normal()((8,), ref).astype(np.float32), np.ones(8, np.float32)]
        for out, state in results:
            assert [(a.dtype, a.tobytes()) for a in out] == [(w.dtype, w.tobytes()) for w in want]
            assert state == ref.bit_generator.state


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
