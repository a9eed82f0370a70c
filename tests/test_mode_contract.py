"""The mode contract (DESIGN §4o): one Transformer layer, one ViT, one BERT,
and a mode object each of them asks.

One table of registered modes drives every test here — adding a mode adds a
row to ``CASES``, not a file.  The per-mode parity files
(``test_tensor{1d,2d,25d,3d}.py``, ``test_sequence.py``) stay the reference:
their expected slices come from ``parity_helpers.block``, never from the
code under test; here the mode's own ``shard_activation`` / ``local_shape``
are what is being held to the layer.
"""

import numpy as np
import pytest

import repro
from repro.cluster import uniform_cluster
from repro.comm import SpecArray
from repro.models import BertConfig, ViTConfig, build_bert, build_vit
from repro.models.bert import Bert
from repro.models.vit import ViT
from repro.nn import FeedForward, MultiHeadAttention, TransformerLayer
from repro.nn.mode import SERIAL
from repro.parallel import MODES, tensor_mode
from repro.tensor import Tensor

from parity_helpers import ATOL, B, H, NH, RATIO, SEED, serial_reference

S = 8  # divisible by the 4-way sequence group (parity_helpers.S is 6)

# element counts of the serial layer, by how a mode may shard them
W = H * 3 * H + H * H + 2 * RATIO * H * H  # the four weights
B1 = 3 * H + RATIO * H                     # biases of the first linears
B2 = 2 * H                                 # biases of the second linears
LN = 4 * H                                 # two layer norms

#: mode -> (world, tensor config, parameter elements per rank)
CASES = {
    "serial": (1, {}, W + B1 + B2 + LN),
    # weights and first-linear biases split p ways; the rest replicated
    "1d": (4, dict(size=4, mode="1d"), W // 4 + B1 // 4 + B2 + LN),
    # weights over the q x q grid, every vector over its q columns
    "2d": (4, dict(size=4, mode="2d"), W // 4 + (B1 + B2 + LN) // 2),
    # ... and replicated across depth
    "2.5d": (8, dict(size=8, mode="2.5d", depth=2), W // 4 + (B1 + B2 + LN) // 2),
    # weights over the l^3 cube, every vector over one axis
    "3d": (8, dict(size=8, mode="3d"), W // 8 + (B1 + B2 + LN) // 2),
    # the model is replicated; only the sequence is split
    "sequence": (4, dict(size=4, mode="sequence"), W + B1 + B2 + LN),
}


def test_every_registered_mode_has_a_row():
    assert set(CASES) == set(MODES) | {"serial"}
    assert SERIAL.vocab_parallel() is SERIAL  # only 1D has a vocab-sharded variant


def _launch(name, prog, materialize=True):
    world, tensor, _ = CASES[name]
    config = dict(parallel=dict(tensor=tensor)) if tensor else {}
    return repro.launch(
        config, uniform_cluster(world), prog, world_size=world, materialize=materialize
    )


def _mode(name, pc):
    mode = tensor_mode(pc)
    assert mode.name == name
    return mode


@pytest.mark.parametrize("name", CASES)
def test_layer_conformance(name):
    x_g = np.random.default_rng(42).standard_normal((B, S, H)).astype(np.float32)
    ref_out = serial_reference(x_g)["out"]
    serial_names = [
        n for n, _ in TransformerLayer(H, NH, mlp_ratio=RATIO).named_parameters()
    ]

    def prog(ctx, pc):
        mode = _mode(name, pc)
        layer = TransformerLayer(
            H, NH, mlp_ratio=RATIO, rng=np.random.default_rng(SEED), mode=mode
        )
        # the guard against a re-forked layer: every mode runs these classes
        assert type(layer) is TransformerLayer
        assert type(layer.attention) is MultiHeadAttention
        assert type(layer.mlp) is FeedForward
        out = layer(Tensor(mode.shard_activation(x_g.copy()))).numpy()
        return (
            [n for n, _ in layer.named_parameters()],
            layer.num_parameters(),
            mode.local_shape(B, S, H),
            out,
            mode.shard_activation(ref_out),
        )

    for names, n_params, local_shape, out, expect in _launch(name, prog):
        assert names == serial_names  # state-dict keys are mode-independent
        assert n_params == CASES[name][2]
        assert out.shape == local_shape
        np.testing.assert_allclose(out, expect, atol=ATOL)

    def spec_prog(ctx, pc):
        mode = _mode(name, pc)
        layer = TransformerLayer(H, NH, mlp_ratio=RATIO, mode=mode)
        x = Tensor(SpecArray(mode.local_shape(B, S, H)), requires_grad=True)
        y = layer(x)
        y.sum().backward()
        return y.shape, x.grad.shape, mode.local_shape(B, S, H)

    for y_shape, g_shape, local_shape in _launch(name, spec_prog, materialize=False):
        assert y_shape == g_shape == local_shape


@pytest.mark.parametrize("name", CASES)
def test_indivisible_hidden_rejected_before_allocation(name):
    """hidden % heads is checked once, in the one attention class, for every
    mode — not by a reshape inside the first forward (2D / 2.5D / 3D used to
    accept this and die there)."""

    def prog(ctx, pc):
        mode = _mode(name, pc)
        pool = ctx.device.memory
        before = (pool.allocated, pool.peak)
        with pytest.raises(ValueError, match=r"hidden size 20 .* 8 heads"):
            MultiHeadAttention(20, 8, mode=mode)
        untouched = (pool.allocated, pool.peak) == before
        with pytest.raises(ValueError, match=r"hidden size 20 .* 8 heads"):
            TransformerLayer(20, 8, mode=mode)  # norm_1 came and went
        return untouched, pool.allocated == before[0]

    assert _launch(name, prog) == [(True, True)] * CASES[name][0]


VIT_CFG = ViTConfig(
    image_size=8, patch_size=2, in_channels=3, hidden_size=16,
    n_layers=1, n_heads=4, n_classes=4, mlp_ratio=2,
)
BERT_CFG = BertConfig(
    vocab_size=32, hidden_size=16, n_layers=1, n_heads=4, seq_len=8, mlp_ratio=2,
)
BUILDERS = [(build_vit, VIT_CFG, ViT), (build_bert, BERT_CFG, Bert)]


@pytest.mark.parametrize("build,cfg,cls", BUILDERS)
def test_builders_read_the_mode_from_the_context(build, cfg, cls):
    """Omitting ``mode`` builds what restating it builds, and the model is
    the one class in every mode the builder supports."""
    assert build(cfg).mode == build(cfg, mode="serial").mode == "serial"
    assert type(build(cfg).model) is cls

    for name in cls.MODES:
        if name == "serial":
            continue

        def prog(ctx, pc):
            omitted, explicit = build(cfg, pc), build(cfg, pc, mode=name)
            return omitted.mode, explicit.mode, type(omitted.model), type(explicit.model)

        if name == "data":  # tensor "none" under a context: ViT's DP glue
            results = repro.launch({}, uniform_cluster(2), prog, world_size=2)
        else:
            results = _launch(name, prog)
        for result in results:
            assert result == (name, name, cls, cls)


@pytest.mark.parametrize("build,cfg,cls", BUILDERS)
def test_contradicting_mode_is_a_value_error_on_every_rank(build, cfg, cls):
    """Used to be ``AttributeError: 'ParallelContext' object has no
    attribute 'summa_dim'`` from inside a rank thread."""
    wrong = "2d" if cls is ViT else "sequence"

    def prog(ctx, pc):
        errors = []
        for mode in (wrong, "serial"):
            with pytest.raises(ValueError) as exc:
                build(cfg, pc, mode=mode)
            errors.append(str(exc.value))
        return errors

    for asked_wrong, asked_serial in _launch("1d", prog):
        assert repr(wrong) in asked_wrong and "'1d'" in asked_wrong
        assert "'serial'" in asked_serial and "'1d'" in asked_serial

    with pytest.raises(ValueError, match="requires a ParallelContext"):
        build(cfg, None, mode="1d")
    with pytest.raises(ValueError, match="unknown"):
        build(cfg, None, mode="5d")
