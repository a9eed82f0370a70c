"""Model zoo: cross-mode parity of ViT and BERT bundles, GPT configs."""

import numpy as np
import pytest

from repro.cluster import uniform_cluster
from repro.engine import initialize, launch
from repro.models import (
    BertConfig,
    GPTConfig,
    ViTConfig,
    build_bert,
    build_gpt,
    build_gpt_blocks,
    build_vit,
    gpt2_10b,
    opt_13b,
)
from repro.optim import AdamW
from repro.parallel.pipeline import GPipeSchedule
from repro.tensor import Tensor

from parity_helpers import ATOL

VIT_CFG = ViTConfig(
    image_size=8, patch_size=2, in_channels=3, hidden_size=16,
    n_layers=2, n_heads=4, n_classes=4, mlp_ratio=2, seed=11,
)
RNG = np.random.default_rng(0)
X_IMG = RNG.standard_normal((8, 8, 8, 3)).astype(np.float32)
Y_IMG = RNG.integers(0, 4, 8)


@pytest.fixture(scope="module")
def vit_serial_ref():
    bundle = build_vit(VIT_CFG, mode="serial")
    opt = AdamW(bundle.model.parameters(), lr=1e-2, weight_decay=0.0)
    out = bundle.model(Tensor(X_IMG.copy()))
    loss0 = bundle.loss_fn(out, Y_IMG)
    loss0.backward()
    opt.step()
    opt.zero_grad()
    loss1 = bundle.loss_fn(bundle.model(Tensor(X_IMG.copy())), Y_IMG)
    return {"logits": out.numpy().copy(), "loss0": loss0.item(), "loss1": loss1.item()}


def _vit_prog(mode):
    def prog(ctx, pc):
        bundle = build_vit(VIT_CFG, pc, mode=mode)
        eng = initialize(
            bundle.model,
            AdamW(bundle.model.parameters(), lr=1e-2, weight_decay=0.0),
            None, pc=pc,
        )
        x = bundle.shard_input(X_IMG.copy())
        y = bundle.shard_target(Y_IMG.copy())
        out = eng(Tensor(x) if isinstance(x, np.ndarray) else x)
        logits = bundle.gather_output(out)
        loss0 = bundle.loss_fn(out, y)
        eng.backward(loss0)
        eng.step()
        out2 = eng(Tensor(bundle.shard_input(X_IMG.copy())))
        loss1 = bundle.loss_fn(out2, bundle.shard_target(Y_IMG.copy()))
        return loss0.item(), loss1.item(), np.asarray(logits)

    return prog


class TestViTCrossModeParity:
    """The Fig 7 foundation: every TP mode computes the same losses as the
    serial model, before AND after an AdamW step."""

    @pytest.mark.parametrize(
        "mode,world,cdict",
        [
            ("1d", 4, dict(parallel=dict(tensor=dict(size=4, mode="1d")))),
            ("2d", 4, dict(parallel=dict(tensor=dict(size=4, mode="2d")))),
            ("2.5d", 8, dict(parallel=dict(tensor=dict(size=8, mode="2.5d", depth=2)))),
            ("3d", 8, dict(parallel=dict(tensor=dict(size=8, mode="3d")))),
        ],
    )
    def test_tp_mode_parity(self, vit_serial_ref, mode, world, cdict):
        res = launch(cdict, uniform_cluster(world), _vit_prog(mode))
        for l0, l1, logits in res:
            assert l0 == pytest.approx(vit_serial_ref["loss0"], abs=1e-4)
            assert l1 == pytest.approx(vit_serial_ref["loss1"], abs=5e-4)
            np.testing.assert_allclose(logits, vit_serial_ref["logits"], atol=1e-4)

    def test_data_parallel_parity(self, vit_serial_ref):
        """DP: local losses differ but their mean and the post-step loss
        match the serial full batch."""
        res = launch({}, uniform_cluster(4), _vit_prog("data"))
        local_losses = [r[0] for r in res]
        assert np.mean(local_losses) == pytest.approx(vit_serial_ref["loss0"], abs=1e-4)
        after = [r[1] for r in res]
        assert np.mean(after) == pytest.approx(vit_serial_ref["loss1"], abs=5e-4)
        # gathered logits reassemble the full batch identically
        np.testing.assert_allclose(res[0][2], vit_serial_ref["logits"], atol=1e-4)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            build_vit(VIT_CFG, None, mode="5d")
        with pytest.raises(ValueError):
            build_vit(VIT_CFG, None, mode="2d")  # needs a context


BERT_CFG = BertConfig(
    vocab_size=32, hidden_size=16, n_layers=2, n_heads=4, seq_len=8,
    mlp_ratio=2, seed=13,
)
IDS = np.random.default_rng(1).integers(0, 32, (4, 8))
TARGETS = np.random.default_rng(2).integers(0, 32, (4, 8))


@pytest.fixture(scope="module")
def bert_serial_ref():
    bundle = build_bert(BERT_CFG, mode="serial")
    out = bundle.model(IDS)
    loss = bundle.loss_fn(out, TARGETS)
    loss.backward()
    return {
        "logits": out.numpy().copy(),
        "loss": loss.item(),
        "head_grad": bundle.model.head.weight.grad.numpy().copy(),
    }


class TestBertParity:
    def test_1d_parity(self, bert_serial_ref):
        def prog(ctx, pc):
            bundle = build_bert(BERT_CFG, pc, mode="1d")
            out = bundle.model(IDS)
            loss = bundle.loss_fn(out, TARGETS)
            loss.backward()
            return loss.item(), out.numpy()

        cfg = dict(parallel=dict(tensor=dict(size=4, mode="1d")))
        for loss, logits in launch(cfg, uniform_cluster(4), prog):
            assert loss == pytest.approx(bert_serial_ref["loss"], abs=1e-4)
            np.testing.assert_allclose(logits, bert_serial_ref["logits"], atol=1e-3)

    def test_sequence_parity(self, bert_serial_ref):
        from repro.parallel.common import sync_parameter_gradients

        def prog(ctx, pc):
            bundle = build_bert(BERT_CFG, pc, mode="sequence")
            ids_l = bundle.shard_input(IDS)
            tg_l = bundle.shard_target(TARGETS)
            out = bundle.model(ids_l)
            loss = bundle.loss_fn(out, tg_l)
            loss.backward()
            sync_parameter_gradients(bundle.model)
            return (
                loss.item(),
                np.asarray(bundle.gather_output(out)),
                bundle.model.head.weight.grad.numpy(),
            )

        cfg = dict(parallel=dict(tensor=dict(size=4, mode="sequence")))
        for loss, logits, head_g in launch(cfg, uniform_cluster(4), prog):
            assert loss == pytest.approx(bert_serial_ref["loss"], abs=1e-4)
            np.testing.assert_allclose(logits, bert_serial_ref["logits"], atol=1e-3)
            np.testing.assert_allclose(head_g, bert_serial_ref["head_grad"], atol=1e-4)

    def test_1d_vocab_parallel_loss_parity(self, bert_serial_ref):
        """The gather-free vocab-parallel CE must equal the gathered
        version (and the serial loss)."""

        def prog(ctx, pc):
            bundle = build_bert(BERT_CFG, pc, mode="1d", vocab_parallel_loss=True)
            out = bundle.model(IDS)
            loss = bundle.loss_fn(out, TARGETS)
            loss.backward()
            return loss.item(), out.shape, bundle.gather_output(out).shape

        cfg = dict(parallel=dict(tensor=dict(size=4, mode="1d")))
        for loss, shape, gathered in launch(cfg, uniform_cluster(4), prog):
            assert loss == pytest.approx(bert_serial_ref["loss"], abs=1e-4)
            assert shape == (4, 8, 8)  # logits stay vocab-sharded (32/4)
            assert gathered == (4, 8, 32)  # and gather whole for metrics

    def test_sp_no_head_constraint(self):
        """SP runs with 8 ranks even though BERT-CFG has 4 heads (1D TP
        could not) — the §5.3 advantage."""
        cfg = dict(parallel=dict(tensor=dict(size=8, mode="sequence")))

        def prog(ctx, pc):
            bundle = build_bert(BERT_CFG, pc, mode="sequence")
            out = bundle.model(bundle.shard_input(IDS))
            return out.shape

        shapes = launch(cfg, uniform_cluster(8), prog)
        assert shapes[0] == (4, 1, 32)


GPT_CFG = GPTConfig(vocab_size=64, hidden_size=32, n_layers=4, n_heads=4,
                    seq_len=8, mlp_ratio=2, dtype="float32", seed=5)
GPT_IDS = np.random.default_rng(3).integers(0, 64, (4, 8))


class TestGPT:
    def test_param_count_rule(self):
        for mlp_ratio in (1, 2, 4):
            cfg = GPTConfig(vocab_size=100, hidden_size=64, n_layers=2, n_heads=4,
                            seq_len=16, mlp_ratio=mlp_ratio)
            assert build_gpt(cfg).num_parameters() == cfg.param_count()

    def test_presets_scale(self):
        assert gpt2_10b().param_count() == 10_484_891_648 + 8_192
        assert 12.5e9 < opt_13b().param_count() < 13.5e9

    def test_blocks_forward_chain(self):
        cfg = GPTConfig(vocab_size=50, hidden_size=16, n_layers=2, n_heads=2, seq_len=8)
        blocks, crit = build_gpt_blocks(cfg)
        ids = np.random.default_rng(0).integers(0, 50, (2, 8))
        x = Tensor(ids)
        for b in blocks:
            x = b(x)
        assert x.shape == (2, 8, 50)
        loss = crit(x, np.random.default_rng(1).integers(0, 50, (2, 8)))
        assert np.isfinite(loss.item())

    def test_causality(self):
        """GPT logits at position t must not depend on tokens after t."""
        cfg = GPTConfig(vocab_size=50, hidden_size=16, n_layers=2, n_heads=2, seq_len=8)
        model = build_gpt(cfg)
        ids = np.random.default_rng(0).integers(0, 50, (1, 8))
        base = model(Tensor(ids)).numpy()
        ids2 = ids.copy()
        ids2[0, 7] = (ids2[0, 7] + 1) % 50
        pert = model(Tensor(ids2)).numpy()
        np.testing.assert_allclose(pert[0, :7], base[0, :7], atol=1e-5)

    @pytest.mark.parametrize("tp", [1, 2])
    @pytest.mark.parametrize("pp", [2, 4])
    def test_stages_chain_to_the_serial_model(self, pp, tp):
        """The pipeline stages hold the serial model's parameters in its
        order, and GPipe over them gives its logits: bit for bit without
        tensor parallelism, within the mode contract's tolerance under 1D."""
        serial = build_gpt(GPT_CFG)
        ref = serial(Tensor(GPT_IDS)).numpy()
        tensor = dict(size=tp, mode="1d") if tp > 1 else None
        config = dict(parallel=dict(pipeline=pp, tensor=tensor), num_microbatches=1)

        def prog(ctx, pc):
            stage = build_gpt(GPT_CFG, pc)
            logits = []

            def crit(out, _):
                logits.append(out.numpy().copy())
                return out.sum()

            GPipeSchedule(pc, 1).run(
                stage, GPT_IDS if pc.is_first_pipeline_stage() else None, None,
                crit if pc.is_last_pipeline_stage() else None)
            return pc.pp_rank, pc.tp_rank, [p.numpy() for p in stage.parameters()], logits

        res = sorted(launch(config, uniform_cluster(pp * tp), prog),
                     key=lambda r: (r[1], r[0]))
        want = [p.numpy() for p in serial.parameters()]
        for t in range(tp):
            got = [p for _, r, params, _ in res if r == t for p in params]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                # whole and equal, or (1D) this tensor rank's shard of it
                assert np.array_equal(g, w) or (tp > 1 and g.size * tp == w.size)
        outs = [lg[0] for _, _, _, lg in res if lg]
        assert len(outs) == tp
        for out in outs:
            if tp == 1:
                np.testing.assert_array_equal(out, ref)
            else:
                np.testing.assert_allclose(out, ref, atol=ATOL)
