"""Analytic formulas (Table 1, memory, FLOPs) and synthetic data."""

import math

import numpy as np
import pytest

from repro.analytic import (
    adam_model_data_bytes,
    comm_volume_1d,
    comm_volume_25d,
    comm_volume_2d,
    comm_volume_3d,
    comm_volume_table,
    transformer_activation_bytes,
    transformer_param_count,
)
from repro.data import DataLoader, synthetic_image_classification
from repro.utils.units import GB


class TestCommVolumeFormulas:
    B, S, H = 32, 512, 1024

    def test_1d_grows_linearly_with_p(self):
        v16 = comm_volume_1d(16, self.B, self.S, self.H)
        v64 = comm_volume_1d(64, self.B, self.S, self.H)
        assert v64 / v16 == pytest.approx(63 / 15)

    def test_advanced_beat_1d_at_scale(self):
        """Fig 5: at p=64 every advanced mode moves fewer elements."""
        p = 64
        v1 = comm_volume_1d(p, self.B, self.S, self.H)
        assert comm_volume_2d(p, self.B, self.S, self.H) < v1
        assert comm_volume_25d(p, self.B, self.S, self.H, d=4) < v1
        assert comm_volume_3d(p, self.B, self.S, self.H, total=True) < v1

    def test_2d_requires_square(self):
        with pytest.raises(ValueError):
            comm_volume_2d(6, self.B, self.S, self.H)

    def test_25d_depth1_equals_2d(self):
        v2d = comm_volume_2d(16, self.B, self.S, self.H)
        v25 = comm_volume_25d(16, self.B, self.S, self.H, d=1)
        assert v25 == pytest.approx(v2d)

    def test_3d_total_vs_per_member(self):
        per = comm_volume_3d(64, self.B, self.S, self.H)
        tot = comm_volume_3d(64, self.B, self.S, self.H, total=True)
        assert tot == pytest.approx(per * 4)  # l = 4

    def test_table_nan_where_infeasible(self):
        rows = comm_volume_table([6], depth=2)
        assert math.isnan(rows[0]["2d"])
        assert math.isnan(rows[0]["3d"])
        assert rows[0]["1d"] > 0

    def test_table_fig5_parameters(self):
        """With the paper's Fig 5 parameters (S_X >> S_W), 2D is already
        cheaper at p=4 and the advantage widens with p."""
        rows = comm_volume_table([4, 16, 64], b=32, s=512, h=1024)
        assert len(rows) == 3
        ratios = [r["1d"] / r["2d"] for r in rows]
        assert all(r > 1 for r in ratios)
        assert ratios[0] < ratios[1] < ratios[2]
        # 2.5D is feasible where p = d*k^2
        rows25 = comm_volume_table([8, 32], depth=2)
        assert all(not math.isnan(r["2.5d"]) for r in rows25)


class TestMemoryModel:
    def test_16_bytes_per_param(self):
        assert adam_model_data_bytes(1) == 16

    def test_paper_10b_example(self):
        """§1: 10B params in fp16 = 20 GB of parameter memory; model data
        with Adam exceeds 80 GB."""
        n = 10_000_000_000
        assert n * 2 == pytest.approx(20 * 1e9, rel=0.08)
        assert adam_model_data_bytes(n) > 80 * 1e9

    def test_param_count_matches_built_model(self):
        from repro.nn import TransformerLayer

        h, heads, ratio = 32, 4, 4
        layer = TransformerLayer(h, heads, mlp_ratio=ratio)
        assert layer.num_parameters() == transformer_param_count(1, h, mlp_ratio=ratio)

    def test_activation_quadratic_term(self):
        lin = transformer_activation_bytes(4, 128, 64, 4, 1, with_scores=False)
        full = transformer_activation_bytes(4, 128, 64, 4, 1, with_scores=True)
        assert full > lin
        # doubling seq more than doubles the with-scores footprint
        full2 = transformer_activation_bytes(4, 256, 64, 4, 1, with_scores=True)
        assert full2 > 2 * full

    def test_checkpoint_reduces_activations(self):
        plain = transformer_activation_bytes(4, 128, 64, 4, 12)
        ckpt = transformer_activation_bytes(4, 128, 64, 4, 12, checkpoint=True)
        assert ckpt < plain / 10


class TestSyntheticData:
    def test_images_learnable_structure(self):
        X, y = synthetic_image_classification(200, image_size=8, channels=2, n_classes=4, seed=0)
        assert X.shape == (200, 8, 8, 2) and y.shape == (200,)
        # same-class samples are closer than cross-class on average
        d_same, d_diff = [], []
        for i in range(0, 100, 5):
            for j in range(i + 1, 100, 7):
                d = float(np.linalg.norm(X[i] - X[j]))
                (d_same if y[i] == y[j] else d_diff).append(d)
        assert np.mean(d_same) < np.mean(d_diff)

    def test_images_deterministic(self):
        a = synthetic_image_classification(10, seed=3)
        b = synthetic_image_classification(10, seed=3)
        np.testing.assert_array_equal(a[0], b[0])

    def test_dataloader_epoch(self):
        X = np.arange(10).reshape(10, 1)
        y = np.arange(10)
        dl = DataLoader(X, y, batch_size=3, shuffle=False)
        batches = list(dl)
        assert len(batches) == len(dl) == 3  # drop_last
        assert batches[0][0].shape == (3, 1)

    def test_dataloader_shuffles_deterministically(self):
        X = np.arange(8).reshape(8, 1)
        y = np.arange(8)
        a = [b[1].tolist() for b in DataLoader(X, y, 4, seed=1)]
        b = [b[1].tolist() for b in DataLoader(X, y, 4, seed=1)]
        assert a == b
        c = [b[1].tolist() for b in DataLoader(X, y, 4, seed=2)]
        assert a != c

    def test_dataloader_length_mismatch(self):
        with pytest.raises(ValueError):
            DataLoader(np.zeros((4, 1)), np.zeros(5), 2)
