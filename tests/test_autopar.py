"""Automatic parallelization: the layout-conversion search."""

import numpy as np
import pytest

from repro.autopar import Layout, convert_payload, plan_conversion
from repro.comm import Communicator

from conftest import run_spmd


class TestLayout:
    def test_local_shape(self):
        mesh = {"x": 2, "y": 4}
        l = Layout.make(2, {0: ["x"], 1: ["y"]})
        assert l.local_shape((8, 8), mesh) == (4, 2)

    def test_multi_axis_dim(self):
        mesh = {"x": 2, "y": 2}
        l = Layout.make(2, {0: ["x", "y"]})
        assert l.local_shape((8, 4), mesh) == (2, 4)
        assert l.shard_factor(mesh) == 4

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError):
            Layout.make(2, {0: ["x"], 1: ["x"]})

    def test_indivisible_rejected(self):
        l = Layout.make(1, {0: ["x"]})
        with pytest.raises(ValueError):
            l.local_shape((7,), {"x": 2})

    def test_remove_requires_innermost(self):
        l = Layout.make(1, {0: ["x", "y"]})
        with pytest.raises(ValueError):
            l.with_removed(0, "x")
        l2 = l.with_removed(0, "y")
        assert l2.placement[0] == ("x",)


class TestConversionPlanner:
    MESH = {"x": 2, "y": 2}

    def test_identity_is_free(self):
        l = Layout.make(2, {0: ["x"]})
        plan = plan_conversion(l, l, (8, 8), self.MESH)
        assert plan.steps == [] and plan.cost == 0.0

    def test_transpose_uses_single_all_to_all(self):
        """Moving an axis between dims should be one all-to-all, not
        gather + slice (the advantage over a fixed conversion table)."""
        src = Layout.make(2, {0: ["x"]})
        dst = Layout.make(2, {1: ["x"]})
        plan = plan_conversion(src, dst, (8, 8), self.MESH)
        assert len(plan.steps) == 1
        assert plan.steps[0].op == "all_to_all"

    def test_gather_only(self):
        src = Layout.make(2, {0: ["x"]})
        dst = Layout.make(2, {})
        plan = plan_conversion(src, dst, (8, 8), self.MESH)
        assert [s.op for s in plan.steps] == ["all_gather"]

    def test_slice_is_free(self):
        src = Layout.make(2, {})
        dst = Layout.make(2, {0: ["x"], 1: ["y"]})
        plan = plan_conversion(src, dst, (8, 8), self.MESH)
        assert plan.cost == 0.0
        assert all(s.op == "slice" for s in plan.steps)

    def test_deep_conversion_found(self):
        src = Layout.make(2, {0: ["x", "y"]})
        dst = Layout.make(2, {0: ["y"], 1: ["x"]})
        plan = plan_conversion(src, dst, (8, 8), self.MESH)
        assert 1 <= len(plan.steps) <= 4

    def test_cost_monotone_in_size(self):
        src = Layout.make(2, {0: ["x"]})
        dst = Layout.make(2, {})
        small = plan_conversion(src, dst, (8, 8), self.MESH)
        big = plan_conversion(src, dst, (64, 64), self.MESH)
        assert big.cost > small.cost

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            plan_conversion(
                Layout.make(1, {}), Layout.make(2, {}), (4, 4), self.MESH
            )


class TestConversionExecution:
    """Plans must be *runnable*: executing them SPMD reproduces the direct
    resharding of the global tensor."""

    @pytest.mark.parametrize(
        "src_assign,dst_assign",
        [
            ({0: ["x"]}, {1: ["x"]}),
            ({0: ["x"]}, {}),
            ({}, {0: ["x"]}),
            ({0: ["x"], 1: ["y"]}, {0: ["y"], 1: ["x"]}),
            ({0: ["x", "y"]}, {1: ["y", "x"]}),
        ],
    )
    def test_roundtrip_matches_direct_reshard(self, src_assign, dst_assign):
        mesh = {"x": 2, "y": 2}
        global_t = np.arange(8 * 8, dtype=np.float32).reshape(8, 8)
        src = Layout.make(2, src_assign)
        dst = Layout.make(2, dst_assign)
        plan = plan_conversion(src, dst, (8, 8), mesh)

        def slice_for(layout, coord):
            out = global_t
            for d, axes in enumerate(layout.placement):
                for a in axes:
                    out = np.split(out, mesh[a], axis=d)[coord[a]]
            return out

        def prog(ctx):
            comm = Communicator.world(ctx)
            coord = {"x": ctx.rank // 2, "y": ctx.rank % 2}
            comms = {
                "x": comm.split(color=coord["y"], key=coord["x"]),
                "y": comm.split(color=coord["x"], key=coord["y"]),
            }
            local = slice_for(src, coord).copy()
            out = convert_payload(local, plan, comms, coord)
            return coord, out

        for coord, out in run_spmd(4, prog):
            np.testing.assert_array_equal(out, slice_for(dst, coord))
