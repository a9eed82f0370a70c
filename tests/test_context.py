"""Tests for the ParallelContext: rank decomposition and group building."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.cluster import uniform_cluster
from repro.config import Config
from repro.context import ParallelContext, ParallelMode, global_context, rank_groups
from repro.runtime import SpmdRuntime

from conftest import run_spmd


def make_pc(ctx, cdict):
    return ParallelContext(ctx, Config.from_dict(cdict))


class TestDecomposition:
    def test_tensor_fastest(self):
        def prog(ctx):
            pc = make_pc(ctx, dict(parallel=dict(tensor=dict(size=2, mode="1d"), pipeline=2)))
            return (pc.dp_rank, pc.pp_rank, pc.tp_rank)

        res = run_spmd(8, prog)
        assert res[0] == (0, 0, 0)
        assert res[1] == (0, 0, 1)  # tensor varies fastest
        assert res[2] == (0, 1, 0)
        assert res[4] == (1, 0, 0)

    def test_group_membership(self):
        def prog(ctx):
            pc = make_pc(ctx, dict(parallel=dict(tensor=dict(size=2, mode="1d"), pipeline=2)))
            return (
                pc.comm(ParallelMode.TENSOR).group.ranks,
                pc.comm(ParallelMode.PIPELINE).group.ranks,
                pc.comm(ParallelMode.DATA).group.ranks,
            )

        res = run_spmd(8, prog)
        t, p, d = res[0]
        assert t == [0, 1]
        assert p == [0, 2]
        assert d == [0, 4]
        t5, p5, d5 = res[5]  # rank 5 = dp1, pp0, tp1
        assert t5 == [4, 5]
        assert p5 == [5, 7]
        assert d5 == [1, 5]

    def test_world_not_divisible(self):
        def prog(ctx):
            make_pc(ctx, dict(parallel=dict(tensor=dict(size=3, mode="1d"))))

        from repro.runtime import RemoteRankError

        with pytest.raises(RemoteRankError):
            run_spmd(4, prog)

    def test_global_context_accessor(self):
        def prog(ctx):
            pc = make_pc(ctx, {})
            return global_context() is pc

        assert all(run_spmd(2, prog))

    def test_missing_mode_raises(self):
        def prog(ctx):
            pc = make_pc(ctx, dict(parallel=dict(tensor=dict(size=4, mode="1d"))))
            try:
                pc.comm(ParallelMode.PARALLEL_2D_ROW)
            except ValueError:
                return "raised"

        assert run_spmd(4, prog) == ["raised"] * 4


class TestGridGroups:
    def test_2d_coordinates(self):
        def prog(ctx):
            pc = make_pc(ctx, dict(parallel=dict(tensor=dict(size=4, mode="2d"))))
            row = pc.comm(ParallelMode.PARALLEL_2D_ROW)
            col = pc.comm(ParallelMode.PARALLEL_2D_COL)
            return pc.row_rank, pc.col_rank, row.group.ranks, col.group.ranks

        res = run_spmd(4, prog)
        # rank 3 -> (i=1, j=1): row group = {2, 3}, col group = {1, 3}
        i, j, row, col = res[3]
        assert (i, j) == (1, 1)
        assert row == [2, 3]
        assert col == [1, 3]
        # local rank within row group equals j
        assert res[2][2] == [2, 3]

    def test_25d_coordinates(self):
        def prog(ctx):
            pc = make_pc(ctx, dict(parallel=dict(tensor=dict(size=8, mode="2.5d", depth=2))))
            dep = pc.comm(ParallelMode.PARALLEL_2P5D_DEP)
            return pc.dep_rank, pc.row_rank, pc.col_rank, dep.group.ranks

        res = run_spmd(8, prog)
        assert res[0][:3] == (0, 0, 0)
        assert res[7][:3] == (1, 1, 1)
        assert res[0][3] == [0, 4]  # depth partners

    def test_3d_coordinates(self):
        def prog(ctx):
            pc = make_pc(ctx, dict(parallel=dict(tensor=dict(size=8, mode="3d"))))
            inp = pc.comm(ParallelMode.PARALLEL_3D_INPUT)
            wgt = pc.comm(ParallelMode.PARALLEL_3D_WEIGHT)
            out = pc.comm(ParallelMode.PARALLEL_3D_OUTPUT)
            return (pc.cube_i, pc.cube_j, pc.cube_k,
                    inp.group.ranks, wgt.group.ranks, out.group.ranks)

        res = run_spmd(8, prog)
        i, j, k, inp, wgt, out = res[5]  # 5 = 1*4 + 0*2 + 1 -> (1, 0, 1)
        assert (i, j, k) == (1, 0, 1)
        assert inp == [4, 5]   # vary k
        assert wgt == [5, 7]   # vary j
        assert out == [1, 5]   # vary i

    def test_grid_groups_nest_inside_tensor_group(self):
        """With dp=2, each replica's 2D grid uses its own consecutive
        ranks."""

        def prog(ctx):
            pc = make_pc(ctx, dict(parallel=dict(tensor=dict(size=4, mode="2d"))))
            return pc.comm(ParallelMode.PARALLEL_2D_ROW).group.ranks

        res = run_spmd(8, prog)
        assert res[0] == [0, 1]
        assert res[4] == [4, 5]  # second data-parallel replica


#: every valid (size, mode, depth) of a tensor group of at most 16 ranks
TENSOR_SHAPES = [(t, m, 1) for t in (1, 2, 3, 4, 8, 16) for m in ("1d", "sequence")] + [
    (t, "2d", 1) for t in (4, 9, 16)] + [(4 * d, "2.5d", d) for d in (1, 2, 3, 4)] + [(8, "3d", 1)]
#: each coordinate is the local rank in the family whose name ends so
COORDS = dict(tp_rank="TENSOR", pp_rank="PIPELINE", dp_rank="DATA", row_rank="D_COL",
                   col_rank="D_ROW", dep_rank="D_DEP", cube_i="3D_OUTPUT",
                   cube_j="3D_WEIGHT", cube_k="3D_INPUT")


class TestRankGroups:
    @given(st.sampled_from(TENSOR_SHAPES), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_every_family_partitions_the_world(self, shape, pipeline, data):
        world = shape[0] * pipeline * data
        assume(world <= 16)
        for groups in rank_groups(world, shape[0], pipeline, *shape[1:]).values():
            assert sorted(r for g in groups for r in g) == list(range(world))
            assert list(groups) == sorted(groups) and all(list(g) == sorted(g) for g in groups)

    @pytest.mark.parametrize("tensor, pipeline", [
        (dict(size=2, mode="sequence"), 2), (dict(size=4, mode="2d"), 2),
        (dict(size=8, mode="2.5d", depth=2), 1), (dict(size=8, mode="3d"), 1)])
    def test_context_reads_the_layout(self, tensor, pipeline):
        layout = rank_groups(8, tensor["size"], pipeline, tensor["mode"], tensor.get("depth", 1))

        def prog(ctx):
            pc = make_pc(ctx, dict(parallel=dict(tensor=tensor, pipeline=pipeline)))
            for mode, groups in layout.items():
                assert [g for g in groups if ctx.rank in g] == [tuple(pc.comm(mode).group.ranks)]
            for name in set(COORDS) & set(vars(pc)):
                fams = [pc.comm(m).group.ranks for m in layout if m.name.endswith(COORDS[name])]
                assert getattr(pc, name) == (fams or [[ctx.rank]])[0].index(ctx.rank), name

        run_spmd(8, prog)


class TestSeeds:
    def test_model_rng_identical_across_ranks(self):
        def prog(ctx):
            pc = make_pc(ctx, dict(parallel=dict(tensor=dict(size=4, mode="1d"))))
            return float(pc.model_rng().random())

        res = run_spmd(4, prog)
        assert len(set(res)) == 1

    def test_data_rng_differs_across_dp(self):
        def prog(ctx):
            pc = make_pc(ctx, dict(parallel=dict(tensor=dict(size=2, mode="1d"))))
            return float(pc.data_rng().random())

        res = run_spmd(4, prog)
        assert res[0] == res[1]  # same dp replica
        assert res[0] != res[2]  # different dp replica

    def test_dropout_rng_distinct_per_rank(self):
        def prog(ctx):
            pc = make_pc(ctx, {})
            return float(pc.dropout_rng().random())

        assert len(set(run_spmd(4, prog))) == 4

    def test_sequence_mode_builds_sequence_group(self):
        def prog(ctx):
            pc = make_pc(ctx, dict(parallel=dict(tensor=dict(size=4, mode="sequence"))))
            return pc.comm(ParallelMode.SEQUENCE).group.ranks

        assert run_spmd(4, prog)[0] == [0, 1, 2, 3]
