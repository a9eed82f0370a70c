"""Edge cases of the analytic layer (``repro.analytic``).

The projection mode leans on these closed forms at every projected scale
(the Table-1 hypothesis property in ``test_projection_parity``), so the
degenerate inputs — zero-size payloads, world size 1, non-power-of-two
rank counts — must be well-defined rather than accidental: volumes go to
zero, comm times go to zero, and topology-constrained modes either raise
(direct call) or yield NaN rows (table form), never crash or go negative.
"""

import math

import pytest

from repro.analytic.commvolume import (
    comm_volume_1d,
    comm_volume_2d,
    comm_volume_25d,
    comm_volume_3d,
    comm_volume_table,
)
from repro.cluster import system_ii, uniform_cluster
from repro.comm.cost import CostModel


class TestCommVolumeEdges:
    def test_world_size_one_moves_nothing(self):
        assert comm_volume_1d(1, 4, 8, 16) == 0
        assert comm_volume_2d(1, 4, 8, 16) == 0
        assert comm_volume_25d(1, 4, 8, 16, d=1) == 0
        assert comm_volume_3d(1, 4, 8, 16) == 0
        assert comm_volume_3d(1, 4, 8, 16, total=True) == 0

    def test_zero_size_activations(self):
        # b = 0: no activation elements, so S_X-proportional terms vanish
        assert comm_volume_1d(4, 0, 8, 16) == 0
        # 2d still moves the weight shards (S_W = h^2)
        assert comm_volume_2d(4, 0, 8, 16) == 3 * (2 - 1) * 16 * 16

    @pytest.mark.parametrize("p", [2, 3, 5, 6, 7, 8, 12])
    def test_2d_rejects_non_square(self, p):
        with pytest.raises(ValueError, match="square"):
            comm_volume_2d(p, 4, 8, 16)

    @pytest.mark.parametrize("p,d", [(6, 2), (8, 3), (12, 2)])
    def test_25d_rejects_bad_factorization(self, p, d):
        with pytest.raises(ValueError):
            comm_volume_25d(p, 4, 8, 16, d)

    @pytest.mark.parametrize("p", [2, 4, 6, 9, 10, 16, 100])
    def test_3d_rejects_non_cube(self, p):
        with pytest.raises(ValueError, match="cubic"):
            comm_volume_3d(p, 4, 8, 16)

    def test_table_marks_unmet_constraints_nan(self):
        rows = comm_volume_table([6], b=4, s=8, h=16, depth=2)
        (row,) = rows
        assert row["1d"] == comm_volume_1d(6, 4, 8, 16)  # 1d always defined
        assert math.isnan(row["2d"])
        assert math.isnan(row["2.5d"])
        assert math.isnan(row["3d"])

    def test_table_power_of_two_row_is_fully_defined(self):
        (row,) = comm_volume_table([64], b=4, s=8, h=16, depth=4)
        assert not any(math.isnan(v) for v in row.values())

    def test_table_mixed_counts_never_raise(self):
        rows = comm_volume_table([1, 2, 3, 4, 8, 9, 27, 64], b=2, s=4, h=8)
        assert len(rows) == 8
        assert all(r["1d"] >= 0 for r in rows)


def _grad_allreduce(cluster, ranks, grad_bytes, algorithm="auto"):
    cost = CostModel(cluster, algorithm=algorithm).allreduce(list(ranks), grad_bytes)
    return cost.seconds, cost.algorithm


class TestPerfModelEdges:
    def test_world_size_one_costs_nothing(self):
        seconds, _algo = _grad_allreduce(uniform_cluster(2), [0], 1 << 20)
        assert seconds == 0.0

    def test_zero_gradient_bytes_cost_nothing(self):
        seconds, _algo = _grad_allreduce(uniform_cluster(4), [0, 1, 2, 3], 0)
        assert seconds == 0.0

    @pytest.mark.parametrize("ranks", [[0, 1, 2], [0, 1, 2, 3, 4, 5, 6]])
    def test_non_power_of_two_groups_are_finite(self, ranks):
        for algorithm in ("ring", "tree", "hierarchical", "auto"):
            seconds, algo = _grad_allreduce(system_ii(), ranks, 1 << 20, algorithm)
            assert math.isfinite(seconds) and seconds > 0.0
            assert algo in ("ring", "tree", "hierarchical")

    def test_auto_never_beats_itself(self):
        cluster, ranks, nbytes = system_ii(), [0, 1, 2, 3, 4], 1 << 22
        auto, _ = _grad_allreduce(cluster, ranks, nbytes)
        for pinned in ("ring", "tree", "hierarchical"):
            fixed, _ = _grad_allreduce(cluster, ranks, nbytes, pinned)
            assert auto <= fixed * (1 + 1e-12)

class TestCostModelEdges:
    """The CostModel underneath perf_model: every degenerate query is the
    zero cost, not an exception."""

    @pytest.fixture(scope="class")
    def model(self):
        return CostModel(uniform_cluster(8))

    def test_zero_bytes_every_op(self, model):
        ranks = [0, 1, 2, 3]
        for cost in (
            model.allreduce(ranks, 0),
            model.allgather(ranks, 0),
            model.reduce_scatter(ranks, 0),
            model.broadcast(ranks, 0),
            model.all_to_all(ranks, 0),
            model.p2p(0, 1, 0),
            model.host_transfer(0, 0),
        ):
            assert cost.seconds == 0.0 and cost.wire_bytes == 0

    def test_single_member_group(self, model):
        assert model.allreduce([3], 1 << 20).seconds == 0.0
        assert model.barrier([3]).seconds == 0.0

    def test_p2p_to_self_is_free(self, model):
        assert model.p2p(2, 2, 1 << 20).seconds == 0.0

    @pytest.mark.parametrize("size", [3, 5, 6, 7])
    def test_non_power_of_two_rings(self, model, size):
        ranks = list(range(size))
        for op in ("allreduce", "allgather", "reduce_scatter"):
            cost = getattr(model, op)(ranks, 1 << 16)
            assert math.isfinite(cost.seconds) and cost.seconds > 0.0
            assert cost.wire_bytes > 0
