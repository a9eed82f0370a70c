"""Differentiable communication ops: forward semantics and adjointness.

Every comm op pair must satisfy the vector-Jacobian identity
``<y, f(x)> == <f^T(y), x>`` summed over ranks — the property that makes
tensor-parallel backward passes exact.
"""

import numpy as np
import pytest

from repro.comm import Communicator
from repro.parallel.comm_ops import (
    AllReduceMeanScalar,
    copy_to_parallel_region,
    gather_from_parallel_region,
    mean_loss_across,
    reduce_from_parallel_region,
    scatter_to_parallel_region,
)
from repro.tensor import Tensor

from conftest import run_spmd


def _world(ctx):
    return Communicator.world(ctx)


class TestForwardSemantics:
    def test_copy_is_identity_forward(self):
        def prog(ctx):
            x = Tensor(np.full(3, float(ctx.rank)), requires_grad=True)
            y = copy_to_parallel_region(x, _world(ctx))
            return y.numpy().tolist()

        res = run_spmd(2, prog)
        assert res[0] == [0.0] * 3 and res[1] == [1.0] * 3

    def test_reduce_sums_forward(self):
        def prog(ctx):
            x = Tensor(np.full(2, float(ctx.rank + 1)), requires_grad=True)
            return reduce_from_parallel_region(x, _world(ctx)).numpy().tolist()

        assert run_spmd(3, prog)[0] == [6.0, 6.0]

    def test_scatter_keeps_local_chunk(self):
        def prog(ctx):
            x = Tensor(np.arange(8.0), requires_grad=True)
            return scatter_to_parallel_region(x, _world(ctx), axis=0).numpy().tolist()

        res = run_spmd(4, prog)
        assert res[2] == [4.0, 5.0]

    def test_gather_concatenates(self):
        def prog(ctx):
            x = Tensor(np.array([float(ctx.rank)]), requires_grad=True)
            return gather_from_parallel_region(x, _world(ctx), axis=0).numpy().tolist()

        assert run_spmd(3, prog)[0] == [0.0, 1.0, 2.0]

    def test_copy_forward_shares_storage(self):
        def prog(ctx):
            x = Tensor(np.ones(4), requires_grad=True)
            y = copy_to_parallel_region(x, _world(ctx))
            return y.storage is x.storage

        assert all(run_spmd(2, prog))


class TestBackwardAdjoints:
    def test_copy_backward_allreduces(self):
        """f: identity fwd, sum-allreduce bwd."""

        def prog(ctx):
            x = Tensor(np.ones(2), requires_grad=True)
            y = copy_to_parallel_region(x, _world(ctx))
            y.backward(Tensor(np.full(2, float(ctx.rank + 1))))
            return x.grad.numpy().tolist()

        # grads 1 + 2 + 3 = 6 on every rank
        assert run_spmd(3, prog) == [[6.0, 6.0]] * 3

    def test_reduce_backward_is_identity(self):
        def prog(ctx):
            x = Tensor(np.ones(2), requires_grad=True)
            y = reduce_from_parallel_region(x, _world(ctx))
            y.backward(Tensor(np.full(2, float(ctx.rank))))
            return x.grad.numpy().tolist()

        res = run_spmd(3, prog)
        assert res[0] == [0.0, 0.0] and res[2] == [2.0, 2.0]

    def test_scatter_gather_adjoint_pair(self):
        """backward(scatter) == all_gather and vice versa."""

        def prog(ctx):
            comm = _world(ctx)
            x = Tensor(np.arange(4.0), requires_grad=True)
            y = scatter_to_parallel_region(x, comm, axis=0)
            y.backward(Tensor(np.array([float(ctx.rank * 10)])))
            gx = x.grad.numpy().copy()

            z = Tensor(np.array([float(ctx.rank)]), requires_grad=True)
            g = gather_from_parallel_region(z, comm, axis=0)
            g.backward(Tensor(np.arange(4.0) + 1))
            return gx.tolist(), z.grad.numpy().tolist()

        for r, (gx, gz) in enumerate(run_spmd(4, prog)):
            assert gx == [0.0, 10.0, 20.0, 30.0]  # gathered grads
            assert gz == [float(r + 1)]  # local slice of upstream grad

    def test_vjp_identity_copy_reduce(self):
        """<y, g(x)>/p == <g^T(y), x> per rank for the "g" op, under its
        validity precondition: the upstream gradient y is *replicated*
        across ranks (which Megatron guarantees because everything after
        the all-reduce is itself replicated)."""
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((4, 3)).astype(np.float32)
        y_shared = rng.standard_normal(3).astype(np.float32)

        def prog(ctx):
            comm = _world(ctx)
            x = Tensor(xs[ctx.rank].copy(), requires_grad=True)
            out = reduce_from_parallel_region(x, comm)
            fwd_inner = float(np.sum(out.numpy() * y_shared))
            out.backward(Tensor(y_shared.copy()))
            bwd_inner = float(np.sum(x.grad.numpy() * xs[ctx.rank]))
            return fwd_inner, bwd_inner

        res = run_spmd(4, prog)
        # <y, sum_m x_m> (same on each rank) == sum_m <y, x_m>
        assert res[0][0] == pytest.approx(sum(b for _, b in res), rel=1e-5)


class TestMeanLoss:
    def test_forward_is_mean(self):
        def prog(ctx):
            loss = Tensor(np.asarray(float(ctx.rank + 1)), requires_grad=True)
            return mean_loss_across(loss, _world(ctx)).item()

        assert run_spmd(4, prog) == [2.5] * 4

    def test_backward_scales(self):
        def prog(ctx):
            loss = Tensor(np.asarray(float(ctx.rank)), requires_grad=True)
            out = mean_loss_across(loss, _world(ctx))
            out.backward()
            return float(loss.grad.numpy())

        assert run_spmd(4, prog) == [0.25] * 4

    def test_noop_for_singleton(self):
        def prog(ctx):
            comm = _world(ctx).subgroup([ctx.rank])
            loss = Tensor(np.asarray(3.0), requires_grad=True)
            return mean_loss_across(loss, comm) is loss

        assert all(run_spmd(2, prog))

    def test_none_comm_noop(self):
        loss = Tensor(np.asarray(3.0))
        assert mean_loss_across(loss, None) is loss
