"""Spec-vs-real execution parity for every collective.

The simulator's promise is that a spec-mode (shape-only) program behaves
exactly like the materialized one: same result shapes/dtypes per rank,
and — crucially for debugging billion-parameter configs that only ever run
in spec mode — the *same errors* for invalid payloads.  These tests pin
that contract: explicit regressions for the bugs fixed in this PR (silent
non-axis-dim acceptance in ``_concat_axis``, silently-ignored invalid
reduce ops, op-less ``_split_axis`` messages) plus a hypothesis property
suite sweeping random shapes/dtypes over every collective in both modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import system_i, system_ii, system_iii, uniform_cluster
from repro.comm.communicator import Communicator
from repro.comm.cost import CostModel
from repro.comm.payload import SpecArray
from repro.runtime import SpmdRuntime
from repro.runtime.errors import RemoteRankError

WORLD = 4

#: every selectable family plus ``auto``, the cheapest of them per call
ALGOS = ("ring", "tree", "hierarchical", "auto")

DTYPES = ["float32", "float16", "int32"]


def _payload(spec: bool, shape, dtype, seed: int):
    if spec:
        return SpecArray(tuple(shape), dtype)
    rng = np.random.default_rng(seed)
    if np.dtype(dtype).kind in "iu":
        return rng.integers(0, 100, size=shape, dtype=dtype)
    return rng.standard_normal(shape).astype(dtype)


def _describe(result):
    """Shape/dtype signature of a per-rank result (payloads, lists, None)."""
    if result is None:
        return None
    if isinstance(result, list):
        return [_describe(r) for r in result]
    return (tuple(result.shape), np.dtype(result.dtype).name)


def _run_both_modes(make_args, collective, comm_algorithm="ring"):
    """Run ``collective(comm, *make_args(spec, rank))`` in real and spec
    mode; return the two outcomes as comparable signatures: result shapes,
    step time and world-group wire bytes, or the error."""

    def outcome(spec: bool):
        rt = SpmdRuntime(uniform_cluster(WORLD), comm_algorithm=comm_algorithm)

        def prog(ctx):
            comm = Communicator.world(ctx)
            return collective(comm, *make_args(spec, ctx.rank))

        try:
            results = rt.run(prog, materialize=not spec)
        except RemoteRankError as e:
            return ("error", type(e.cause).__name__, str(e.cause))
        return ("ok", [_describe(r) for r in results], rt.max_time(),
                rt.world_group.counters.bytes_total)

    return outcome(spec=False), outcome(spec=True)


def _assert_parity(make_args, collective):
    real, spec = _run_both_modes(make_args, collective)
    assert real == spec, f"\nreal: {real}\nspec: {spec}"
    return real


# -- regression tests for the fixed parity bugs ---------------------------


class TestConcatDimValidation:
    """all_gather must reject mismatched non-concat dims in BOTH modes
    (spec mode used to silently accept them)."""

    @pytest.mark.parametrize("op", ["all_gather"])
    def test_mismatched_non_axis_dim_rejected_identically(self, op):
        def make_args(spec, rank):
            # rank 2 has a different trailing dim
            shape = (2, 5) if rank == 2 else (2, 4)
            return (_payload(spec, shape, "float32", rank),)

        real = _assert_parity(make_args, getattr(Communicator, op))
        assert real[0] == "error"
        assert real[1] == "ValueError"
        assert op in real[2] and "non-concat" in real[2]

    @pytest.mark.parametrize("op", ["all_gather"])
    def test_mismatched_ndim_rejected_identically(self, op):
        def make_args(spec, rank):
            shape = (2, 4, 1) if rank == 0 else (2, 4)
            return (_payload(spec, shape, "float32", rank),)

        real = _assert_parity(make_args, getattr(Communicator, op))
        assert real[0] == "error" and real[1] == "ValueError"

    def test_varying_concat_dim_still_allowed(self):
        def make_args(spec, rank):
            return (_payload(spec, (rank + 1, 3), "float32", rank),)

        real = _assert_parity(make_args, Communicator.all_gather)
        assert real[0] == "ok"
        assert real[1][0] == ((1 + 2 + 3 + 4, 3), "float32")


class TestReduceOpValidation:
    """Invalid reduce ops used to raise a raw KeyError in real mode and be
    silently accepted in spec mode; now both raise the same ValueError."""

    @pytest.mark.parametrize("method,extra", [
        ("all_reduce", ()),
        ("reduce", (0,)),
        ("reduce_scatter", (0,)),
    ])
    def test_invalid_op_rejected_identically(self, method, extra):
        def make_args(spec, rank):
            return (_payload(spec, (4, 4), "float32", rank),) + extra + ("avg",)

        real = _assert_parity(make_args, getattr(Communicator, method))
        assert real[0] == "error"
        assert real[1] == "ValueError"
        assert "'avg'" in real[2] and "max" in real[2] and "sum" in real[2]
        assert method in real[2]

    @pytest.mark.parametrize("op", ["sum", "max", "min", "prod"])
    def test_valid_ops_accepted(self, op):
        def make_args(spec, rank):
            return (_payload(spec, (4,), "float32", rank), op)

        real = _assert_parity(make_args, Communicator.all_reduce)
        assert real[:2] == ("ok", [((4,), "float32")] * WORLD)


class TestMixedDtypes:
    """A spec round whose members disagree in dtype promotes like the real
    round, on the path that derives its result inline."""

    @pytest.mark.parametrize("method,extra", [
        ("all_reduce", ()),
        ("reduce", (0,)),
        ("reduce_scatter", (0,)),
        ("all_gather", (0,)),
    ])
    def test_promoted_like_real(self, method, extra):
        def make_args(spec, rank):
            dtype = "float16" if rank == 2 else "int32" if rank == 3 else "float32"
            return (_payload(spec, (4, 4), dtype, rank),) + extra

        real = _assert_parity(make_args, getattr(Communicator, method))
        assert real[0] == "ok"
        assert {r[1] for r in real[1] if r is not None} == {"float64"}


class TestSplitAxisMessages:
    """Divisibility failures must name the collective that raised them."""

    @pytest.mark.parametrize("method,name", [
        ("reduce_scatter", "reduce_scatter"),
    ])
    def test_indivisible_axis_names_op(self, method, name):
        def make_args(spec, rank):
            return (_payload(spec, (6, 2), "float32", rank),)

        real = _assert_parity(make_args, getattr(Communicator, method))
        assert real[0] == "error" and real[1] == "ValueError"
        assert real[2].startswith(name + ":")
        assert "not divisible" in real[2]


class TestPayloadConstruction:
    """A spec payload is refused exactly as ``np.empty`` refuses it."""

    @pytest.mark.parametrize("shape", [
        (-3, 4), (4, -1), (np.int64(-2), 3), (2, np.int32(-1)),
    ])
    def test_negative_dimension_rejected_like_numpy(self, shape):
        with pytest.raises(ValueError) as real:
            np.empty(shape, "float32")
        with pytest.raises(ValueError) as spec:
            SpecArray(shape, "float32")
        assert str(spec.value) == str(real.value)


# -- property-based sweep --------------------------------------------------


def _round_up(n, k):
    return ((n + k - 1) // k) * k


@st.composite
def collective_cases(draw):
    """A (collective, make_args) pair over random shapes/dtypes, sometimes
    with a deliberately broken payload on one rank."""
    kind = draw(st.sampled_from([
        "all_reduce", "all_gather", "reduce_scatter", "broadcast",
        "reduce", "ring_pass",
    ]))
    dtype = draw(st.sampled_from(DTYPES))
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(ndim))
    axis = draw(st.integers(0, ndim - 1))
    break_rank = draw(st.sampled_from([None, 1, 3]))

    if kind == "reduce_scatter" and break_rank is None:
        # make the split axis divisible so the clean case succeeds
        shape = shape[:axis] + (_round_up(shape[axis], WORLD),) + shape[axis + 1:]

    def make_args(spec, rank):
        s = shape
        if break_rank is not None and rank == break_rank:
            s = shape[:axis] + (shape[axis] + 1,) + shape[axis + 1:]
        payload = _payload(spec, s, dtype, rank)
        if kind == "broadcast":
            return (payload if rank == 0 else None, 0)
        if kind == "all_reduce":
            return (payload, "sum")
        if kind in ("reduce",):
            return (payload, 0, "sum")
        if kind == "reduce_scatter":
            return (payload, axis, "sum")
        if kind in ("all_gather",):
            return (payload, axis)
        if kind == "ring_pass":
            return (payload, 1)
        raise AssertionError(kind)

    return kind, make_args


class TestPropertyParity:
    @settings(max_examples=40, deadline=None)
    @given(collective_cases())
    def test_shapes_and_errors_identical_across_modes(self, case):
        _kind, make_args = case
        _assert_parity(make_args, getattr(Communicator, _kind))

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from(DTYPES),
        st.integers(1, 5),
        st.integers(1, 4),
    )
    def test_all_to_all_parity(self, dtype, a, b):
        def make_args(spec, rank):
            chunks = [
                _payload(spec, (a, b), dtype, rank * WORLD + j)
                for j in range(WORLD)
            ]
            return (chunks,)

        real = _assert_parity(make_args, Communicator.all_to_all)
        assert real[0] == "ok"
        assert real[1][0] == [((a, b), dtype)] * WORLD


# -- algorithm-independence sweep ------------------------------------------


def _real_results(make_args, collective, algo):
    """Raw per-rank real-mode results on System II (non-trivial islands:
    NVLink pairs (0,1)/(2,3) bridged by PCIe at world size 4)."""
    rt = SpmdRuntime(system_ii(), world_size=WORLD, comm_algorithm=algo)

    def prog(ctx):
        comm = Communicator.world(ctx)
        return collective(comm, *make_args(False, ctx.rank))

    return rt.run(prog)


def _flatten(result):
    if result is None:
        return []
    if isinstance(result, list):
        return [a for r in result for a in _flatten(r)]
    return [result]


@pytest.mark.comm_algo
class TestAlgorithmParity:
    """The algorithm layer only re-prices collectives: results, shapes and
    dtypes must be bitwise identical under every algorithm in both modes."""

    @settings(max_examples=25, deadline=None)
    @given(collective_cases())
    def test_modes_agree_under_every_algorithm(self, case):
        kind, make_args = case
        signatures = []
        for algo in ALGOS:
            real, spec = _run_both_modes(
                make_args, getattr(Communicator, kind), comm_algorithm=algo
            )
            assert real == spec, f"{algo}:\nreal: {real}\nspec: {spec}"
            # the price is the algorithm's own; shapes and errors are not
            signatures.append(real[:2] if real[0] == "ok" else real)
        assert all(s == signatures[0] for s in signatures[1:]), (
            f"{kind}: outcome varies across algorithms: {signatures}"
        )

    @pytest.mark.parametrize("kind,args", [
        ("all_reduce", ("sum",)),
        ("all_reduce", ("max",)),
        ("all_gather", (0,)),
        ("reduce_scatter", (0, "sum")),
        ("broadcast", ()),
        ("reduce", (0, "sum")),
    ])
    def test_real_results_bitwise_identical_across_algorithms(self, kind, args):
        def make_args(spec, rank):
            payload = _payload(spec, (WORLD, 8), "float32", rank)
            if kind == "broadcast":
                return ((payload if rank == 0 else None), 0)
            return (payload,) + args

        baseline = None
        for algo in ALGOS:
            results = _real_results(make_args, getattr(Communicator, kind), algo)
            flat = [_flatten(r) for r in results]
            if baseline is None:
                baseline = flat
                continue
            for rank, (got, want) in enumerate(zip(flat, baseline)):
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype
                    np.testing.assert_array_equal(
                        g, w, err_msg=f"{kind}/{algo} rank {rank}"
                    )


@pytest.mark.comm_algo
class TestSelectorInvariant:
    """Cost-side contract: the auto-selected algorithm is never costlier
    than the flat ring, for any sampled op/size/group/topology."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["allreduce", "allgather", "reduce_scatter",
                         "broadcast", "reduce"]),
        st.sampled_from(["uniform", "system_i", "system_ii", "system_iii"]),
        st.integers(2, 8),
        st.integers(0, 27),
        st.integers(1, 7),
    )
    def test_auto_cost_at_most_ring(self, op, topo, group, exp, mant):
        cluster = {
            "uniform": lambda: uniform_cluster(8),
            "system_i": system_i,
            "system_ii": system_ii,
            "system_iii": system_iii,
        }[topo]()
        model = CostModel(cluster)
        ranks = list(range(min(group, cluster.world_size)))
        nbytes = mant << exp  # 1 B .. ~900 MB, uneven mantissas
        price = getattr(model, op)
        auto = price(ranks, nbytes, algorithm="auto")
        ring = price(ranks, nbytes, algorithm="ring")
        assert auto.seconds <= ring.seconds * (1 + 1e-12)
        assert auto.algorithm in ("ring", "tree", "hierarchical")

# -- sanitizer signature properties ----------------------------------------


from repro.sanitize import (  # noqa: E402
    CollectiveMismatch,
    CommSanitizer,
    call_signature,
)


@pytest.mark.sanitize
class TestSanitizerSignatureProperty:
    """The sanitizer's matching contract: member ranks' call signatures are
    identical iff their op streams match — payload determinants (op, shape,
    dtype, reduce op, root) all feed the signature, while legitimately
    rank-varying parts (the concat-axis extent) are wildcarded out."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["all_reduce", "reduce", "reduce_scatter"]),
        st.sampled_from(DTYPES),
        st.lists(st.integers(1, 6), min_size=1, max_size=3),
        st.sampled_from(["sum", "max", "min", "prod"]),
        st.sampled_from(["shape", "dtype", "op", "none"]),
    )
    def test_reduce_family_signature_iff_call_matches(
        self, kind, dtype, shape, reduce_op, perturb
    ):
        shape = tuple(shape)
        base = call_signature(
            kind, SpecArray(shape, dtype), reduce_op=reduce_op, root=0, axis=0
        )
        # identical calls on another rank always produce the identical string
        assert base == call_signature(
            kind, SpecArray(shape, dtype), reduce_op=reduce_op, root=0, axis=0
        )
        if perturb == "none":
            return
        other_shape = shape[:-1] + (shape[-1] + 1,)
        other_dtype = "float64" if dtype != "float64" else "int32"
        other_op = "max" if reduce_op != "max" else "sum"
        perturbed = call_signature(
            kind,
            SpecArray(other_shape if perturb == "shape" else shape,
                      other_dtype if perturb == "dtype" else dtype),
            reduce_op=other_op if perturb == "op" else reduce_op,
            root=0, axis=0,
        )
        assert perturbed != base

    @settings(max_examples=40, deadline=None)
    @given(
        st.just("all_gather"),
        st.sampled_from(DTYPES),
        st.lists(st.integers(1, 6), min_size=1, max_size=3),
        st.integers(0, 2),
        st.integers(1, 5),
    )
    def test_concat_axis_extent_wildcarded(self, kind, dtype, shape, axis,
                                           delta):
        shape = tuple(shape)
        axis = axis % len(shape)
        grown = shape[:axis] + (shape[axis] + delta,) + shape[axis + 1:]
        a = call_signature(kind, SpecArray(shape, dtype), axis=axis, root=0)
        b = call_signature(kind, SpecArray(grown, dtype), axis=axis, root=0)
        # different extents along the concat axis: same signature
        assert a == b
        if len(shape) > 1:
            other_axis = (axis + 1) % len(shape)
            off = shape[:other_axis] + (shape[other_axis] + delta,) \
                + shape[other_axis + 1:]
            # different extents anywhere else: different signature
            assert call_signature(
                kind, SpecArray(off, dtype), axis=axis, root=0
            ) != a

    @settings(max_examples=12, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["all_reduce", "all_gather", "barrier"]),
                st.integers(1, 5),
            ),
            min_size=1, max_size=3,
        ),
        st.one_of(st.none(), st.integers(0, WORLD - 1)),
        st.integers(0, 2),
    )
    def test_run_raises_iff_streams_diverge(self, stream, bad_rank, bad_step):
        """End-to-end: a random identical op stream verifies clean; the same
        stream with one rank's op perturbed at one step raises a typed
        mismatch naming that rank."""
        bad_step = bad_step % len(stream)

        def prog(ctx):
            comm = Communicator.world(ctx)
            for step, (kind, n) in enumerate(stream):
                if ctx.rank == bad_rank and step == bad_step:
                    n += 1  # divergent payload extent
                    if kind == "barrier":
                        kind = "all_reduce"  # divergent op
                x = np.ones(n, dtype=np.float32)
                if kind == "all_reduce":
                    comm.all_reduce(x)
                elif kind == "all_gather":
                    comm.all_gather(x)
                else:
                    comm.barrier()
            return "ok"

        san = CommSanitizer()
        rt = SpmdRuntime(uniform_cluster(WORLD), sanitize=san)
        if bad_rank is None:
            assert rt.run(prog) == ["ok"] * WORLD
            assert san.summary()["mismatches"] == 0
            assert san.summary()["rounds_checked"] == len(stream)
        else:
            kind = stream[bad_step][0]
            if kind == "all_gather":
                # only the concat extent differs: legitimately allowed
                assert rt.run(prog) == ["ok"] * WORLD
                return
            with pytest.raises(RemoteRankError) as ei:
                rt.run(prog)
            cause = ei.value.__cause__
            assert isinstance(cause, CollectiveMismatch)
            assert cause.divergent_ranks == (bad_rank,)
