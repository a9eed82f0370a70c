"""The op-plan table (DESIGN §4r): a pure op infers once per signature.

(a) a planned dispatch is indistinguishable from a cold one, for every
    pure op over generated signatures;
(b) a plan pins no tensor, so simulated memory does not move;
(c) ranks racing a cold table read the numbers a warm table gives;
(d) what cannot be planned runs its ``forward`` every time;
(e) signatures that compare equal across types never share a plan;
(f) materialized mode builds no key.
"""

import gc
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.autograd import checkpoint, ops
from repro.autograd.checkpoint import _Checkpoint
from repro.autograd.function import UNPLANNABLE, FnCtx, Function, OpPlan
from repro.cluster import uniform_cluster
from repro.comm import Communicator, SpecArray
from repro.config import Config
from repro.context import ParallelContext
from repro.nn import CrossEntropyLoss, Linear, Sequential, TransformerLayer
from repro.optim import Adam
from repro.parallel import comm_ops
from repro.parallel.data import DistributedDataParallel
from repro.runtime import SpmdRuntime
from repro.tensor import Tensor

PURE_OPS = sorted(
    (c for c in vars(ops).values()
     if isinstance(c, type) and issubclass(c, Function) and c.PURE),
    key=lambda c: c.__name__,
)


@contextmanager
def _counting(*classes):
    """Executions of each class's ``forward`` / ``backward``, as a list of
    ``(class name, method)`` (appends are atomic across rank threads)."""
    ran, saved = [], []
    for cls in classes:
        for method in ("forward", "backward"):
            fn = getattr(cls, method)
            saved.append((cls, method, fn))

            def counted(*args, _fn=fn, _tag=(cls.__name__, method), **kwargs):
                ran.append(_tag)
                return _fn(*args, **kwargs)

            setattr(cls, method, staticmethod(counted))
    try:
        yield ran
    finally:
        for cls, method, fn in saved:
            setattr(cls, method, staticmethod(fn))


def _spec_step(world, layers=2, hidden=32, heads=4):
    """A checkpointed, overlapped spec-mode DDP step, one per rank."""

    def prog(ctx):
        pc = ParallelContext(ctx, Config.from_dict({}))
        stack = Sequential([TransformerLayer(hidden, heads, dtype="float16")
                            for _ in range(layers)], checkpoint=True)
        ddp = DistributedDataParallel(stack, pc, bucket_mb=0.01, overlap=True)
        x = Tensor(SpecArray((2, 8, hidden), "float16"), requires_grad=True)
        ddp(x).sum().backward()
        ddp.sync()

    return prog


# -- (a) hit == cold, generated ----------------------------------------------

dims = st.integers(1, 4)
shapes = st.lists(dims, max_size=4).map(tuple)
nonscalar = st.lists(dims, min_size=1, max_size=4).map(tuple)
dtypes = st.sampled_from(["float16", "float32", "float64"])


class T:
    """A tensor argument of a generated signature."""

    def __init__(self, shape, dtype="float32"):
        self.shape, self.dtype = tuple(shape), dtype

    def __repr__(self):
        return f"T({self.shape}, {self.dtype})"


@st.composite
def broadcast_pairs(draw):
    base = draw(shapes)

    def operand():
        tail = base[len(base) - draw(st.integers(0, len(base))):]
        return tuple([1 if draw(st.booleans()) else d for d in tail])

    return operand(), operand()


@st.composite
def binary(draw):
    a, b = draw(broadcast_pairs())
    return [T(a, draw(dtypes)), T(b, draw(dtypes))]


@st.composite
def unary(draw):
    return [T(draw(shapes), draw(dtypes))]


@st.composite
def matmuls(draw):
    batch_a, batch_b = draw(broadcast_pairs())
    m, k, n = draw(dims), draw(dims), draw(dims)
    return [T(batch_a + (m, k), draw(dtypes)), T(batch_b + (k, n), draw(dtypes))]


@st.composite
def reshapes(draw):
    shape = draw(shapes)
    size = int(np.prod(shape, dtype=int))
    return [T(shape, draw(dtypes)),
            draw(st.sampled_from([(size,), shape[::-1], (-1,), (1, size)]))]


@st.composite
def transposes(draw):
    shape = draw(nonscalar)
    n = len(shape)
    axes = draw(st.permutations(range(n)))
    return [T(shape, draw(dtypes)),
            tuple([a - n if draw(st.booleans()) else a for a in axes])]


@st.composite
def slices(draw):
    shape = draw(nonscalar)
    lead = draw(st.sampled_from([(), (Ellipsis,), (None,)]))
    # behind an Ellipsis one index, and it addresses the last dim
    indexed = (shape[-1:] if lead == (Ellipsis,)
               else shape[:draw(st.integers(1, len(shape)))])
    idx = []
    for n in indexed:
        if draw(st.booleans()):
            idx.append(draw(st.integers(-n, n - 1)))
        else:
            bound = st.none() | st.integers(-n - 1, n + 1)
            idx.append(slice(draw(bound), draw(bound),
                             draw(st.sampled_from([None, 1, 2, -1, -2]))))
    idx = lead + tuple(idx)
    return [T(shape, draw(dtypes)),
            idx[0] if len(idx) == 1 and draw(st.booleans()) else idx]


@st.composite
def reductions(draw):
    shape = draw(shapes)
    n = len(shape)
    axis = st.none()
    if n:
        axis = axis | st.integers(-n, n - 1) | st.lists(
            st.integers(0, n - 1), min_size=1, unique=True).map(tuple)
    return [T(shape, draw(dtypes)), draw(axis), draw(st.booleans())]


@st.composite
def softmaxes(draw):
    shape = draw(nonscalar)
    return [T(shape, draw(dtypes)), draw(st.integers(-len(shape), len(shape) - 1))]


@st.composite
def layer_norms(draw):
    shape, dtype = draw(nonscalar), draw(dtypes)
    return [T(shape, dtype), T(shape[-1:], dtype), T(shape[-1:], dtype),
            draw(st.sampled_from([1e-5, 1e-6]))]


@st.composite
def cross_entropies(draw):
    n, c = draw(dims), draw(dims)
    # spec mode reads only the logits; the targets ride along as a value,
    # or as a tensor that receives a None gradient
    return [T((n, c), draw(dtypes)),
            draw(st.sampled_from(
                [None, SpecArray((n,), "int64"), T((n,), "int64")]))]


@st.composite
def powers(draw):
    return [T(draw(shapes), draw(dtypes)),
            draw(st.sampled_from([2, 2.0, 3, 0.5, -1]))]


SIGNATURES = {
    ops.Add: binary(), ops.Sub: binary(), ops.Mul: binary(), ops.Div: binary(),
    ops.Neg: unary(), ops.Gelu: unary(), ops.Power: powers(),
    ops.MatMul: matmuls(), ops.Reshape: reshapes(), ops.Transpose: transposes(),
    ops.Slice: slices(), ops.Sum: reductions(), ops.Mean: reductions(),
    ops.Softmax: softmaxes(), ops.LayerNorm: layer_norms(),
    ops.CrossEntropy: cross_entropies(),
}


def _value(v, args):
    """``v`` as something ``==`` compares by content: a SpecArray by shape
    and dtype, a tensor by its position among ``args``, scalars with their
    type."""
    if type(v) is SpecArray:
        return ("spec", v.shape, v.dtype)
    if isinstance(v, Tensor):
        (pos,) = [i for i, a in enumerate(args) if a is v]
        return ("arg", pos)
    if isinstance(v, tuple):
        return tuple([_value(x, args) for x in v])
    if v is None or isinstance(v, OpPlan):
        return None
    return (type(v), v)


def _observe(cls, signature, dispatch):
    """What one dispatch leaves behind: output spec, context contents
    (saved tensors as positions among this call's own arguments) and the
    gradients reaching each tensor argument."""
    args = [
        Tensor(SpecArray(a.shape, a.dtype), requires_grad=True)
        if isinstance(a, T) else a for a in signature]
    out, ctx = dispatch(cls, args)
    seen = {
        "out": _value(out.payload, args),
        "ctx": {k: _value(v, args) for k, v in vars(ctx).items() if k != "plan"},
        "flops": (ctx.flops, ctx.backward_flops),
    }
    for t in ctx.saved_tensors:
        assert any(t is a for a in args), "saved a tensor of another call"
    return seen, args, out, ctx


def _through_apply(cls, args):
    out = cls.apply(*args)
    return out, out.grad_fn


def _by_hand(cls, args):
    ctx = FnCtx()
    return Tensor(cls.forward(ctx, *args)), ctx


@pytest.mark.parametrize("cls", PURE_OPS, ids=lambda c: c.__name__)
@given(data=st.data())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hit_equals_cold(cls, data):
    signature = data.draw(SIGNATURES[cls])

    def prog(ctx):
        seen = []
        with _counting(cls) as ran:
            for _ in range(2):  # cold, then served from the plan
                fwd, args, out, _ = _observe(cls, signature, _through_apply)
                out.backward(Tensor(SpecArray(out.shape, out.dtype)))
                fwd["grads"] = [
                    _value(a.grad and a.grad.payload, args)
                    for a in args if isinstance(a, Tensor)]
                seen.append(fwd)
            assert ran == [(cls.__name__, "forward"), (cls.__name__, "backward")]
        # the reference: forward and backward called by hand, no table
        ref, args, out, fnctx = _observe(cls, signature, _by_hand)
        grads = cls.backward(fnctx, SpecArray(out.shape, out.dtype))
        ref["grads"] = [_value(g, args) for g in grads]
        return seen, ref

    rt = SpmdRuntime(uniform_cluster(1))
    ((cold, hit), ref), = rt.run(prog, materialize=False)
    assert cold == ref
    assert hit == ref
    (plan,) = rt.op_plans.values()
    assert isinstance(plan, OpPlan) and len(plan.grads) == 1


def test_every_pure_op_has_a_signature_strategy():
    assert set(SIGNATURES) == set(PURE_OPS)


# -- (b) nothing pinned -------------------------------------------------------


def _held_by(plan):
    """Every object a plan reaches, tuples flattened."""
    stack = [plan.payloads, plan.saved, *plan.attrs.values(),
             *plan.grads.values()]
    while stack:
        v = stack.pop()
        if isinstance(v, tuple):
            stack.extend(v)
        else:
            yield v


def test_plans_pin_no_tensor_and_no_bytes():
    world = 2
    cluster = uniform_cluster(world)
    rt = SpmdRuntime(cluster, world, comm_overlap=True)
    gc.collect()
    gc.disable()
    try:
        rt.run(_spec_step(world), materialize=False)
        allocated = [cluster.device(r).memory.allocated for r in range(world)]
    finally:
        gc.enable()
    assert allocated == [0] * world
    plans = [p for p in rt.op_plans.values() if p is not UNPLANNABLE]
    assert len(plans) > 10
    for plan in plans:
        for v in _held_by(plan):
            assert not isinstance(v, (Tensor, np.ndarray)), (plan.attrs, v)


# -- (c) cold race ------------------------------------------------------------


def _readings(rt, cluster, world):
    counters = rt.world_group.counters
    return (
        tuple(c.time for c in rt.clocks),
        tuple(s.time for s in rt.comm_streams),
        tuple(cluster.device(r).memory.peak for r in range(world)),
        (counters.calls_total, counters.bytes_total,
         counters.exposed_seconds_total, counters.overlapped_seconds_total),
    )


def test_cold_race_reads_what_a_warm_table_reads():
    world = 8
    prog = _spec_step(world)

    def fresh():
        cluster = uniform_cluster(world)
        rt = SpmdRuntime(cluster, world, comm_overlap=True)
        rt.run(prog, materialize=False)
        return rt, cluster

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # ranks interleave inside the cold misses
    try:
        cold = {_readings(*fresh(), world) for _ in range(12)}
    finally:
        sys.setswitchinterval(interval)
    assert len(cold) == 1

    rt, cluster = fresh()
    signatures = len(rt.op_plans)
    for r in range(world):
        cluster.device(r).memory.reset_peak()
    rt.world_group.counters.reset()
    rt.run(prog, materialize=False)  # every dispatch served from the table
    assert len(rt.op_plans) == signatures
    assert _readings(rt, cluster, world) == cold.pop()


# -- (d) unplannable stays executed -------------------------------------------


class _StashesArray(Function):
    """Declared pure, but its context holds an ndarray: never planned."""

    PURE = True

    @staticmethod
    def forward(ctx, a):
        ctx.table = np.zeros(3)
        return a.payload

    @staticmethod
    def backward(ctx, g):
        return (g,)


class _KeepsForeignTensor(_StashesArray):
    @staticmethod
    def forward(ctx, a):
        ctx.other = Tensor(SpecArray((2,)))
        return a.payload


def test_unplannable_ops_run_forward_every_time():
    world, calls = 2, 3
    impure = (ops.Dropout, _Checkpoint, comm_ops.IdentityFwdAllReduceBwd,
              comm_ops.AllReduceFwdIdentityBwd, comm_ops.SplitFwdAllGatherBwd,
              comm_ops.AllGatherFwdSplitBwd, comm_ops.AllReduceMeanScalar)
    adhoc = (_StashesArray, _KeepsForeignTensor)

    def prog(ctx):
        comm = Communicator.world(ctx)
        for _ in range(calls):
            x = Tensor(SpecArray((4, 8)), requires_grad=True)
            ops.dropout(x, 0.5)
            checkpoint(ops.neg, x)
            y = comm_ops.copy_to_parallel_region(x, comm)
            y = comm_ops.reduce_from_parallel_region(y, comm)
            y = comm_ops.scatter_to_parallel_region(y, comm, 0)
            y = comm_ops.gather_from_parallel_region(y, comm, 0)
            comm_ops.mean_loss_across(y.sum(), comm)
            for cls in adhoc:
                cls.apply(x)

    rt = SpmdRuntime(uniform_cluster(world), world)
    with _counting(*impure, *adhoc) as ran:
        rt.run(prog, materialize=False)
    for cls in impure + adhoc:
        assert ran.count((cls.__name__, "forward")) == world * calls, cls
    keyed = {key[0] for key in rt.op_plans}
    assert not keyed & set(impure), "an impure op reached the table"
    for key, plan in rt.op_plans.items():
        if key[0] in adhoc:
            assert plan is UNPLANNABLE


# -- (e) aliasing -------------------------------------------------------------


def test_equal_values_of_different_types_never_share_a_plan():
    def prog(ctx):
        def attr(cls, static, name):
            x = Tensor(SpecArray((3,), "float32"), requires_grad=True)
            fnctx = cls.apply(x, *static).grad_fn
            return fnctx.plan, getattr(fnctx, name)

        seen = {}
        for _ in range(2):  # cold, then from the table
            for cls, static, name in (
                (ops.Power, (2,), "exponent"),
                (ops.Power, (2.0,), "exponent"),
                (ops.Sum, (None, True), "keepdims"),
                (ops.Sum, (None, 1), "keepdims"),
            ):
                plan, value = attr(cls, static, name)
                assert type(value) is type(static[-1])
                assert seen.setdefault((cls, repr(static)), plan) is plan
        return seen

    rt = SpmdRuntime(uniform_cluster(1))
    (seen,) = rt.run(prog, materialize=False)
    plans = list(seen.values())
    assert len({id(p) for p in plans}) == len(plans) == len(rt.op_plans) == 4


# -- (f) real mode builds no key ------------------------------------------------


def test_materialized_step_leaves_the_table_empty():
    hidden, classes, batch = 16, 4, 8
    rng = np.random.default_rng(0)
    X = rng.standard_normal((batch, hidden)).astype(np.float32)
    Y = rng.integers(0, classes, batch)

    def prog(ctx):
        blocks = [Linear(hidden, hidden, rng=np.random.default_rng(1)),
                  Linear(hidden, classes, rng=np.random.default_rng(2))]
        opt = Adam([p for b in blocks for p in b.parameters()], lr=1e-2)
        crit = CrossEntropyLoss()
        for _ in range(2):
            h = checkpoint(lambda t: ops.gelu(blocks[0](t)), Tensor(X.copy()))
            loss = crit(blocks[1](h), Y)
            loss.backward()
            opt.step()
            opt.zero_grad()
        return loss.item()

    rt = SpmdRuntime(uniform_cluster(2))
    rt.run(prog)
    assert rt.op_plans == {}
