"""Rank-facing communication API.

A :class:`Communicator` is one rank's view of a :class:`ProcessGroup`.  The
method set mirrors the standard collective vocabulary (mpi4py / NCCL):
``all_reduce``, ``all_gather``, ``reduce_scatter``, ``broadcast``,
``reduce``, ``all_to_all``, ``barrier``, ``send``/``recv``/``isend`` and
``ring_pass`` (one rotation step, the primitive under ring self-attention
and SUMMA-style algorithms).

All methods accept either real ``numpy`` arrays or :class:`SpecArray`
stand-ins and return the same kind; reductions are combined in local-rank
order so results are bitwise deterministic run-to-run.
"""

from __future__ import annotations

import operator
from functools import partial
from itertools import repeat
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.comm.cost import OP_PRICE
from repro.comm.group import ProcessGroup, WorkHandle
from repro.comm.payload import Payload, SpecArray
from repro.runtime.spmd import Identity

ReduceOp = str  # "sum" | "max" | "min" | "prod"

_REDUCERS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "sum": np.add,
    "max": np.maximum,
    "min": np.minimum,
    "prod": np.multiply,
}

# C-level field readers: ``map`` over a round's payloads makes no Python
# frame per member, a comprehension or generator makes one
_dtype_of = operator.attrgetter("dtype")
_shape_of = operator.attrgetter("shape")
# A round that is not rooted is priced and counted at its largest member
# payload, as the model-mode replay prices it, never at whichever member
# arrived last; where equal sizes may differ in dtype, the lowest local rank
# wins the tie.
_nbytes_of = operator.attrgetter("nbytes")


def _check_same_shape(payloads: Dict[int, Payload], what: str) -> None:
    shapes = set(map(_shape_of, payloads.values()))
    if len(shapes) > 1:
        raise ValueError(f"{what}: mismatched shapes across ranks: {sorted(shapes)}")


def _invalid_reduce_op(op: ReduceOp, what: str) -> ValueError:
    """Unknown reduce ops are rejected up front (``op not in _REDUCERS``,
    tested inline by every reducing entry point), identically in both
    execution modes: spec mode never touches ``_REDUCERS``, so unchecked it
    silently accepted any string while real mode raised a raw KeyError."""
    return ValueError(
        f"{what}: invalid reduce op {op!r}; valid ops: {sorted(_REDUCERS)}"
    )


def _out_of_range(what: str, name: str, value: Any, size: int) -> ValueError:
    """A root, peer or subgroup member must be a local rank, ``0 <= value <
    size``: tested inline at entry, before any hook, clock, counter or
    mailbox moves, so a negative one cannot index from the end."""
    return ValueError(
        f"{what}: {name} {value} is not a local rank of a group of size {size}"
    )


def _spec_dtype(payloads: Dict[int, Payload]) -> np.dtype:
    """What a spec round's members' dtypes promote to, in local-rank order;
    asked only when they differ (members that agree keep theirs)."""
    return np.result_type(*map(_dtype_of, map(payloads.__getitem__, sorted(payloads))))


def _combine(payloads: Dict[int, Payload], op: ReduceOp,
             pool: Any = None) -> Payload:
    """Reduce payloads in local-rank order (deterministic).

    With a :class:`~repro.runtime.buffer_pool.BufferPool` the accumulator is
    a pooled scratch buffer filled in place (``fn(acc, arr, out=acc)``) —
    bitwise identical to the chained ``acc = fn(acc, arr)`` when all operand
    dtypes match (elementwise ufuncs, no promotion), which is the only case
    the pooled path takes.  The caller owns the returned buffer and must
    ``adopt`` it out of the pool (reductions escape as rank results).
    """
    ordered = [payloads[i] for i in sorted(payloads)]
    first = ordered[0]
    if type(first) is SpecArray:
        return SpecArray(
            first.shape, np.result_type(*map(_dtype_of, ordered)))
    fn = _REDUCERS[op]
    if pool is not None and all(p.dtype == first.dtype for p in ordered[1:]):
        acc = pool.loan(first.shape, first.dtype, f"combine:{op}")
        np.copyto(acc, first)
        for arr in ordered[1:]:
            fn(acc, arr, out=acc)
        pool.adopt(acc)
        return acc
    acc = ordered[0].copy()
    for arr in ordered[1:]:
        acc = fn(acc, arr)
    return acc


def _pooled_copy(arr: np.ndarray, pool: Any, label: str) -> np.ndarray:
    """A copy of ``arr`` drawn from (and adopted out of) the buffer pool."""
    out = pool.loan(arr.shape, arr.dtype, label)
    np.copyto(out, arr)
    pool.adopt(out)
    return out


def _replicate(value: Payload, payloads: Dict[int, Any], owner: int,
               pool: Any = None, label: str = "") -> Dict[int, Payload]:
    """Every member's copy of a round's result.  A spec stand-in is an
    immutable value and is shared; of a real array, local rank ``owner``
    keeps the original and every other rank receives its own copy (drawn
    from ``pool`` under ``label`` when one is given)."""
    if type(value) is SpecArray:
        return dict.fromkeys(payloads, value)
    results = {}
    for i in payloads:
        if i == owner:
            results[i] = value
        elif pool is None:
            results[i] = value.copy()
        else:
            results[i] = _pooled_copy(value, pool, label)
    return results


def all_reduce_finalize(group: ProcessGroup, op: ReduceOp,
                        payloads: Dict[int, Payload]):
    """An all_reduce round's finalize — price, combine in local-rank order,
    replicate — for both spellings and ``ProcessGroup.drive_round``.  A spec
    round does it inline and shares one immutable result: local rank 0's
    payload when every member's dtype agrees."""
    if len(set(map(_shape_of, payloads.values()))) > 1:
        _check_same_shape(payloads, "all_reduce")  # raises
    # one shape: the largest payload is the widest dtype, and ties agree
    big = max(payloads.values(), key=_nbytes_of)
    cost = group.cost_model.price("all_reduce", group.ranks, int(big.nbytes))
    result = payloads[0]
    if type(result) is SpecArray:
        if len(set(map(_dtype_of, payloads.values()))) > 1:
            result = SpecArray(result.shape, _spec_dtype(payloads))
        return dict.fromkeys(payloads, result), cost, big.dtype.itemsize
    pool = group.runtime.buffer_pool
    results = _replicate(_combine(payloads, op, pool), payloads, 0, pool,
                         "all_reduce:result")
    return results, cost, big.dtype.itemsize


def all_gather_finalize(group: ProcessGroup, axis: int,
                        payloads: Dict[int, Payload]):
    """An all_gather round's finalize: price, concatenate in local-rank
    order, replicate; spec members of one shape are gathered inline."""
    chunks = list(map(payloads.__getitem__, sorted(payloads)))
    first = chunks[0]
    shape = first.shape
    big = max(chunks, key=_nbytes_of)
    cost = group.cost_model.price("all_gather", group.ranks, int(big.nbytes))
    if type(first) is SpecArray and shape and len(set(map(_shape_of, chunks))) == 1:
        out = list(shape)
        out[axis] = shape[axis] * len(chunks)
        dtype = first.dtype
        if len(set(map(_dtype_of, chunks))) > 1:
            dtype = _spec_dtype(payloads)
        return dict.fromkeys(payloads, SpecArray(tuple(out), dtype)), cost, big.dtype.itemsize
    gathered = _concat_axis(chunks, axis, "all_gather")
    return _replicate(gathered, payloads, 0), cost, big.dtype.itemsize


def reduce_scatter_finalize(group: ProcessGroup, op: ReduceOp, axis: int,
                            payloads: Dict[int, Payload]):
    """A reduce_scatter round's finalize: price, combine in local-rank
    order, hand local rank ``i`` chunk ``i`` along ``axis``; a spec round
    shares one chunk, derived inline."""
    if len(set(map(_shape_of, payloads.values()))) > 1:
        _check_same_shape(payloads, "reduce_scatter")  # raises
    first, parts = payloads[0], group.size
    if first.shape[axis] % parts != 0:
        _split_axis(first, parts, axis, "reduce_scatter")  # raises
    big = max(payloads.values(), key=_nbytes_of)  # one shape
    cost = group.cost_model.price("reduce_scatter", group.ranks, int(big.nbytes))
    if type(first) is SpecArray:
        dtype = first.dtype
        if len(set(map(_dtype_of, payloads.values()))) > 1:
            dtype = _spec_dtype(payloads)
        out = list(first.shape)
        out[axis] //= parts
        return dict.fromkeys(payloads, SpecArray(tuple(out), dtype)), cost, big.dtype.itemsize
    # combined is adopted out of the pool by _combine: the scattered
    # chunks are axis-0 *views* of it, so it must never be restocked
    combined = _combine(payloads, op, group.runtime.buffer_pool)
    chunks = _split_axis(combined, parts, axis, "reduce_scatter")
    return dict(enumerate(chunks)), cost, big.dtype.itemsize


def _split_axis(x: Payload, parts: int, axis: int, what: str) -> List[Payload]:
    if x.shape[axis] % parts != 0:
        raise ValueError(
            f"{what}: axis {axis} of shape {x.shape} not divisible into "
            f"{parts} parts"
        )
    if type(x) is SpecArray:
        shape = list(x.shape)
        shape[axis] //= parts
        return [SpecArray(tuple(shape), x.dtype)] * parts  # immutable: shared
    return [np.ascontiguousarray(c) for c in np.split(x, parts, axis=axis)]


def _concat_axis(chunks: List[Payload], axis: int, what: str) -> Payload:
    """Concatenate along ``axis``, validating every non-concat dimension in
    both modes (numpy rejects mismatches; spec mode must too)."""
    first = chunks[0]
    shape = first.shape
    if len(shape) == 0:
        raise ValueError(f"{what}: zero-dimensional payloads cannot be concatenated")
    k = axis % len(shape)
    rest = shape[:k] + shape[k + 1:]
    for c in chunks[1:]:
        if len(c.shape) != len(shape) or c.shape[:k] + c.shape[k + 1:] != rest:
            raise ValueError(
                f"{what}: mismatched non-concat dims along axis {axis}: "
                f"{sorted({tuple(c.shape) for c in chunks})}"
            )
    if type(first) is SpecArray:
        out = list(shape)
        out[axis] = 0
        for c in chunks:
            out[axis] += c.shape[axis]
        return SpecArray(tuple(out), np.result_type(*map(_dtype_of, chunks)))
    return np.concatenate(chunks, axis=axis)


class Communicator(Identity):
    """One rank's handle on a process group.  ``global_rank``, and ``rank``
    when the group has more than one member, are identity: a read on the
    representative is a trigger (DESIGN §4ab)."""

    _label = "comm"

    def __init__(self, group: ProcessGroup, global_rank: int) -> None:
        self.group = group
        #: the global rank, for the library's own bookkeeping: no trigger
        self._global_rank = global_rank
        self.size = group.size
        identity = {"global_rank": global_rank}
        local = group.local_rank(global_rank)
        if group.size == 1:
            self.rank = local  # 0 on every rank
        else:
            identity["rank"] = local
        group.runtime.identify(self, identity)

    # -- construction ------------------------------------------------------

    @staticmethod
    def world(ctx: Any) -> "Communicator":
        """Communicator over all ranks of the running SPMD program."""
        return Communicator(ctx.runtime.world_group, ctx._rank)

    def split(self, color: int, key: int = 0) -> "Communicator":
        """MPI_Comm_split: ranks with equal ``color`` form a subgroup ordered
        by ``(key, global rank)``.  Collective over the parent group."""

        def finalize(payloads: Dict[int, Any]):
            results: Dict[int, Any] = {}
            groups: Dict[int, List] = {}
            for local, (c, k) in payloads.items():
                groups.setdefault(c, []).append((k, self.group.global_rank(local)))
            membership: Dict[int, List[int]] = {}
            for c, members in groups.items():
                membership[c] = [g for _, g in sorted(members)]
            for local, (c, _k) in payloads.items():
                results[local] = membership[c]
            cost = OP_PRICE["split"](self.group.cost_model, self.group.ranks, 0, None)
            return results, cost, 1

        ranks = self.group.rendezvous(
            self._global_rank, (color, key), finalize, "split")
        return Communicator(self.group.runtime.group(ranks), self._global_rank)

    def subgroup(self, local_ranks: Sequence[int]) -> "Communicator":
        """Communicator over a subset of this group (must include self)."""
        size = self.size
        for lr in local_ranks:
            if not 0 <= lr < size:
                raise _out_of_range("subgroup", "member", lr, size)
        ranks = [self.group.global_rank(lr) for lr in local_ranks]
        return Communicator(self.group.runtime.group(ranks), self._global_rank)

    # -- collectives ---------------------------------------------------------

    def all_reduce(self, x: Payload, op: ReduceOp = "sum") -> Payload:
        """Reduce across the group; every rank receives the full result."""
        if op not in _REDUCERS:
            raise _invalid_reduce_op(op, "all_reduce")
        return self.group.rendezvous(
            self._global_rank, x, partial(all_reduce_finalize, self.group, op),
            "all_reduce", {"reduce_op": op})

    def iallreduce(self, x: Payload, op: ReduceOp = "sum") -> "WorkHandle":
        """Nonblocking :meth:`all_reduce`: the round runs on the group's comm
        stream; ``wait()`` on the returned handle delivers this rank's result
        and max-joins its compute clock to the completion time."""
        if op not in _REDUCERS:
            raise _invalid_reduce_op(op, "all_reduce")
        return self.group.rendezvous(
            self._global_rank, x, partial(all_reduce_finalize, self.group, op),
            "all_reduce", {"reduce_op": op}, "async")

    def all_gather(self, x: Payload, axis: int = 0) -> Payload:
        """Concatenate every rank's payload along ``axis``; all ranks receive
        the concatenation (in local-rank order)."""
        return self.group.rendezvous(
            self._global_rank, x, partial(all_gather_finalize, self.group, axis),
            "all_gather", {"axis": axis})

    def iall_gather(self, x: Payload, axis: int = 0) -> "WorkHandle":
        """Nonblocking :meth:`all_gather` (see :meth:`iallreduce`)."""
        return self.group.rendezvous(
            self._global_rank, x, partial(all_gather_finalize, self.group, axis),
            "all_gather", {"axis": axis}, "async")

    def reduce_scatter(self, x: Payload, axis: int = 0, op: ReduceOp = "sum") -> Payload:
        """Reduce across the group, then scatter the result: rank i receives
        the i-th chunk of the reduction along ``axis``."""
        if op not in _REDUCERS:
            raise _invalid_reduce_op(op, "reduce_scatter")
        return self.group.rendezvous(
            self._global_rank, x,
            partial(reduce_scatter_finalize, self.group, op, axis),
            "reduce_scatter", {"reduce_op": op, "axis": axis})

    def ireduce_scatter(self, x: Payload, axis: int = 0,
                        op: ReduceOp = "sum") -> "WorkHandle":
        """Nonblocking :meth:`reduce_scatter` (see :meth:`iallreduce`)."""
        if op not in _REDUCERS:
            raise _invalid_reduce_op(op, "reduce_scatter")
        return self.group.rendezvous(
            self._global_rank, x,
            partial(reduce_scatter_finalize, self.group, op, axis),
            "reduce_scatter", {"reduce_op": op, "axis": axis}, "async")

    def broadcast(self, x: Optional[Payload], root: int = 0) -> Payload:
        """Send root's payload to every rank (``root`` is a local rank)."""
        if not 0 <= root < self.size:
            raise _out_of_range("broadcast", "root", root, self.size)

        def finalize(payloads: Dict[int, Payload]):
            src = payloads[root]
            if src is None:
                raise ValueError("broadcast: root payload is None")
            cost = self.group.cost_model.broadcast(self.group.ranks, int(src.nbytes))
            results = _replicate(src, payloads, root)
            return results, cost, src.dtype.itemsize

        return self.group.rendezvous(
            self._global_rank, x, finalize, "broadcast", {"root": root})

    def reduce(self, x: Payload, root: int = 0, op: ReduceOp = "sum") -> Optional[Payload]:
        """Reduce to the local rank ``root``; other ranks receive ``None``."""
        if op not in _REDUCERS:
            raise _invalid_reduce_op(op, "reduce")
        if not 0 <= root < self.size:
            raise _out_of_range("reduce", "root", root, self.size)

        def finalize(payloads: Dict[int, Payload]):
            _check_same_shape(payloads, "reduce")
            combined = _combine(payloads, op, self.group.runtime.buffer_pool)
            big = max(payloads.values(), key=_nbytes_of)  # one shape
            cost = self.group.cost_model.reduce(self.group.ranks, int(big.nbytes))
            results: Dict[int, Optional[Payload]] = {i: None for i in payloads}
            results[root] = combined
            return results, cost, big.dtype.itemsize

        return self.group.rendezvous(
            self._global_rank, x, finalize, "reduce",
            {"reduce_op": op, "root": root})

    def all_to_all(self, chunks: List[Payload]) -> List[Payload]:
        """Personalized exchange: rank i sends ``chunks[j]`` to rank j and
        receives rank j's ``chunks[i]``."""
        if len(chunks) != self.size:
            raise ValueError(
                f"all_to_all needs {self.size} chunks, got {len(chunks)}"
            )

        def finalize(payloads: Dict[int, List[Payload]]):
            # column i of the rank-ordered chunk matrix is what rank i receives
            rows = [payloads[j] for j in sorted(payloads)]
            columns = list(zip(*rows))
            results = {i: list(columns[i]) for i in payloads}
            # each member's byte total, summed per row with no Python frame
            sizes = list(map(sum, map(map, repeat(_nbytes_of), rows)))
            n = max(sizes)
            cost = self.group.cost_model.all_to_all(self.group.ranks, int(n))
            return results, cost, rows[sizes.index(n)][0].dtype.itemsize

        return self.group.rendezvous(
            self._global_rank, chunks, finalize, "all_to_all",
            {"nchunks": len(chunks)})

    def barrier(self) -> None:
        def finalize(payloads: Dict[int, Any]):
            cost = self.group.cost_model.barrier(self.group.ranks)
            return {i: None for i in payloads}, cost, 1

        self.group.rendezvous(self._global_rank, None, finalize, "barrier")

    def ring_pass(self, x: Payload, shift: int = 1) -> Payload:
        """One ring rotation: send to ``(rank+shift) % size``, receive from
        ``(rank-shift) % size``.  All transfers overlap, so the step costs
        the slowest ring edge."""

        def finalize(payloads: Dict[int, Payload]):
            p = self.size
            results = {i: payloads[(i - shift) % p] for i in payloads}
            big = max(map(payloads.__getitem__, sorted(payloads)), key=_nbytes_of)
            cost = self.group.cost_model.ring_pass(self.group.ranks, int(big.nbytes), shift)
            return results, cost, big.dtype.itemsize

        return self.group.rendezvous(
            self._global_rank, x, finalize, "ring_pass", {"shift": shift})

    # -- point-to-point ---------------------------------------------------------

    def _deliver(self, x: Payload, dst: int, tag: Any,
                 kind: str) -> Optional[WorkHandle]:
        """One p2p transmission: the ``send`` hooks (a fault injector's
        crash check and retry rule, :meth:`GroupTimeline.retry_p2p`), the
        transfer on the group's timeline, the ``sent`` hooks, and the payload
        into the receiver's mailbox.  ``kind`` is the send's capture tag:
        ``"ps"`` (blocking ``send``) charges the sender now; ``"pss"``
        (``isend``) never — the transfer runs on the sender's p2p stream,
        and the returned :class:`StreamSendHandle` max-joins its end."""
        src_g = self._global_rank
        group = self.group
        if not 0 <= dst < group.size:
            raise _out_of_range("send" if kind == "ps" else "isend", "dst",
                                dst, group.size)
        dst_g = group.ranks[dst]
        runtime = group.runtime
        if runtime.alone:  # a p2p op is a trigger (DESIGN §4ab)
            runtime.diverge("send" if kind == "ps" else "isend")
        t_entry = runtime.clocks[src_g].time
        nbytes, elements = int(x.nbytes), int(x.size)
        cost = group.cost_model.p2p(src_g, dst_g, nbytes)
        for hook in runtime.on_send:
            hook(src_g, t_entry, group, dst_g, cost, elements)
        if kind == "pss":
            t_avail = group.stream_send(src_g, cost, elements, dst_g, nbytes)
            handle: Optional[WorkHandle] = StreamSendHandle(
                self, dst, t_avail, cost.seconds)
        else:
            t_avail = group.send(src_g, t_entry, cost, elements, dst_g, nbytes)
            handle = None
        payload = x if type(x) is SpecArray else x.copy()
        key = (src_g, dst_g, (id(group), tag))
        for hook in runtime.on_sent:
            hook(src_g, dst_g, key, payload, group, tag, kind, cost, handle)
        runtime.mailboxes.put(key, (payload, t_avail))
        return handle

    def send(self, x: Payload, dst: int, tag: Any = 0) -> None:
        """Send ``x`` to local rank ``dst``.  Returns once the payload is
        enqueued; the sender's clock is charged the full transfer (eager
        synchronous model), plus retransmissions under injected faults."""
        self._deliver(x, dst, tag, "ps")

    def recv(self, src: int, tag: Any = 0) -> Payload:
        """Blocking receive from local rank ``src``."""
        if not 0 <= src < self.size:
            raise _out_of_range("recv", "src", src, self.size)
        src_g = self.group.ranks[src]
        dst_g = self._global_rank
        runtime = self.group.runtime
        if runtime.alone:
            runtime.diverge("recv")
        for hook in runtime.on_recv:
            hook(dst_g, runtime.clocks[dst_g].time)
        key = (src_g, dst_g, (id(self.group), tag))
        payload, t_avail = runtime.mailboxes.get(key)
        for hook in runtime.on_received:
            hook(src_g, dst_g, key, payload, self.group, tag)
        self.group.arrive(dst_g, src_g, t_avail, int(payload.nbytes))
        return payload

    def sendrecv(self, x: Payload, dst: int, src: int, tag: Any = 0) -> Payload:
        """Combined send+recv (deadlock-free pairwise exchange)."""
        size = self.size
        if not 0 <= dst < size:  # both peers before the send moves anything
            raise _out_of_range("sendrecv", "dst", dst, size)
        if not 0 <= src < size:
            raise _out_of_range("sendrecv", "src", src, size)
        self.send(x, dst, tag)
        return self.recv(src, tag)

    def isend(self, x: Payload, dst: int, tag: Any = 0) -> WorkHandle:
        """Non-blocking send (mpi4py style).

        The transfer runs on the sender's p2p comm stream: it starts at
        max(issue time, stream tail), the sender's clock is not charged, and
        ``wait()`` max-joins to the transfer completion (charging only the
        exposed remainder).  Injected retransmissions charge the sender at
        issue.
        """
        return self._deliver(x, dst, tag, "pss")

    # -- introspection ------------------------------------------------------------

    @property
    def counters(self):
        """The group's shared :class:`CommCounters` (read after ``run()``)."""
        return self.group.counters

    def __repr__(self) -> str:
        local = self.group.local_of[self._global_rank]
        return f"Communicator(rank={local}/{self.size}, group={self.group.ranks})"


class StreamSendHandle(WorkHandle):
    """Handle for an ``isend`` running on the sender's p2p stream;
    ``wait()`` max-joins the sender's clock to transfer completion."""

    __slots__ = ("_comm", "_dst", "_t_end", "_seconds", "_done")

    def __init__(self, comm: "Communicator", dst: int, t_end: float,
                 seconds: float) -> None:
        self._comm = comm
        self._dst = dst
        self._t_end = t_end
        self._seconds = seconds
        self._done = False

    def test(self) -> bool:
        # the payload is enqueued at issue; completion is purely a simulated-
        # time question, answered at wait()
        return True

    def wait(self) -> None:
        if self._done:
            return None
        group = self._comm.group
        rank = self._comm._global_rank
        group.settle(rank, "isend", self._seconds, self._t_end)
        for hook in group.runtime.on_wait:
            hook(rank, self)
        self._done = True
        return None

    def __repr__(self) -> str:
        return f"StreamSendHandle(dst={self._dst}, done={self._done})"

