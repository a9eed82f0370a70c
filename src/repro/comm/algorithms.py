"""Cost-driven collective algorithm selection.

Real communication libraries (NCCL, MSCCL) do not run one flat ring for
every call: they pick per (communicator, op, message size) among a family of
algorithms — latency-optimal trees for small messages, bandwidth-optimal
rings for large ones on symmetric fabrics, and two-level hierarchical
schedules on asymmetric fabrics (NVLink islands bridged by PCIe/NIC).  The
:class:`AlgorithmSelector` reproduces that decision procedure on top of the
alpha-beta :class:`~repro.comm.cost.CostModel`: for a selectable op it
evaluates every candidate algorithm's cost and memoizes the winner per
``(group signature, op, message-size bucket)``.

The memo is keyed by power-of-two size bucket (``nbytes.bit_length()``) so a
training loop that repeats the same tensor sizes hits the cache, while the
returned cost is always evaluated at the *actual* byte count.  On a bucket
hit the cached algorithm is re-priced against the flat ring and the cheaper
of the two is returned, so selection never does worse than the flat-ring
baseline anywhere in a bucket (the invariant the parity suite pins).

The bucket table sits *above* the cost model's price memo and sees every
query: it depends on history (the first size seen in a bucket fixes the
family), and its ``hits`` / ``misses`` count queries, not formula runs.
What a hit returns is a pure function of ``(op, group, nbytes, family)``,
so it is one read of the model's memo.  The table carries the memo's tag,
``Topology.version``, and drops itself whenever it changes — fault-injected
link degradation (``scale_link``) or recovery (``restore_links``)
re-triggers selection.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

#: candidate algorithms, in tie-break preference order
ALGORITHMS = ("ring", "tree", "hierarchical")

#: collectives with more than one implemented algorithm, the only ops
#: ``CostModel.price`` takes; every other op (scatter/gather stars,
#: all_to_all, barrier, p2p) has a single schedule and its own method.
SELECTABLE_OPS = frozenset(
    {"all_reduce", "all_gather", "reduce_scatter", "broadcast", "reduce"}
)


def check_algorithm(algorithm: str) -> None:
    """The one check of an algorithm name, wherever it is set or asked for."""
    valid = ALGORITHMS + ("auto",)
    if algorithm not in valid:
        raise ValueError(f"unknown collective algorithm {algorithm!r}: "
                         f"comm_algorithm must be one of {valid}")


class AlgorithmSelector:
    """Memoized min-cost algorithm choice for one :class:`CostModel`."""

    def __init__(self, model: Any) -> None:
        self.model = model
        self._cache: Dict[Tuple[Tuple[int, ...], str, int], str] = {}
        #: the model memo's tag the table was filled under
        self._tag: Any = None
        self.hits = 0
        self.misses = 0

    def cached_choice(
        self, op: str, ranks: Sequence[int], nbytes: int
    ) -> Optional[str]:
        """The memoized algorithm for this (group, op, size bucket), if any."""
        model = self.model
        if self._tag != model.cluster.topology.version:
            return None
        return self._cache.get((tuple(ranks), op, int(nbytes).bit_length()))

    def select(self, op: str, ranks: Sequence[int], nbytes: int) -> Any:
        """Return the min-cost :class:`CollectiveCost` for this call.

        Guarantees ``cost.seconds <= ring cost.seconds`` for every size, not
        just the bucket representative that populated the cache.
        """
        model = self.model
        now = model.cluster.topology.version
        if now != self._tag:
            self._cache.clear()
            self._tag = now
        group = tuple(ranks)
        key = (group, op, int(nbytes).bit_length())
        algo = self._cache.get(key)
        if algo is None:
            best = None
            for cand in ALGORITHMS:
                cost = model._op_cost(op, ranks, nbytes, cand)
                if best is None or cost.seconds < best.seconds:
                    best, algo = cost, cand
            self.misses += 1
            self._cache[key] = algo
            return best
        self.hits += 1
        tag, memo = model._memo
        if tag != now:
            memo = model._retag()
        priced = (op, group, nbytes, "auto", algo)
        cost = memo.get(priced)
        if cost is None:
            cost = model._op_cost(op, ranks, nbytes, algo)
            if algo != "ring":
                ring = model._op_cost(op, ranks, nbytes, "ring")
                if ring.seconds < cost.seconds:
                    cost = ring
            memo[priced] = cost
        return cost

    def clear(self) -> None:
        self._cache.clear()
        self._tag = None

    def __len__(self) -> int:
        return len(self._cache)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AlgorithmSelector(entries={len(self._cache)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
