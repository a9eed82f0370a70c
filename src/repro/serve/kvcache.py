"""Paged KV-cache: fixed-size token blocks over a cluster memory pool.

The serving engine never allocates per-token KV storage; it charges one
arena to every rank's :class:`~repro.cluster.device.MemoryPool` (tag
``"kv_cache"``) up front — the vLLM discipline — and one
:class:`BlockPool` per replica pages sequences into fixed-size *blocks*
of ``block_size`` token slots each.  Every sequence owns a *block table*
(ordered block ids); appending a token only touches the pool when the
sequence crosses a block boundary, and blocks are exclusively owned, so
append is copy-on-write-free by construction.

Exhaustion is a typed signal, not an OOM crash: :meth:`BlockPool.appended`
is all-or-nothing and raises :class:`CacheExhausted` when the free list
cannot cover the growth, which the continuous-batching scheduler turns
into preempt-and-requeue.  A request whose full footprint
(``prompt + max_new`` tokens) exceeds the whole pool can never be served
and is failed up front with :class:`RequestTooLarge`.

Blocks go out in a fixed order: returned blocks last-in first-out, then
never-used ids ascending from a counter, so building a pool costs the same
at any size.  Invariants (property-tested in ``tests/test_serve.py``): the
free list, the never-used ids and the union of all block tables partition
``range(num_blocks)`` at all times — no block is double-owned, none leaks.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class KVCacheError(RuntimeError):
    """Base class for paged KV-cache errors."""


class CacheExhausted(KVCacheError):
    """Not enough free blocks — scheduler should preempt and retry."""

    def __init__(self, seq_id: int, need: int, free: int) -> None:
        self.seq_id = seq_id
        self.need = need
        self.free = free
        super().__init__(
            f"seq {seq_id} needs {need} KV block(s) but only {free} free"
        )


class RequestTooLarge(KVCacheError):
    """A request's full footprint exceeds the entire pool — unservable."""

    def __init__(self, seq_id: int, need: int, num_blocks: int) -> None:
        self.seq_id = seq_id
        self.need = need
        self.num_blocks = num_blocks
        super().__init__(
            f"seq {seq_id} needs {need} KV block(s) but the pool only has "
            f"{num_blocks} in total"
        )


class BlockPool:
    """Fixed-size KV block allocator with per-sequence block tables."""

    def __init__(self, block_size: int, num_blocks: int) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
        # plain attributes, read-only outside this class: admission reads
        # them inline (DESIGN §4j)
        self.block_size = int(block_size)
        self.num_blocks = int(num_blocks)
        #: token slots in the whole pool: a sequence of more can never fit
        self.token_capacity = self.num_blocks * self.block_size
        #: LIFO stack of returned blocks, handed out before any fresh one
        self.free_list: List[int] = []
        #: the lowest never-used block id: ``fresh .. num_blocks - 1`` are free
        self.fresh = 0
        #: free blocks, returned or never used
        self.free_blocks = self.num_blocks
        self._tables: Dict[int, List[int]] = {}
        self._owner: Dict[int, int] = {}
        self.peak_used = 0

    # -- capacity --------------------------------------------------------

    @property
    def used_blocks(self) -> int:
        return self.num_blocks - self.free_blocks

    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` KV slots."""
        return -(-int(tokens) // self.block_size) if tokens > 0 else 0

    # -- allocation ------------------------------------------------------

    def appended(self, seq_id: int, total_tokens: int) -> int:
        """Grow ``seq_id``'s table to cover ``total_tokens`` slots.

        All-or-nothing: either every block needed is allocated and the
        number of new blocks is returned, or :class:`CacheExhausted` /
        :class:`RequestTooLarge` is raised with the table untouched.
        """
        # blocks_for / used_blocks inlined: this runs once per block a
        # sequence grows by, for every sequence
        need_total = (-(-int(total_tokens) // self.block_size)
                      if total_tokens > 0 else 0)
        if need_total > self.num_blocks:
            raise RequestTooLarge(seq_id, need_total, self.num_blocks)
        table = self._tables.get(seq_id)
        have = len(table) if table is not None else 0
        grow = need_total - have
        if grow <= 0:
            return 0
        if grow > self.free_blocks:
            raise CacheExhausted(seq_id, grow, self.free_blocks)
        if table is None:
            table = self._tables[seq_id] = []
        free_list = self.free_list
        for _ in range(grow):
            if free_list:
                block = free_list.pop()
            else:
                block = self.fresh
                self.fresh = block + 1
            self._owner[block] = seq_id
            table.append(block)
        self.free_blocks -= grow
        used = self.num_blocks - self.free_blocks
        if used > self.peak_used:
            self.peak_used = used
        return grow

    def free_sequence(self, seq_id: int) -> int:
        """Return every block ``seq_id`` owns; number freed."""
        table = self._tables.pop(seq_id, None)
        if not table:
            return 0
        for block in table:
            del self._owner[block]
            self.free_list.append(block)
        self.free_blocks += len(table)
        return len(table)

    # -- introspection (the property-test surface) -----------------------

    def table(self, seq_id: int) -> Tuple[int, ...]:
        return tuple(self._tables.get(seq_id, ()))

    def sequences(self) -> Tuple[int, ...]:
        return tuple(sorted(self._tables))

    def check_consistent(self) -> None:
        """Free list, never-used ids and block tables must partition
        ``range(num_blocks)``, and ``free_blocks`` count the first two."""
        owned: Dict[int, int] = {}
        for seq_id, table in self._tables.items():
            for block in table:
                if block in owned:
                    raise KVCacheError(
                        f"block {block} double-owned by seq {owned[block]} "
                        f"and seq {seq_id}")
                owned[block] = seq_id
        if owned != self._owner:
            raise KVCacheError(
                "owner index out of sync with block tables: "
                f"{sorted(set(owned.items()) ^ set(self._owner.items()))}")
        free = set(self.free_list)
        if len(free) != len(self.free_list):
            raise KVCacheError("duplicate block on the free list")
        if free & set(owned):
            raise KVCacheError(
                f"blocks both free and owned: {sorted(free & set(owned))}")
        # the never-used ids are free and owned by nobody by construction
        if free | set(owned) != set(range(self.fresh)):
            handed = set(range(self.fresh))
            raise KVCacheError(
                f"leaked blocks (neither free nor owned): "
                f"{sorted(handed - free - set(owned))}, never handed out: "
                f"{sorted((free | set(owned)) - handed)}")
        if self.free_blocks != len(free) + self.num_blocks - self.fresh:
            raise KVCacheError(
                f"free_blocks {self.free_blocks} miscounts the free list "
                f"({len(free)}) and the never-used ids "
                f"({self.num_blocks - self.fresh})")
