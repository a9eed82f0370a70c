"""ParallelContext: world decomposition and per-mode process groups."""

from __future__ import annotations

import enum
import functools
import math
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.comm.communicator import Communicator
from repro.config import Config
from repro.runtime.spmd import Identity, RankContext, current_rank_context


class ParallelMode(enum.Enum):
    GLOBAL = "global"
    DATA = "data"
    PIPELINE = "pipeline"
    TENSOR = "tensor"
    SEQUENCE = "sequence"
    # 2D grid (SUMMA)
    PARALLEL_2D_ROW = "2d_row"
    PARALLEL_2D_COL = "2d_col"
    # 2.5D cuboid
    PARALLEL_2P5D_ROW = "2.5d_row"
    PARALLEL_2P5D_COL = "2.5d_col"
    PARALLEL_2P5D_DEP = "2.5d_dep"
    # 3D cube axes
    PARALLEL_3D_INPUT = "3d_input"
    PARALLEL_3D_WEIGHT = "3d_weight"
    PARALLEL_3D_OUTPUT = "3d_output"


#: (row, col, depth) groups of the SUMMA grid per tensor mode: 2D is the
#: one-layer grid of 2.5D and has no depth group
GRID_GROUPS = {
    "2d": (ParallelMode.PARALLEL_2D_ROW, ParallelMode.PARALLEL_2D_COL, None),
    "2.5d": (
        ParallelMode.PARALLEL_2P5D_ROW,
        ParallelMode.PARALLEL_2P5D_COL,
        ParallelMode.PARALLEL_2P5D_DEP,
    ),
}


@functools.lru_cache(maxsize=None)
def rank_groups(
    world: int, tensor: int = 1, pipeline: int = 1, mode: str = "1d",
    depth: int = 1,
) -> Mapping[ParallelMode, Tuple[Tuple[int, ...], ...]]:
    """Every process-group family of a decomposition, in the order a
    :class:`ParallelContext` builds them: ascending rank tuples, ordered by
    smallest member.  A rank is a mixed-radix number whose digits are,
    fastest first, the tensor digits (``j, i, dep`` of the 2D / 2.5D grid,
    ``k, j, i`` of the 3D cube, one otherwise), the stage, the replica; a
    family groups the ranks that differ only in its digits (ROW ``j``, COL
    ``i``, DEP ``dep``; INPUT ``k``, WEIGHT ``j``, OUTPUT ``i``)."""
    if world % (tensor * pipeline) != 0:
        raise ValueError(
            f"world size {world} is not divisible by tensor*pipeline "
            f"degree {tensor}*{pipeline}"
        )
    if mode == "3d":
        l = round(tensor ** (1 / 3))
        radices = [l, l, l]
        extra = ((ParallelMode.PARALLEL_3D_OUTPUT, 2),
                 (ParallelMode.PARALLEL_3D_WEIGHT, 1),
                 (ParallelMode.PARALLEL_3D_INPUT, 0))
    elif mode in GRID_GROUPS:
        q = math.isqrt(tensor // (depth if mode == "2.5d" else 1))
        radices = [q, q, tensor // (q * q)]
        extra = [(f, d) for d, f in enumerate(GRID_GROUPS[mode]) if f]
    else:
        radices, extra = [tensor], []
    t = len(radices)
    radices += [pipeline, world // (tensor * pipeline)]
    strides = [math.prod(radices[:d]) for d in range(len(radices))]
    families = [(ParallelMode.GLOBAL, range(t + 2)), (ParallelMode.TENSOR, range(t))]
    if mode == "sequence":
        families.append((ParallelMode.SEQUENCE, range(t)))
    families += [(ParallelMode.PIPELINE, (t,)), (ParallelMode.DATA, (t + 1,))]
    families += [(fam, (digit,)) for fam, digit in extra]

    def family(digits: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
        groups: Dict[int, List[int]] = {}
        for rank in range(world):
            base = rank - sum(
                rank // strides[d] % radices[d] * strides[d] for d in digits)
            groups.setdefault(base, []).append(rank)
        return tuple(map(tuple, groups.values()))

    return MappingProxyType({fam: family(digits) for fam, digits in families})


class ParallelContext(Identity):
    """Per-rank view of the parallel decomposition: a communicator over
    this rank's group of each :func:`rank_groups` family.  A tensor group
    is consecutive GPUs, the best-connected ones on Systems I/II, as real
    launchers place it.  Each coordinate (``tp/pp/dp_rank``,
    ``row/col/dep_rank``, ``cube_i/j/k``) is the local rank in the family
    that varies that digit alone.  ``rank`` and every coordinate that is
    not 0 on every rank are identity: a read on the representative is a
    trigger (DESIGN §4ab)."""

    _label = "pc"

    def __init__(self, ctx: RankContext, config: Config) -> None:
        self.ctx = ctx
        self.config = config
        self.world_size = ctx.world_size
        rank = ctx._rank

        self.tensor_size = tp = config.tensor.size
        self.pipeline_size = pp = config.pipeline
        self.data_size = config.infer_data_size(self.world_size)
        self.tensor_mode = mode = config.tensor.mode

        self._comms: Dict[ParallelMode, Communicator] = {}
        layout = rank_groups(self.world_size, tp, pp, mode, config.tensor.depth)
        for family, groups in layout.items():
            for ranks in groups:
                if rank in ranks:
                    break
            # a singleton is this rank's own, named differently on each rank
            group = (ctx.runtime.own_group if len(ranks) == 1 else ctx.runtime.group)(ranks)
            self._comms[family] = Communicator(group, rank)
        # each coordinate with the family whose local rank it is
        coords = {"rank": ParallelMode.GLOBAL, "tp_rank": ParallelMode.TENSOR,
                  "pp_rank": ParallelMode.PIPELINE, "dp_rank": ParallelMode.DATA}
        if mode in GRID_GROUPS:
            # the row group varies j and the column group i
            row, col, dep = GRID_GROUPS[mode]
            coords.update(row_rank=col, col_rank=row)
            if dep is None:
                self.dep_rank = 0
            else:
                coords["dep_rank"] = dep
        elif mode == "3d":
            coords.update(cube_i=ParallelMode.PARALLEL_3D_OUTPUT,
                          cube_j=ParallelMode.PARALLEL_3D_WEIGHT,
                          cube_k=ParallelMode.PARALLEL_3D_INPUT)
        identity = {}
        for name, family in coords.items():
            group = self._comms[family].group
            if group.size == 1:
                setattr(self, name, 0)
            else:
                identity[name] = group.local_of[rank]
        ctx.runtime.identify(self, identity)

        ctx.parallel_context = self

    # -- queries ---------------------------------------------------------------

    def comm(self, mode: ParallelMode) -> Communicator:
        try:
            return self._comms[mode]
        except KeyError:
            raise ValueError(
                f"parallel mode {mode} not initialized (tensor mode is "
                f"{self.tensor_mode!r})"
            ) from None

    def is_first_pipeline_stage(self) -> bool:
        return self.pp_rank == 0

    def is_last_pipeline_stage(self) -> bool:
        return self.pp_rank == self.pipeline_size - 1

    # -- seeded RNGs --------------------------------------------------------------

    def model_rng(self, salt: int = 0) -> np.random.Generator:
        """Identical on every rank: layers draw the *global* weight tensor
        from this stream, then keep their shard — the root of TP/serial
        arithmetic equivalence."""
        return np.random.default_rng((self.config.seed, 0xC0FFEE, salt))

    def data_rng(self, salt: int = 0) -> np.random.Generator:
        """Same within a model-parallel group, distinct across data-parallel
        replicas: every worker of one replica reads the same samples."""
        return np.random.default_rng((self.config.seed, 0xDA7A, self.dp_rank, salt))

    def dropout_rng(self, salt: int = 0) -> np.random.Generator:
        """Distinct per rank (local activation shards get independent
        masks)."""
        return np.random.default_rng((self.config.seed, 0xD20, self.rank, salt))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParallelContext(rank={self.rank}, dp={self.dp_rank}/{self.data_size}, "
            f"pp={self.pp_rank}/{self.pipeline_size}, tp={self.tp_rank}/{self.tensor_size}, "
            f"mode={self.tensor_mode})"
        )


def global_context() -> ParallelContext:
    """The ParallelContext attached to the calling rank thread."""
    pc = current_rank_context().parallel_context
    if pc is None:
        raise RuntimeError(
            "no ParallelContext initialized on this rank; call "
            "repro.launch/initialize first"
        )
    return pc
