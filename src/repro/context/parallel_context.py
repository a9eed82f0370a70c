"""ParallelContext: world decomposition and per-mode process groups."""

from __future__ import annotations

import enum
from typing import Dict, List

import numpy as np

from repro.comm.communicator import Communicator
from repro.config import Config
from repro.runtime.spmd import RankContext, current_rank_context


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


class ParallelContext:
    """Per-rank view of the parallel decomposition.

    Rank layout (tensor fastest, then pipeline, then data)::

        global_rank = dp_rank * (pp * tp) + pp_rank * tp + tp_rank

    so a tensor-parallel group occupies consecutive global ranks — i.e.
    consecutive GPUs, which on Systems I/II means the best-connected
    devices, matching how real launchers place tensor parallelism.
    """

    def __init__(self, ctx: RankContext, config: Config) -> None:
        self.ctx = ctx
        self.config = config
        self.world_size = ctx.world_size
        self.rank = ctx.rank

        tp = config.tensor.size
        pp = config.pipeline
        dp = config.infer_data_size(self.world_size)
        self.tensor_size = tp
        self.pipeline_size = pp
        self.data_size = dp
        self.tensor_mode = config.tensor.mode

        self.tp_rank = self.rank % tp
        self.pp_rank = (self.rank // tp) % pp
        self.dp_rank = self.rank // (tp * pp)

        self._comms: Dict[ParallelMode, Communicator] = {}
        self._build_basic_groups()
        if self.tensor_mode in GRID_GROUPS:
            self._build_grid_groups()
        elif self.tensor_mode == "3d":
            self._build_3d_groups()

        ctx.parallel_context = self

    # -- group construction -------------------------------------------------

    def _comm(self, mode: ParallelMode, ranks: List[int]) -> None:
        group = self.ctx.runtime.group(ranks)
        self._comms[mode] = Communicator(group, self.rank)

    def _build_basic_groups(self) -> None:
        tp, pp, dp = self.tensor_size, self.pipeline_size, self.data_size
        self._comm(ParallelMode.GLOBAL, list(range(self.world_size)))

        base = self.dp_rank * tp * pp + self.pp_rank * tp
        tensor_ranks = [base + t for t in range(tp)]
        self._comm(ParallelMode.TENSOR, tensor_ranks)
        if self.tensor_mode == "sequence":
            self._comm(ParallelMode.SEQUENCE, tensor_ranks)

        pipe_ranks = [
            self.dp_rank * tp * pp + p * tp + self.tp_rank for p in range(pp)
        ]
        self._comm(ParallelMode.PIPELINE, pipe_ranks)

        data_ranks = [
            d * tp * pp + self.pp_rank * tp + self.tp_rank for d in range(dp)
        ]
        self._comm(ParallelMode.DATA, data_ranks)

    def _tensor_base(self) -> int:
        return self.dp_rank * self.tensor_size * self.pipeline_size + self.pp_rank * self.tensor_size

    def _build_grid_groups(self) -> None:
        q = self.config.tensor.grid_dim
        d = self.tensor_size // (q * q)
        base = self._tensor_base()
        dep, rem = divmod(self.tp_rank, q * q)
        i, j = divmod(rem, q)
        self.dep_rank, self.row_rank, self.col_rank = dep, i, j
        row_mode, col_mode, dep_mode = GRID_GROUPS[self.tensor_mode]
        # row group: fixed i, j varies
        self._comm(row_mode, [base + dep * q * q + i * q + jj for jj in range(q)])
        # col group: fixed j, i varies
        self._comm(col_mode, [base + dep * q * q + ii * q + j for ii in range(q)])
        if dep_mode is not None:
            self._comm(dep_mode, [base + dd * q * q + i * q + j for dd in range(d)])

    def _build_3d_groups(self) -> None:
        l = self.config.tensor.cube_dim
        base = self._tensor_base()
        i, rem = divmod(self.tp_rank, l * l)
        j, k = divmod(rem, l)
        self.cube_i, self.cube_j, self.cube_k = i, j, k
        self._comm(
            ParallelMode.PARALLEL_3D_OUTPUT,
            [base + ii * l * l + j * l + k for ii in range(l)],
        )
        self._comm(
            ParallelMode.PARALLEL_3D_WEIGHT,
            [base + i * l * l + jj * l + k for jj in range(l)],
        )
        self._comm(
            ParallelMode.PARALLEL_3D_INPUT,
            [base + i * l * l + j * l + kk for kk in range(l)],
        )

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
