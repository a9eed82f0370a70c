"""Training configuration schema (Listing 1 of the paper).

Users describe the parallelization declaratively::

    config = dict(parallel=dict(tensor=dict(size=4, mode="2d"),
                                pipeline=2),
                  fp16=dict(enabled=True),
                  zero=dict(stage=3, offload="adaptive"))

``Config.from_dict`` validates the schema and fills defaults;
``repro.initialize`` consumes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

TENSOR_MODES = ("none", "1d", "2d", "2.5d", "3d", "sequence")

COMM_ALGORITHMS = ("ring", "tree", "hierarchical", "auto")

PIPELINE_SCHEDULES = ("gpipe", "1f1b")


@dataclass
class TensorParallelConfig:
    size: int = 1
    mode: str = "none"
    depth: int = 1  # 2.5d only

    @property
    def grid_dim(self) -> int:
        """Side ``q`` of the SUMMA grid: size = q^2 (2d), depth * q^2 (2.5d)."""
        return math.isqrt(self.size // (self.depth if self.mode == "2.5d" else 1))

    @property
    def cube_dim(self) -> int:
        """Side ``l`` of the 3d cube: size = l^3."""
        return round(self.size ** (1 / 3))

    def validate(self) -> None:
        if self.mode not in TENSOR_MODES:
            raise ValueError(f"unknown tensor parallel mode {self.mode!r}; choose from {TENSOR_MODES}")
        if self.size < 1:
            raise ValueError(f"tensor parallel size must be >= 1, got {self.size}")
        if self.mode == "none" and self.size != 1:
            raise ValueError("tensor mode 'none' requires size 1")
        if self.mode in ("1d", "sequence"):
            return
        if self.mode == "2d":
            if self.grid_dim**2 != self.size:
                raise ValueError(f"2d tensor parallelism needs a square GPU count, got {self.size}")
        elif self.mode == "2.5d":
            if self.depth < 1:
                raise ValueError(f"2.5d depth must be >= 1, got {self.depth}")
            if self.size % self.depth != 0:
                raise ValueError(f"2.5d size {self.size} not divisible by depth {self.depth}")
            if self.grid_dim**2 * self.depth != self.size:
                raise ValueError(
                    f"2.5d tensor parallelism needs size = depth*q^2, got size={self.size}, depth={self.depth}"
                )
        elif self.mode == "3d":
            if self.cube_dim**3 != self.size:
                raise ValueError(f"3d tensor parallelism needs a cubic GPU count, got {self.size}")


@dataclass
class FP16Config:
    enabled: bool = False
    initial_scale: float = 2.0**16
    min_scale: float = 1.0
    growth_interval: int = 1000
    backoff_factor: float = 0.5
    growth_factor: float = 2.0

    def validate(self) -> None:
        for name in ("initial_scale", "min_scale", "growth_factor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"fp16.{name} must be > 0, got {getattr(self, name)}")
        if self.growth_interval < 1:
            raise ValueError(f"fp16.growth_interval must be >= 1, got {self.growth_interval}")
        if not 0.0 < self.backoff_factor < 1.0:
            raise ValueError(f"fp16.backoff_factor must be in (0, 1), got {self.backoff_factor}")


@dataclass
class ZeroConfig:
    stage: int = 0  # 0 = off, 1/2/3 per DeepSpeed convention
    offload: str = "none"  # none | static | adaptive
    chunk_mb: float = 32.0

    def validate(self) -> None:
        if self.stage not in (0, 1, 2, 3):
            raise ValueError(f"zero stage must be 0-3, got {self.stage}")
        if self.offload not in ("none", "static", "adaptive"):
            raise ValueError(f"unknown offload policy {self.offload!r}")
        if self.chunk_mb <= 0:
            raise ValueError(f"zero.chunk_mb must be > 0, got {self.chunk_mb}")


@dataclass
class CommConfig:
    """Collective-communication knobs.

    ``algorithm=None`` keeps the runtime's default (flat ring); set
    ``"auto"`` for cost-driven per-call selection or pin one family.
    ``island_ratio`` is the bandwidth-ratio threshold for fast-link island
    detection used by the hierarchical algorithms.  ``overlap`` enables
    comm/compute overlap: nonblocking collectives on per-rank comm streams,
    hook-driven DDP bucket flushing, ZeRO chunk prefetch and pipeline
    stream sends (numerics are bitwise identical either way).
    """

    algorithm: Optional[str] = None
    island_ratio: float = 0.5
    overlap: bool = False

    def validate(self) -> None:
        if self.algorithm is not None and self.algorithm not in COMM_ALGORITHMS:
            raise ValueError(
                f"unknown comm algorithm {self.algorithm!r}; "
                f"choose from {COMM_ALGORITHMS}"
            )
        if not 0.0 < self.island_ratio <= 1.0:
            raise ValueError(
                f"comm island_ratio must be in (0, 1], got {self.island_ratio}"
            )


@dataclass
class SanitizeConfig:
    """SPMD sanitizer knobs (``repro.sanitize``).

    ``enabled`` turns on cross-rank collective call-spec checking (op,
    shape/dtype signature, reduce op, membership, sequence number) —
    divergences raise :class:`~repro.sanitize.errors.CollectiveMismatch`
    or ``CollectiveDesync`` instead of hanging.  ``checksum`` adds payload
    CRCs (p2p end-to-end, collective input/result digests); ``race`` arms
    the shared-buffer race detector; ``record`` writes each rank's op
    stream to a golden file after the run; ``replay`` conformance-checks
    the run against an existing golden file.
    """

    enabled: bool = False
    checksum: bool = False
    race: bool = False
    callsites: bool = True
    record: Optional[str] = None
    replay: Optional[str] = None

    def validate(self) -> None:
        if self.record is not None and self.replay is not None:
            raise ValueError(
                "sanitize.record and sanitize.replay are mutually exclusive "
                "(one run either produces or consumes a golden file)"
            )
        if not self.enabled and (
            self.checksum or self.race or self.record or self.replay
        ):
            raise ValueError(
                "sanitize.enabled must be true to use checksum/race/"
                "record/replay"
            )

    def build(self) -> Any:
        """Instantiate the configured :class:`CommSanitizer` (raises
        ``ValueError`` when the section is disabled)."""
        if not self.enabled:
            raise ValueError("sanitize section is disabled")
        from repro.sanitize import CommSanitizer

        return CommSanitizer(
            checksum=self.checksum,
            race=self.race,
            callsites=self.callsites,
            replay=self.replay,
        )


@dataclass
class ProjectionConfig:
    """Projection execution mode (``repro.project``).

    ``mode="project"`` makes :func:`repro.launch` *capture* the program at
    the cluster's world size instead of just running it, then analytically
    replay the op stream at ``target_world`` ranks — returning a
    :class:`~repro.project.ProjectionReport` rather than per-rank results.
    ``target_world`` must be a multiple of the launch world size.

    ``axes`` selects the hybrid plan instead: per-axis widening factors
    over the captured DP x TP x PP layout, e.g. ``{"dp": 8, "tp": 2,
    "pp": 2}`` projects a 16-rank capture to 512 ranks while widening
    tensor groups 2x and deepening pipelines 2x.  When both ``axes`` and
    ``target_world`` are given they must agree (``target_world == world *
    product of factors``).
    """

    mode: str = "off"  # off | project
    target_world: Optional[int] = None
    axes: Optional[Dict[str, int]] = None

    def validate(self) -> None:
        if self.mode not in ("off", "project"):
            raise ValueError(
                f"unknown projection mode {self.mode!r}; choose 'off' or 'project'"
            )
        if self.mode == "project":
            if self.target_world is not None and self.target_world < 1:
                raise ValueError(
                    f"project.target_world must be >= 1, got {self.target_world}"
                )
        else:
            if self.target_world is not None:
                raise ValueError(
                    "project.target_world requires project.mode='project'"
                )
            if self.axes is not None:
                raise ValueError("project.axes requires project.mode='project'")
        if self.axes is not None:
            if not isinstance(self.axes, dict) or not self.axes:
                raise ValueError(
                    "project.axes must be a non-empty mapping of axis name "
                    "-> factor"
                )
            for name, k in self.axes.items():
                if name not in ("dp", "tp", "pp"):
                    raise ValueError(
                        f"project.axes: unknown axis {name!r}; "
                        "valid axes: ['dp', 'pp', 'tp']"
                    )
                if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                    raise ValueError(
                        f"project.axes[{name!r}] must be an int >= 1, got {k!r}"
                    )


def check_compile_budget(
    global_batch: Optional[int], top_k: int, max_probe_world: int,
    where: str = "autopar.",
) -> None:
    """The bounds ``compile_strategy`` relies on, shared by the ``autopar``
    config section and the function itself (``where`` prefixes the name of
    the offending setting)."""
    if global_batch is not None and global_batch < 1:
        raise ValueError(
            f"{where}global_batch must be >= 1, got {global_batch}"
        )
    if top_k < 1:
        raise ValueError(f"{where}top_k must be >= 1, got {top_k}")
    if max_probe_world < 1:
        raise ValueError(
            f"{where}max_probe_world must be >= 1, got {max_probe_world}"
        )


@dataclass
class AutoParConfig:
    """Auto-parallel strategy compilation (``repro.autopar.compiler``).

    With ``enabled``, :func:`repro.launch` first *compiles* a parallel
    strategy for ``workload`` (a Transformer description: ``n_layers``,
    ``hidden``, ``n_heads``, ``seq_len``, optional ``mlp_ratio`` /
    ``bytes_per_elem``) and merges the winning plan's ``parallel`` /
    ``zero`` / ``comm`` / ``num_microbatches`` / ``pipeline_schedule``
    settings into the config before launching — the user declares the
    model, the system picks the parallelization.

    ``global_batch`` defaults to 8 samples per rank; ``top_k`` candidates
    survive the analytic prune into projector refinement (``refine=False``
    trusts the analytic ranking); probes are capped at
    ``max_probe_world`` simulated ranks.
    """

    enabled: bool = False
    workload: Optional[Dict[str, Any]] = None
    global_batch: Optional[int] = None
    top_k: int = 4
    refine: bool = True
    max_probe_world: int = 16

    def validate(self) -> None:
        if not self.enabled:
            return
        if not isinstance(self.workload, dict):
            raise ValueError(
                "autopar.workload must be a mapping describing the model "
                "(n_layers, hidden, n_heads, seq_len, ...)"
            )
        missing = {"n_layers", "hidden", "n_heads", "seq_len"} - set(
            self.workload
        )
        if missing:
            raise ValueError(
                f"autopar.workload missing required key(s) {sorted(missing)}"
            )
        check_compile_budget(
            self.global_batch, self.top_k, self.max_probe_world
        )


TRAFFIC_KINDS = ("open", "closed")


@dataclass
class ServeConfig:
    """Inference serving mode (``repro.serve``).

    With ``enabled``, :func:`repro.launch` runs the serving engine
    instead of a training program: every rank of the world becomes one
    member of a single tensor-parallel decode replica, driven by the
    declared traffic, and the launch returns a
    :class:`~repro.serve.TrafficReport` rather than per-rank results.

    ``model`` describes the decoder (``n_layers``, ``hidden``,
    ``n_heads``, optional ``vocab`` / ``bytes_per_elem`` /
    ``hbm_bandwidth``); ``traffic`` declares the workload — ``kind:
    "open"`` (Poisson arrivals at ``rate`` req/s) or ``kind: "closed"``
    (``clients`` callers with ``think_time``), plus ``n_requests``,
    ``prompt_tokens`` / ``max_new_tokens`` ranges and ``seed``.  The
    remaining knobs shape the KV cache (``block_size`` tokens per block,
    ``kv_blocks`` fixed or ``kv_fraction`` of free device memory) and
    the continuous-batching scheduler (``max_batch_tokens``,
    ``prefill_chunk``); ``recovery_seconds`` is the replica downtime
    charged per recovered rank loss.
    """

    enabled: bool = False
    model: Optional[Dict[str, Any]] = None
    traffic: Optional[Dict[str, Any]] = None
    block_size: int = 16
    kv_blocks: Optional[int] = None
    kv_fraction: float = 0.3
    max_batch_tokens: int = 256
    prefill_chunk: int = 64
    recovery_seconds: float = 0.5
    max_recoveries: int = 16

    def validate(self) -> None:
        if not self.enabled:
            return
        if not isinstance(self.model, dict):
            raise ValueError(
                "serve.model must be a mapping describing the decoder "
                "(n_layers, hidden, n_heads, ...)")
        if not isinstance(self.traffic, dict):
            raise ValueError(
                "serve.traffic must be a mapping with kind 'open' or "
                "'closed' (rate/clients, n_requests, seed, ...)")
        kind = self.traffic.get("kind")
        if kind not in TRAFFIC_KINDS:
            raise ValueError(
                f"serve.traffic.kind must be one of {TRAFFIC_KINDS}, "
                f"got {kind!r}")
        if self.block_size < 1:
            raise ValueError(
                f"serve.block_size must be >= 1, got {self.block_size}")
        if self.kv_blocks is not None and self.kv_blocks < 1:
            raise ValueError(
                f"serve.kv_blocks must be >= 1, got {self.kv_blocks}")
        if not 0.0 < self.kv_fraction <= 1.0:
            raise ValueError(
                f"serve.kv_fraction must be in (0, 1], got {self.kv_fraction}")
        if self.max_batch_tokens < 1:
            raise ValueError(
                f"serve.max_batch_tokens must be >= 1, "
                f"got {self.max_batch_tokens}")
        if self.prefill_chunk < 1:
            raise ValueError(
                f"serve.prefill_chunk must be >= 1, got {self.prefill_chunk}")
        if self.recovery_seconds < 0:
            raise ValueError(
                f"serve.recovery_seconds must be >= 0, "
                f"got {self.recovery_seconds}")
        if self.max_recoveries < 0:
            raise ValueError(
                f"serve.max_recoveries must be >= 0, "
                f"got {self.max_recoveries}")


#: ``Config.from_dict``'s sections: key -> (class, the ``(field, value)`` any key of
#: the section implies: naming a sanitize / project / autopar / serve setting wants it)
_SECTIONS = {
    "fp16": (FP16Config, None),
    "zero": (ZeroConfig, None),
    "comm": (CommConfig, None),
    "sanitize": (SanitizeConfig, ("enabled", True)),
    "project": (ProjectionConfig, ("mode", "project")),
    "autopar": (AutoParConfig, ("enabled", True)),
    "serve": (ServeConfig, ("enabled", True)),
}


@dataclass
class Config:
    """Validated top-level configuration."""

    tensor: TensorParallelConfig = field(default_factory=TensorParallelConfig)
    pipeline: int = 1
    data: Optional[int] = None  # inferred from world size when None
    fp16: FP16Config = field(default_factory=FP16Config)
    zero: ZeroConfig = field(default_factory=ZeroConfig)
    comm: CommConfig = field(default_factory=CommConfig)
    sanitize: SanitizeConfig = field(default_factory=SanitizeConfig)
    project: ProjectionConfig = field(default_factory=ProjectionConfig)
    autopar: AutoParConfig = field(default_factory=AutoParConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)
    gradient_clipping: float = 0.0
    num_microbatches: int = 1
    pipeline_schedule: str = "gpipe"
    seed: int = 0

    @staticmethod
    def from_dict(d: Optional[Dict[str, Any]] = None) -> "Config":
        d = dict(d or {})
        parallel = dict(d.pop("parallel", {}) or {})
        tensor_d = dict(parallel.pop("tensor", {}) or {})
        tensor_size = int(tensor_d.pop("size", 1))
        cfg = Config(
            tensor=TensorParallelConfig(
                size=tensor_size,
                mode=str(tensor_d.pop("mode", "none" if tensor_size == 1 else "1d")),
                depth=int(tensor_d.pop("depth", 1)),
            ),
            pipeline=int(parallel.pop("pipeline", 1)),
            data=parallel.pop("data", None),
            gradient_clipping=float(d.pop("gradient_clipping", 0.0)),
            num_microbatches=int(d.pop("num_microbatches", 1)),
            pipeline_schedule=str(d.pop("pipeline_schedule", "gpipe")),
            seed=int(d.pop("seed", 0)),
        )
        if tensor_d:
            raise ValueError(f"unknown keys in parallel.tensor config: {sorted(tensor_d)}")
        if parallel:
            raise ValueError(f"unknown keys in parallel config: {sorted(parallel)}")
        for key, (section, implied) in _SECTIONS.items():
            section_d = dict(d.pop(key, {}) or {})
            if not section_d:
                continue
            unknown = sorted(set(section_d) - set(section.__dataclass_fields__))
            if unknown:
                raise ValueError(f"unknown keys in {key} config: {unknown}")
            if implied:
                section_d.setdefault(*implied)
            setattr(cfg, key, section(**section_d))
        if d:
            raise ValueError(f"unknown top-level config keys: {sorted(d)}")
        cfg.validate()
        return cfg

    def validate(self) -> None:
        self.tensor.validate()
        self.fp16.validate()
        self.zero.validate()
        self.comm.validate()
        self.sanitize.validate()
        self.project.validate()
        self.autopar.validate()
        self.serve.validate()
        if self.pipeline < 1:
            raise ValueError(f"pipeline size must be >= 1, got {self.pipeline}")
        if self.num_microbatches < 1:
            raise ValueError("num_microbatches must be >= 1")
        if self.pipeline_schedule not in PIPELINE_SCHEDULES:
            raise ValueError(
                f"unknown pipeline schedule {self.pipeline_schedule!r}; "
                f"choose from {PIPELINE_SCHEDULES}"
            )
        if self.data is not None and self.data < 1:
            raise ValueError("data parallel size must be >= 1")

    def model_parallel_size(self) -> int:
        return self.tensor.size * self.pipeline

    def infer_data_size(self, world_size: int) -> int:
        mp = self.model_parallel_size()
        if world_size % mp != 0:
            raise ValueError(
                f"world size {world_size} not divisible by tensor*pipeline = {mp}"
            )
        data = world_size // mp
        if self.data is not None and self.data != data:
            raise ValueError(
                f"configured data parallel size {self.data} inconsistent with "
                f"world {world_size} / (tensor*pipeline) {mp} = {data}"
            )
        return data
