"""Training configuration schema (Listing 1 of the paper).

Users describe the parallelization declaratively::

    config = dict(parallel=dict(tensor=dict(size=4, mode="2d"),
                                pipeline=2),
                  fp16=dict(enabled=True),
                  zero=dict(stage=1))

``Config.from_dict`` validates the schema and fills defaults;
``repro.initialize`` consumes it.  Every field declares its type, bounds or
choices and a one-line doc once, in its ``dataclasses.field`` metadata;
:data:`FIELDS` is that table and :func:`_check` the one validator over it
(DESIGN §4t).  Cross-field rules beyond each field's ``needs`` are its section's
``_rules``.  Every violation is a :class:`ConfigError` naming the dotted field.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, NamedTuple, Optional, Tuple

TENSOR_MODES = ("none", "1d", "2d", "2.5d", "3d", "sequence")

COMM_ALGORITHMS = ("ring", "tree", "hierarchical", "auto")

PIPELINE_SCHEDULES = ("gpipe", "1f1b")

ZERO_STAGES = (0, 1, 2)


class ConfigError(ValueError):
    """An invalid config; the message starts with the dotted field it is
    about (``fp16.enabled``, ``parallel.tensor.size``, ``serve.traffic.rate``)."""


def _bounds(text: Optional[str]) -> Tuple[Optional[float], bool, Optional[float], bool]:
    """``(lo, lo_open, hi, hi_open)`` of ``">= 1"``, ``"> 0"`` or ``"(0, 1]"``."""
    if text is None:
        return None, False, None, False
    if text[0] == ">":
        return float(text.lstrip(">= ")), text[1] != "=", None, False
    lo, hi = text[1:-1].split(", ")
    return float(lo), text[0] == "(", float(hi), text[-1] == ")"


def _field(default: Any, kind: type, doc: str, bounds: Optional[str] = None,
           choices: Optional[Tuple[Any, ...]] = None, needs: Optional[Tuple[str, Any]] = None) -> Any:
    """A config field: its ``kind`` (``bool`` / ``int`` / ``float`` / ``str`` /
    ``dict``), ``bounds`` (``">= 1"``, ``"> 0"``, ``"(0, 1]"``) or ``choices``,
    a one-line doc, and the ``(dotted field, bounds or choices)`` of its section
    that any value but the default ``needs``.  A ``None`` default makes ``None``
    valid too.  The metadata ``row`` is its :class:`FieldSpec` after the default."""
    if needs is not None:
        key, cond = needs
        text = isinstance(cond, str)
        when = f"{key} {cond if text else '= ' + ' / '.join(map(repr, cond))}"
        needs = (key.rpartition(".")[2], when, None if text else cond,  # attribute, when, choices,
                 *_bounds(cond if text else None))  # lo, lo_open, hi, hi_open
    return field(default=default, metadata={"row": (kind, bounds, choices, doc, *_bounds(bounds), needs)})


class _Section:
    """What every section shares: ``validate`` checks its rows of the field
    table, then its cross-field ``_rules``."""

    #: the section's place in the input dict, and the ``(field, value)`` any
    #: key of it implies (naming a sanitize / project / ... setting wants it)
    _key = ""
    _implied: Optional[Tuple[str, Any]] = None

    def validate(self) -> None:
        _check(self)

    def _rules(self) -> None:
        """Cross-field rules; each field alone is the table's business."""


@dataclass
class TensorParallelConfig(_Section):
    _key = "parallel.tensor"

    size: int = _field(1, int, "GPUs per tensor-parallel group", ">= 1")
    mode: str = _field("none", str, "tensor-parallel layout; 'none' iff size 1, "
                       "'1d' when size > 1 is given alone", choices=TENSOR_MODES)
    depth: int = _field(1, int, "the depth d of size = d*q^2", ">= 1",
                        needs=("parallel.tensor.mode", ("2.5d",)))

    @property
    def grid_dim(self) -> int:
        """Side ``q`` of the SUMMA grid: size = q^2 (2d), depth * q^2 (2.5d)."""
        return math.isqrt(self.size // self.depth)  # depth is 1 outside 2.5d (its needs)

    @property
    def cube_dim(self) -> int:
        """Side ``l`` of the 3d cube: size = l^3."""
        return round(self.size ** (1 / 3))

    def _rules(self) -> None:
        mode, size = self.mode, self.size
        if mode == "none" and size != 1:
            raise ConfigError(f"parallel.tensor.size must be 1 in tensor mode 'none', got {size}")
        if mode == "2d":
            fits, shape = self.grid_dim**2 == size, "a square GPU count"
        elif mode == "2.5d":
            fits = self.grid_dim**2 * self.depth == size
            shape = f"size = depth*q^2 (depth={self.depth})"
        elif mode == "3d":
            fits, shape = self.cube_dim**3 == size, "a cubic GPU count"
        else:
            return
        if not fits:
            raise ConfigError(
                f"parallel.tensor.size: {mode} tensor parallelism needs {shape}, got {size}")


@dataclass
class FP16Config(_Section):
    _key = "fp16"

    enabled: bool = _field(False, bool, "mixed precision with a dynamic loss scale")
    initial_scale: float = _field(2.0**16, float, "loss scale at the first step", "> 0")
    min_scale: float = _field(1.0, float, "floor an overflow never backs the scale below", "> 0")
    growth_interval: int = _field(1000, int, "overflow-free steps before the scale grows", ">= 1")
    backoff_factor: float = _field(0.5, float, "scale multiplier on an overflow", "(0, 1)")
    growth_factor: float = _field(2.0, float, "scale multiplier after growth_interval clean steps", "> 0")


@dataclass
class ZeroConfig(_Section):
    _key = "zero"

    stage: int = _field(0, int, "ZeRO stage: 0 off, 1/2 shard Adam by chunk over the data "
                        "group, 2 also the gradients (ZeRO-3 is ZeroOffloadEngine, built "
                        "directly)", choices=ZERO_STAGES)


@dataclass
class CommConfig(_Section):
    _key = "comm"

    algorithm: Optional[str] = _field(None, str, "comm algorithm; None keeps the runtime's flat "
                                      "ring, 'auto' picks per call by cost",
                                      choices=COMM_ALGORITHMS)
    overlap: bool = _field(False, bool, "overlap comm with compute (numerics bitwise identical)")


@dataclass
class SanitizeConfig(_Section):
    """SPMD sanitizer knobs (``repro.sanitize``): divergent collectives raise
    :class:`~repro.sanitize.errors.CollectiveMismatch` or ``CollectiveDesync``
    instead of hanging."""

    _key = "sanitize"
    _implied = ("enabled", True)

    enabled: bool = _field(False, bool, "cross-rank collective call-spec checking")
    checksum: bool = _field(False, bool, "payload CRCs on p2p and collective data",
                            needs=("sanitize.enabled", (True,)))
    race: bool = _field(False, bool, "arm the shared-buffer race detector",
                        needs=("sanitize.enabled", (True,)))
    record: Optional[str] = _field(None, str, "write each rank's op stream to this golden file",
                                   needs=("sanitize.enabled", (True,)))
    replay: Optional[str] = _field(None, str, "conformance-check the run against this golden "
                                   "file", needs=("sanitize.enabled", (True,)))

    def _rules(self) -> None:
        if self.record is not None and self.replay is not None:
            raise ConfigError(
                "sanitize.replay: sanitize.record and sanitize.replay are mutually "
                "exclusive (one run either produces or consumes a golden file)")

    def build(self) -> Any:
        """Instantiate the configured :class:`CommSanitizer` (raises
        ``ValueError`` when the section is disabled)."""
        if not self.enabled:
            raise ValueError("sanitize section is disabled")
        from repro.sanitize import CommSanitizer

        return CommSanitizer(
            checksum=self.checksum,
            race=self.race,
            replay=self.replay,
        )


@dataclass
class ProjectionConfig(_Section):
    """Projection execution mode (``repro.project``): :func:`repro.launch`
    captures the program at the cluster's world size and returns a
    :class:`~repro.project.ProjectionReport` widened by ``axes`` (e.g.
    ``{"dp": 8, "tp": 2, "pp": 2}`` projects a 16-rank capture to 512
    ranks).  ``target_world`` alone widens the data-parallel axis:
    ``axes={"dp": target_world // world}``.  When both are given they must
    agree (``target_world == world * product of factors``), checked at
    launch."""

    _key = "project"
    _implied = ("mode", "project")

    mode: str = _field("off", str, "'project' captures the launch and prices it at scale",
                       choices=("off", "project"))
    target_world: Optional[int] = _field(None, int, "ranks to price at: a multiple of the launch "
                                         "world size", ">= 1", needs=("project.mode", ("project",)))
    axes: Optional[Dict[str, int]] = _field(None, dict, "per-axis widening factors, 'dp' / 'tp' "
                                            "/ 'pp' -> int >= 1", needs=("project.mode", ("project",)))

    def _rules(self) -> None:
        if self.axes == {}:
            raise ConfigError("project.axes must be a non-empty mapping of axis name -> factor")
        for name, k in (self.axes or {}).items():
            if name not in ("dp", "tp", "pp"):
                raise ConfigError(
                    f"project.axes: unknown axis {name!r}; valid axes: ['dp', 'pp', 'tp']")
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise ConfigError(f"project.axes.{name} must be an int >= 1, got {k!r}")

    def factors(self, world: int) -> Dict[str, int]:
        """The widening factor of each axis for a ``world``-rank capture."""
        if self.axes is None:
            target = self.target_world or world
            if target % world != 0:
                raise ConfigError(f"project.target_world {target} must be a multiple "
                                  f"of the captured world size {world}")
            return {"dp": target // world}
        target = world * math.prod(self.axes.values())
        if self.target_world not in (None, target):
            raise ConfigError(
                f"project.target_world {self.target_world} disagrees with project.axes "
                f"{self.axes}: a {world}-rank capture projects to {target} ranks")
        return self.axes


@dataclass
class AutoParConfig(_Section):
    """Auto-parallel strategy compilation (``repro.autopar.compiler``): with
    ``enabled``, :func:`repro.launch` first compiles a strategy for
    ``workload`` and merges the winning plan's ``parallel`` / ``zero`` /
    ``comm`` / ``num_microbatches`` / ``pipeline_schedule`` settings into the
    config — the user declares the model, the system picks the parallelization."""

    _key = "autopar"
    _implied = ("enabled", True)

    enabled: bool = _field(False, bool, "compile a parallel strategy before launching")
    workload: Optional[Dict[str, Any]] = _field(None, dict, "the Transformer: n_layers, hidden, "
                                                "n_heads, seq_len, ... (repro.autopar.Workload)")
    global_batch: Optional[int] = _field(None, int, "samples per step; None is 8 per rank", ">= 1")
    top_k: int = _field(4, int, "candidates the analytic prune passes to refinement", ">= 1")
    refine: bool = _field(True, bool, "refine the shortlist on the simulator")
    max_probe_world: int = _field(16, int, "simulated ranks one refinement probe may use", ">= 1")

    def _rules(self) -> None:
        if not self.enabled:
            return
        if self.workload is None:
            raise ConfigError("autopar.workload must be a mapping describing the model "
                              "(n_layers, hidden, n_heads, seq_len, ...)")
        from repro.autopar.search import Workload

        _build("autopar.workload", Workload, self.workload)


@dataclass
class ServeConfig(_Section):
    """Inference serving mode (``repro.serve``): with ``enabled``,
    :func:`repro.launch` runs every rank of the world as one member of a
    single tensor-parallel decode replica driven by ``traffic``, and returns a
    :class:`~repro.serve.TrafficReport` rather than per-rank results."""

    _key = "serve"
    _implied = ("enabled", True)

    enabled: bool = _field(False, bool, "serve traffic instead of training")
    model: Optional[Dict[str, Any]] = _field(None, dict, "the decoder: n_layers, hidden, n_heads, "
                                             "... (repro.serve.ModelSpec)")
    traffic: Optional[Dict[str, Any]] = _field(None, dict, "kind 'open' (rate) or 'closed' "
                                               "(clients), n_requests, token ranges, seed")
    block_size: int = _field(16, int, "tokens per KV-cache block", ">= 1")
    kv_blocks: Optional[int] = _field(None, int, "KV pool size in blocks; None sizes it "
                                      "by kv_fraction", ">= 1")
    kv_fraction: float = _field(0.3, float, "share of free device memory for the KV pool", "(0, 1]")
    max_batch_tokens: int = _field(256, int, "tokens one batching step may carry", ">= 1")
    prefill_chunk: int = _field(64, int, "prompt tokens prefilled per request per step", ">= 1")
    recovery_seconds: float = _field(0.5, float, "replica downtime per recovered rank loss (s)", ">= 0")
    max_recoveries: int = _field(16, int, "rank losses recovered before the run fails", ">= 0")

    def _rules(self) -> None:
        if self.enabled:
            self.build()

    def build(self) -> Tuple[Any, Any]:
        """The ``(ModelSpec, traffic)`` the ``model`` / ``traffic`` mappings
        describe; each owns its bounds, and a violation is a
        :class:`ConfigError` naming ``serve.model.<key>`` / ``serve.traffic.<key>``."""
        from repro.serve.engine import ModelSpec
        from repro.serve.traffic import ClosedLoopTraffic, OpenLoopTraffic

        if self.model is None:
            raise ConfigError("serve.model must be a mapping describing the decoder "
                              "(n_layers, hidden, n_heads, ...)")
        if self.traffic is None:
            raise ConfigError("serve.traffic must be a mapping with kind 'open' or 'closed' "
                              "(rate/clients, n_requests, seed, ...)")
        traffic = dict(self.traffic)
        kind = traffic.pop("kind", None)
        if kind not in ("open", "closed"):
            raise ConfigError(f"serve.traffic.kind must be 'open' or 'closed', got {kind!r}")
        cls = OpenLoopTraffic if kind == "open" else ClosedLoopTraffic
        return (_build("serve.model", ModelSpec, self.model),
                _build("serve.traffic", cls, traffic))


#: ``Config.from_dict``'s sections besides ``parallel.tensor``, in table order
_SECTIONS = (FP16Config, ZeroConfig, CommConfig, SanitizeConfig, ProjectionConfig,
             AutoParConfig, ServeConfig)

#: ``Config``'s attribute -> class of each section it holds
_NESTED = (("tensor", TensorParallelConfig),) + tuple((s._key, s) for s in _SECTIONS)

#: ``Config``'s scalars that sit under ``parallel`` in the input dict
_PARALLEL = ("pipeline", "data")


@dataclass
class Config(_Section):
    """Validated top-level configuration."""

    tensor: TensorParallelConfig = field(default_factory=TensorParallelConfig)
    pipeline: int = _field(1, int, "pipeline stages", ">= 1")
    data: Optional[int] = _field(None, int, "data-parallel size; None infers it from the world", ">= 1")
    fp16: FP16Config = field(default_factory=FP16Config)
    zero: ZeroConfig = field(default_factory=ZeroConfig)
    comm: CommConfig = field(default_factory=CommConfig)
    sanitize: SanitizeConfig = field(default_factory=SanitizeConfig)
    project: ProjectionConfig = field(default_factory=ProjectionConfig)
    autopar: AutoParConfig = field(default_factory=AutoParConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)
    gradient_clipping: float = _field(0.0, float, "global gradient-norm clip; 0 disables", ">= 0")
    num_microbatches: int = _field(1, int, "microbatches per step", ">= 1",
                                   needs=("parallel.pipeline", "> 1"))
    pipeline_schedule: str = _field("gpipe", str, "pipeline schedule", choices=PIPELINE_SCHEDULES,
                                    needs=("parallel.pipeline", "> 1"))
    seed: int = _field(0, int, "seed of every parameter, data and dropout stream", ">= 0")

    @staticmethod
    def from_dict(d: Optional[Dict[str, Any]] = None) -> "Config":
        d = _mapping(d, "config")
        parallel = _mapping(d.pop("parallel", None), "parallel")
        tensor = _mapping(parallel.pop("tensor", None), "parallel.tensor")
        tensor.setdefault("mode", "none" if tensor.get("size", 1) == 1 else "1d")
        kwargs = {k: parallel.pop(k) for k in _PARALLEL if k in parallel}
        _reject_unknown(parallel, (), "parallel")
        kwargs["tensor"] = _make(TensorParallelConfig, tensor)
        for section in _SECTIONS:
            section_d = d.pop(section._key, None)
            if section_d:
                section_d = _mapping(section_d, section._key)
                if section._implied:
                    section_d.setdefault(*section._implied)
                kwargs[section._key] = _make(section, section_d)
        _reject_unknown(d, _TOP_LEVEL, "top-level")
        cfg = Config(**kwargs, **d)
        _check(cfg)
        return cfg

    def to_dict(self) -> Dict[str, Any]:
        """The input-shaped dict of this config: ``Config.from_dict(cfg.to_dict()) == cfg``."""
        d = asdict(self)
        d["parallel"] = {"tensor": d.pop("tensor"), **{k: d.pop(k) for k in _PARALLEL}}
        return d

    def _rules(self) -> None:
        for key, section in _NESTED:
            value = getattr(self, key)
            if type(value) is not section:
                raise ConfigError(f"{key} must be a {section.__name__}, got {value!r}")
            _check(value)
        # a serving session runs the world as one tensor-parallel replica;
        # ``launch`` checks ``parallel.tensor.size`` against the world
        if self.serve.enabled:
            for key, value in (("parallel.pipeline", self.pipeline), ("parallel.data", self.data)):
                if value not in (None, 1):
                    raise ConfigError(f"{key} must be 1 in a serving session (the world serves "
                                      f"as one tensor-parallel replica), got {value}")

    def model_parallel_size(self) -> int:
        return self.tensor.size * self.pipeline

    def infer_data_size(self, world_size: int) -> int:
        mp = self.model_parallel_size()
        data, rest = divmod(world_size, mp)
        if rest:
            raise ConfigError(f"parallel: world size {world_size} not divisible by tensor*pipeline {mp}")
        if self.data not in (None, data):
            raise ConfigError(f"parallel.data {self.data} is inconsistent with world "
                              f"{world_size} / (tensor*pipeline) {mp} = {data}")
        return data


class FieldSpec(NamedTuple):
    """One row of the field table; ``lo`` / ``hi`` are ``bounds`` parsed, and
    ``needs`` is the pair :func:`_field` parsed, or None where any value acts."""

    key: str  # dotted path in the input dict
    name: str  # attribute on the section
    default: Any
    kind: type
    bounds: Optional[str]
    choices: Optional[Tuple[Any, ...]]
    doc: str
    lo: Optional[float]
    lo_open: bool
    hi: Optional[float]
    hi_open: bool
    needs: Optional[Tuple[Any, ...]]


#: section class -> its rows, built once at import
_TABLE: Dict[type, Tuple[FieldSpec, ...]] = {
    cls: tuple(
        FieldSpec(f"{cls._key or ('parallel' if f.name in _PARALLEL else '')}.{f.name}".lstrip("."),
                  f.name, f.default, *f.metadata["row"])
        for f in fields(cls) if f.metadata)
    for cls in (TensorParallelConfig, Config) + _SECTIONS
}

#: every config field, in reference order (the README's "Configuration reference")
FIELDS: Tuple[FieldSpec, ...] = tuple(spec for rows in _TABLE.values() for spec in rows)

_TOP_LEVEL = frozenset(s.name for s in _TABLE[Config] if s.key == s.name)

#: kind -> (what a value of another type may be coerced from, its name in
#: errors); a ``bool`` never counts as a number
_KINDS = {bool: (bool, "a bool"), int: (numbers.Integral, "an int"),
          float: (numbers.Real, "a number"), str: (str, "a string"), dict: (dict, "a mapping")}


def _check(obj: _Section) -> None:
    """The one validator: coerce and check each of ``obj``'s fields against its
    table row and what it ``needs``, then run the section's cross-field rules."""
    for key, name, default, kind, bounds, choices, doc, lo, lo_open, hi, hi_open, needs in _TABLE[type(obj)]:
        v = getattr(obj, name)
        if v is None and default is None:
            continue
        if type(v) is not kind:
            accepts, what = _KINDS[kind]
            if isinstance(v, bool) or not isinstance(v, accepts):
                none = " or None" if default is None else ""
                raise ConfigError(f"{key} must be {what}{none}, got {v!r} ({doc})")
            v = kind(v)
            setattr(obj, name, v)
        if choices is not None and v not in choices:
            raise ConfigError(f"{key} must be one of {choices}, got {v!r} ({doc})")
        if (lo is not None and not (v > lo if lo_open else v >= lo)
                or hi is not None and not (v < hi if hi_open else v <= hi)):
            where = bounds if bounds[0] == ">" else "in " + bounds
            raise ConfigError(f"{key} must be {where}, got {v!r} ({doc})")
        if needs is not None and v != default:
            other, when, choices, lo, lo_open, hi, hi_open = needs
            w = getattr(obj, other)
            if (choices is not None and w not in choices
                    or lo is not None and not (w > lo if lo_open else w >= lo)
                    or hi is not None and not (w < hi if hi_open else w <= hi)):
                raise ConfigError(f"{key} requires {when}, not {w!r}: got {v!r} ({doc})")
    obj._rules()


def _mapping(value: Any, where: str) -> Dict[Any, Any]:
    """A copy of the mapping at ``where`` (``None`` is empty)."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {value!r}")
    return dict(value)


def _reject_unknown(d: Dict[Any, Any], known: Any, where: str) -> None:
    unknown = sorted(set(d).difference(known), key=str)
    if unknown:
        raise ConfigError(f"unknown keys in {where} config: {unknown}")


def _make(section: type, d: Dict[str, Any]) -> Any:
    _reject_unknown(d, section.__dataclass_fields__, section._key)
    return section(**d)


def _build(key: str, cls: type, kwargs: Dict[str, Any]) -> Any:
    """``cls(**kwargs)`` for the mapping at ``key``: ``cls`` owns the bounds, and
    a missing or unknown key or a value it rejects is a :class:`ConfigError`."""
    params = inspect.signature(cls).parameters
    missing = [n for n, p in params.items() if p.default is p.empty and n not in kwargs]
    if missing:
        raise ConfigError(f"{key} missing required key(s) {missing}")
    _reject_unknown(kwargs, params, key)
    try:
        return cls(**kwargs)
    except ValueError as err:  # the owner's message starts with the key
        raise ConfigError(f"{key}.{err}") from None
    except TypeError as err:  # a wrong-typed value met a comparison
        raise ConfigError(f"{key}: {err}") from None
