"""Tests for the configuration schema (Listing 1)."""

import os
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FIELDS, Config, ConfigError, TensorParallelConfig


class TestConfigParsing:
    def test_defaults(self):
        cfg = Config.from_dict({})
        assert cfg.tensor.size == 1
        assert cfg.pipeline == 1
        assert not cfg.fp16.enabled

    def test_listing1_style(self):
        cfg = Config.from_dict(dict(parallel=dict(tensor=dict(size=4, mode="1d"))))
        assert cfg.tensor.size == 4
        assert cfg.tensor.mode == "1d"

    def test_mode_inferred_when_size_given(self):
        cfg = Config.from_dict(dict(parallel=dict(tensor=dict(size=4))))
        assert cfg.tensor.mode == "1d"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            Config.from_dict(dict(parallel=dict(tensor=dict(size=4, modee="1d"))))

    def test_unknown_top_level_rejected(self):
        with pytest.raises(ValueError):
            Config.from_dict(dict(bogus=1))

    def test_fp16_section(self):
        cfg = Config.from_dict(dict(fp16=dict(enabled=True, initial_scale=128.0)))
        assert cfg.fp16.enabled
        assert cfg.fp16.initial_scale == 128.0

    def test_zero_section(self):
        """Stages 1 and 2 parse; stage 3 is refused by name, since
        ``initialize`` builds ZeRO-1/2 only (ZeRO-3 is ZeroOffloadEngine)."""
        assert Config.from_dict(dict(zero=dict(stage=2))).zero.stage == 2
        with pytest.raises(ConfigError, match=r"^zero\.stage must be one of \(0, 1, 2\)"):
            Config.from_dict(dict(zero=dict(stage=3)))

    def test_bad_zero_stage(self):
        with pytest.raises(ValueError):
            Config.from_dict(dict(zero=dict(stage=5)))


    @pytest.mark.parametrize(
        "section", ["fp16", "zero", "comm", "sanitize", "project", "autopar", "serve"])
    def test_unknown_section_key_names_section_and_key(self, section):
        with pytest.raises(ValueError, match=rf"unknown keys in {section} config: \['stagee'\]"):
            Config.from_dict({section: {"stagee": 1}})

    @pytest.mark.parametrize("section, field, bad", [
        ("fp16", "initial_scale", -1), ("fp16", "min_scale", 0), ("fp16", "growth_factor", 0),
        ("fp16", "growth_interval", 0), ("fp16", "backoff_factor", 1.0),
        ("fp16", "backoff_factor", 0.0), ("serve", "kv_fraction", 0.0),
    ])
    def test_out_of_range_value_names_the_field(self, section, field, bad):
        with pytest.raises(ValueError, match=rf"{section}\.{field}"):
            Config.from_dict({section: {field: bad}})


class TestTopologyConstraints:
    def test_2d_needs_square(self):
        with pytest.raises(ValueError, match="square"):
            Config.from_dict(dict(parallel=dict(tensor=dict(size=6, mode="2d"))))
        Config.from_dict(dict(parallel=dict(tensor=dict(size=9, mode="2d"))))

    def test_25d_needs_dq2(self):
        with pytest.raises(ValueError):
            Config.from_dict(dict(parallel=dict(tensor=dict(size=6, mode="2.5d", depth=2))))
        Config.from_dict(dict(parallel=dict(tensor=dict(size=8, mode="2.5d", depth=2))))

    def test_3d_needs_cube(self):
        with pytest.raises(ValueError, match="cubic"):
            Config.from_dict(dict(parallel=dict(tensor=dict(size=4, mode="3d"))))
        Config.from_dict(dict(parallel=dict(tensor=dict(size=27, mode="3d"))))

    def test_1d_any_size(self):
        for n in (2, 3, 5, 7):
            Config.from_dict(dict(parallel=dict(tensor=dict(size=n, mode="1d"))))

    def test_none_mode_size1(self):
        with pytest.raises(ValueError):
            TensorParallelConfig(size=2, mode="none").validate()


class TestWorldDecomposition:
    def test_infer_data_size(self):
        cfg = Config.from_dict(
            dict(parallel=dict(tensor=dict(size=2, mode="1d"), pipeline=2))
        )
        assert cfg.infer_data_size(8) == 2

    def test_indivisible_world(self):
        cfg = Config.from_dict(dict(parallel=dict(tensor=dict(size=3, mode="1d"))))
        with pytest.raises(ValueError):
            cfg.infer_data_size(8)

    def test_explicit_data_consistency(self):
        cfg = Config.from_dict(
            dict(parallel=dict(data=4, tensor=dict(size=2, mode="1d")))
        )
        assert cfg.infer_data_size(8) == 4
        with pytest.raises(ValueError):
            cfg.infer_data_size(4)


# -- one field table, one strict validator (DESIGN §4t) ----------------------

_W = dict(n_layers=4, hidden=256, n_heads=4, seq_len=64)
_M = dict(n_layers=1, hidden=8, n_heads=1)
_T = dict(kind="open", rate=1.0, n_requests=1)


@pytest.mark.parametrize("d, key", [
    # truthy strings used to turn the feature on
    (dict(fp16=dict(enabled="no")), "fp16.enabled"),
    (dict(comm=dict(overlap="false")), "comm.overlap"),
    (dict(sanitize=dict(race="no")), "sanitize.race"),
    # silently truncated, read as a number, or accepted out of range
    (dict(parallel=dict(tensor=dict(size=2.7))), "parallel.tensor.size"),
    (dict(zero=dict(stage=True)), "zero.stage"),
    (dict(num_microbatches=1.5), "num_microbatches"),
    (dict(gradient_clipping=-1.0), "gradient_clipping"),
    # died with a bare TypeError from a ``<``
    (dict(fp16=dict(initial_scale="32")), "fp16.initial_scale"),
    (dict(parallel=dict(data="2")), "parallel.data"),
    (dict(serve=dict(block_size="16", model=_M, traffic=_T)), "serve.block_size"),
    # nested mappings that passed validation
    (dict(autopar=dict(workload=dict(_W, n_layers=0))), "autopar.workload.n_layers"),
    (dict(autopar=dict(workload=dict(_W, seq_len=-1))), "autopar.workload.seq_len"),
    (dict(autopar=dict(workload=dict(_W, n_heads=3, hidden=8))), "autopar.workload.hidden"),
    (dict(serve=dict(model=_M, traffic=dict(_T, rate=-5))), "serve.traffic.rate"),
    (dict(serve=dict(model=dict(_M, n_layer=2), traffic=_T)), "serve.model"),
    # a depth its mode ignored, a pipeline setting with no pipeline
    *[(dict(parallel=dict(tensor=dict(size=size, mode=mode, depth=2))), "parallel.tensor.depth")
      for size, mode in ((1, "none"), (2, "1d"), (4, "2d"), (8, "3d"), (4, "sequence"))],
    (dict(num_microbatches=4), "num_microbatches"),
    (dict(pipeline_schedule="1f1b"), "pipeline_schedule"),
    # a nested key the workload does not have
    (dict(autopar=dict(workload=dict(_W, microbatches=3))), "autopar.workload"),
])
def test_probed_invalid_input_is_a_config_error_naming_the_field(d, key):
    with pytest.raises(ConfigError) as info:
        Config.from_dict(d)
    assert key in str(info.value)


_SERVE = dict(model=dict(n_layers=1, hidden=8, n_heads=2), kv_blocks=64,
              traffic=dict(kind="open", rate=100.0, n_requests=4))


@pytest.mark.parametrize("parallel, key", [
    (dict(pipeline=3), "parallel.pipeline"),
    (dict(tensor=dict(size=2, mode="1d"), data=7), "parallel.data"),
    (dict(tensor=dict(size=2, mode="1d")), "parallel.tensor.size"),
])
def test_a_serving_session_refuses_the_layout_it_ignores(parallel, key, monkeypatch):
    """The serving engine runs the world as one tensor-parallel replica, so a
    layout of stages, replicas or a smaller tensor group is refused by name
    before the engine runs (these layouts used to serve the same report as
    no ``parallel`` section at all)."""
    from repro.cluster import uniform_cluster
    from repro.engine import launch
    from repro.serve import ServeEngine

    ran = []
    monkeypatch.setattr(ServeEngine, "run", lambda engine: ran.append(engine))
    with pytest.raises(ConfigError) as info:
        launch(dict(serve=_SERVE, parallel=parallel), uniform_cluster(4), world_size=4)
    assert str(info.value).startswith(key) and not ran


@pytest.mark.parametrize("parallel", [{}, dict(tensor=dict(size=4, mode="1d")), dict(data=1)])
def test_a_serving_session_accepts_the_one_replica_layout(parallel):
    from repro.cluster import uniform_cluster
    from repro.engine import launch

    report = launch(dict(serve=_SERVE, parallel=parallel), uniform_cluster(4), world_size=4)
    assert report.world == 4 and report.n_completed == 4


@pytest.mark.parametrize("parallel, start", [(dict(data=3), "parallel.data "),
                                             (dict(pipeline=3), "parallel: ")])
def test_launch_refuses_a_layout_the_world_cannot_hold_before_any_rank(parallel, start):
    from repro.cluster import system_i
    from repro.engine import launch

    started = []
    with pytest.raises(ConfigError) as info:
        launch(dict(parallel=parallel), system_i(), lambda ctx, pc: started.append(ctx.rank),
               world_size=4)
    assert str(info.value).startswith(start) and not started


@pytest.mark.parametrize("d, budget", [
    ({}, 27),
    (dict(parallel=dict(tensor=dict(size=2, mode="1d"), pipeline=2, data=2), num_microbatches=4,
          pipeline_schedule="1f1b", zero=dict(stage=1), fp16=dict(enabled=True),
          comm=dict(algorithm="ring", overlap=False)), 36),
])
def test_from_dict_makes_no_call_per_field(d, budget):
    """``_check`` walks each section's rows, ``needs`` included, in one loop:
    the ``repro`` frames of a parse are a count per section, not per field."""
    calls = []

    def count(frame, event, arg):
        if event == "call" and f"{os.sep}repro{os.sep}" in frame.f_code.co_filename:
            calls.append(frame.f_code.co_name)

    sys.setprofile(count)
    try:
        Config.from_dict(d)
    finally:
        sys.setprofile(None)
    assert len(calls) <= budget, calls


def test_int_is_accepted_as_float_and_stored_as_float():
    cfg = Config.from_dict(dict(fp16=dict(initial_scale=32), gradient_clipping=1))
    assert type(cfg.fp16.initial_scale) is float and cfg.fp16.initial_scale == 32.0
    assert type(cfg.gradient_clipping) is float


# a draw per table row: valid values come from the row's kind, bounds and
# choices; the nested mappings from the classes that own them

def _ints(s):
    lo = None if s.lo is None else int(s.lo) + s.lo_open
    return st.integers(min_value=lo, max_value=None if lo is None else lo + 64)


_NESTED_VALID = {
    "autopar.workload": st.builds(
        lambda heads, k, layers, seq: dict(n_layers=layers, hidden=heads * k,
                                           n_heads=heads, seq_len=seq),
        st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.integers(1, 256)),
    "serve.model": st.builds(
        lambda heads, k, layers: dict(n_layers=layers, hidden=heads * k, n_heads=heads),
        st.integers(1, 8), st.integers(1, 8), st.integers(1, 4)),
    "serve.traffic": st.one_of(
        st.fixed_dictionaries(dict(kind=st.just("open"), rate=st.floats(1e-3, 1e6),
                                   n_requests=st.integers(1, 64))),
        st.fixed_dictionaries(dict(kind=st.just("closed"), clients=st.integers(1, 8),
                                   n_requests=st.integers(1, 64),
                                   think_time=st.floats(0.0, 1.0)))),
    "project.axes": st.dictionaries(st.sampled_from(["dp", "tp", "pp"]),
                                    st.integers(1, 8), min_size=1),
}

_NESTED_INVALID = {
    "autopar.workload": [dict(_W, n_layers=0), dict(_W, n_heads=3, hidden=8),
                         dict(hidden=64), dict(_W, bogus=1)],
    "serve.model": [dict(_M, hidden=0), dict(_M, n_heads=3), dict(_M, n_layer=2)],
    "serve.traffic": [dict(_T, rate=-5), dict(_T, kind="burst"), dict(_T, rate="5"),
                      dict(kind="closed", clients=0, n_requests=1)],
    "project.axes": [{}, {"zp": 2}, {"dp": 0}, {"dp": 2.5}, {"dp": True}],
}

#: what must hold for a nested row to be checked at all
_ENABLE = {"autopar.workload": ("autopar.enabled", True),
           "serve.model": ("serve.enabled", True),
           "serve.traffic": ("serve.enabled", True),
           "project.axes": ("project.mode", "project")}

_WRONG_TYPE = {bool: ["no", 0, 1, "true"], int: [2.7, True, "16", 3.0],
               float: ["32", True, b"1"], str: [1, True, b"x"], dict: [[], "x", 3]}

_TENSOR_SHAPES = [(1, "none", 1), (1, "1d", 1), (3, "1d", 1), (4, "2d", 1), (9, "2d", 1),
                  (8, "2.5d", 2), (18, "2.5d", 2), (8, "3d", 1), (4, "sequence", 1)]


def _valid(s):
    if s.key in _NESTED_VALID:
        value = _NESTED_VALID[s.key]
    elif s.choices is not None:
        value = st.sampled_from(s.choices)
    elif s.kind is bool:
        value = st.booleans()
    elif s.kind is str:
        value = st.text(max_size=8)
    elif s.kind is int:
        value = _ints(s)
    else:
        value = st.floats(min_value=s.lo, max_value=s.hi if s.hi is not None else 1e9,
                          exclude_min=s.lo_open, exclude_max=s.hi_open)
    return st.none() | value if s.default is None else value


def _invalid(s):
    if s.key in _NESTED_INVALID:
        bad = list(_NESTED_INVALID[s.key])
    elif s.choices is not None:
        bad = [7 if s.kind is int else "bogus"]
    else:
        bad = []
        if s.lo is not None:
            bad.append(s.lo if s.lo_open else s.lo - 1)
        if s.hi is not None:
            bad.append(s.hi if s.hi_open else s.hi + 1)
        if s.kind is int:
            bad = [int(b) for b in bad]
    bad += _WRONG_TYPE[s.kind] + ([] if s.default is None else [None])
    return st.sampled_from(bad)


def _holds(needs, w):
    """Whether the value ``w`` of the field a ``needs`` column names meets its condition."""
    _, _, choices, lo, lo_open, hi, hi_open = needs
    return ((choices is None or w in choices) and (lo is None or (w > lo if lo_open else w >= lo))
            and (hi is None or (w < hi if hi_open else w <= hi)))


def _needed(spec):
    """The row of the field ``spec`` needs: its ``when`` starts with that dotted key."""
    key = spec.needs[1].split()[0]
    return next(s for s in FIELDS if s.key == key)


def _nest(flat):
    """A flat ``{dotted key: value}`` draw in the ``from_dict`` input shape,
    with the cross-field rules satisfied: a field whose ``needs`` fails keeps
    its default."""
    flat = dict(flat)
    size, mode, depth = flat.pop("tensor_shape")
    flat.update({"parallel.tensor.size": size, "parallel.tensor.mode": mode,
                 "parallel.tensor.depth": depth})
    if None in (flat["serve.model"], flat["serve.traffic"]):
        flat["serve.enabled"] = False
    if flat["serve.enabled"]:  # the world serves as one replica
        flat["parallel.pipeline"], flat["parallel.data"] = 1, None
    for s in FIELDS:
        if s.needs is not None and not _holds(s.needs, flat[_needed(s).key]):
            flat[s.key] = s.default
    if flat["sanitize.record"] is not None:
        flat["sanitize.replay"] = None
    if flat["autopar.workload"] is None:
        flat["autopar.enabled"] = False
    return flat


def _shape(flat):
    d = {}
    for key, value in flat.items():
        *path, name = key.split(".")
        node = d
        for part in path:
            node = node.setdefault(part, {})
        node[name] = value
    return d


_VALID_FLAT = st.fixed_dictionaries(
    {"tensor_shape": st.sampled_from(_TENSOR_SHAPES),
     **{s.key: _valid(s) for s in FIELDS if not s.key.startswith("parallel.tensor.")}}
).map(_nest)


@settings(max_examples=200, deadline=None)
@given(_VALID_FLAT)
def test_every_valid_draw_builds_and_round_trips(flat):
    cfg = Config.from_dict(_shape(flat))
    assert Config.from_dict(cfg.to_dict()) == cfg


@settings(max_examples=300, deadline=None)
@given(_VALID_FLAT, st.data())
def test_every_invalid_draw_is_a_config_error_naming_its_field(flat, data):
    spec = data.draw(st.sampled_from(FIELDS))
    flat = dict(flat, **{spec.key: data.draw(_invalid(spec))})
    if spec.key in _ENABLE:
        flat.update([_ENABLE[spec.key]])
        for key, value in (("serve.model", _M), ("serve.traffic", _T)):
            if flat[key] is None and spec.key.startswith("serve."):
                flat[key] = value
    with pytest.raises(ConfigError) as info:  # never TypeError / KeyError / ...
        Config.from_dict(_shape(flat))
    assert spec.key in str(info.value)


@pytest.mark.parametrize("spec", [s for s in FIELDS if s.needs], ids=lambda s: s.key)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_needs_row_refuses_a_value_exactly_when_its_condition_fails(spec, data):
    """Over the defaults, a valid value other than the default is a
    ``ConfigError`` starting with its key while the field it needs fails the
    condition, and builds once that field meets it."""
    value = data.draw(_valid(spec).filter(lambda v: v != spec.default))
    needed = _needed(spec)
    assert FIELDS.index(needed) < FIELDS.index(spec)  # checked before it is read
    # the needed field's values: its choices (or a bool's), or, for a lower
    # bound (no row has an upper one), ints from 1 to past the bound
    assert spec.needs[5] is None
    values = (needed.choices or (False, True)) if spec.needs[2] else range(1, int(spec.needs[3]) + 3)
    for holds in (False, True):
        w = data.draw(st.sampled_from([w for w in values if _holds(spec.needs, w) is holds]))
        flat = {needed.key: w, spec.key: value}
        if needed.key == "parallel.tensor.mode":  # a size the mode can lay out
            flat["parallel.tensor.size"] = {"none": 1, "2d": 4, "2.5d": 4 * value, "3d": 8}.get(w, 2)
        if holds:
            Config.from_dict(_shape(flat))
        else:
            with pytest.raises(ConfigError) as info:
                Config.from_dict(_shape(flat))
            assert str(info.value).startswith(f"{spec.key} requires {spec.needs[1]}")


def _pipelined_step(**fields):
    """A two-stage spec-mode step launched from ``parallel.pipeline=2`` and
    ``fields`` through ``initialize``: the slowest rank's seconds and the
    largest pool peak."""
    from repro.cluster import uniform_cluster
    from repro.comm.payload import SpecArray
    from repro.engine import initialize, launch
    from repro.nn import Linear, Sequential
    from repro.optim import Adam

    def prog(ctx, pc):
        stage = Sequential([Linear(64, 64) for _ in range(2)])
        engine = initialize(stage, Adam(stage.parameters()), lambda out, y: out.sum(), pc=pc)
        engine.execute_schedule(SpecArray((8, 64)) if pc.is_first_pipeline_stage() else None)
        engine.step()
        return ctx.clock.time, ctx.device.memory.peak

    ranks = launch(dict(parallel=dict(pipeline=2), **fields), uniform_cluster(2), prog,
                   world_size=2, materialize=False)
    return tuple(max(col) for col in zip(*ranks))


def test_the_pipeline_fields_act_at_two_stages():
    """Where the column lets them through, each pipeline field changes the
    launched step: the microbatch count from the base, the schedule at four
    microbatches (at one, GPipe and 1F1B run the same order)."""
    four = _pipelined_step(num_microbatches=4)
    assert four != _pipelined_step()
    assert _pipelined_step(num_microbatches=4, pipeline_schedule="1f1b") != four


def test_readme_reference_is_the_field_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]

    def row(s):
        kind = s.kind.__name__ + (" or None" if s.default is None else "")
        allowed = s.bounds or " / ".join(f"`{c!r}`" for c in s.choices or ()) or "—"
        when = f"`{s.needs[1]}`" if s.needs else "—"
        return f"| `{s.key}` | {kind} | `{s.default!r}` | {allowed} | {when} | {s.doc} |"

    assert rows == [row(s) for s in FIELDS]
