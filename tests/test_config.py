"""Tests for the configuration schema (Listing 1)."""

import pytest

from repro.config import Config, TensorParallelConfig


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
        cfg = Config.from_dict(dict(zero=dict(stage=3, offload="adaptive")))
        assert cfg.zero.stage == 3

    def test_bad_zero_stage(self):
        with pytest.raises(ValueError):
            Config.from_dict(dict(zero=dict(stage=5)))

    def test_bad_offload(self):
        with pytest.raises(ValueError):
            Config.from_dict(dict(zero=dict(offload="sometimes")))


    @pytest.mark.parametrize(
        "section", ["fp16", "zero", "comm", "sanitize", "project", "autopar", "serve"])
    def test_unknown_section_key_names_section_and_key(self, section):
        with pytest.raises(ValueError, match=rf"unknown keys in {section} config: \['stagee'\]"):
            Config.from_dict({section: {"stagee": 1}})

    @pytest.mark.parametrize("section, field, bad", [
        ("fp16", "initial_scale", -1), ("fp16", "min_scale", 0), ("fp16", "growth_factor", 0),
        ("fp16", "growth_interval", 0), ("fp16", "backoff_factor", 1.0),
        ("fp16", "backoff_factor", 0.0), ("zero", "chunk_mb", -5),
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
