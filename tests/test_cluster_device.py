"""Tests for devices and memory pools."""

import pytest

from repro.cluster import (
    Device,
    DeviceKind,
    DeviceOutOfMemoryError,
    MemoryPool,
    system_i,
    system_ii,
    system_iii,
    system_iv,
    uniform_cluster,
)
from repro.cluster.device import Storage, a100, host_cpu, p100
from repro.utils.units import GB


def _pool(capacity):
    """A fresh device's pool: bytes enter a pool only through a Storage."""
    dev = Device("gpu", DeviceKind.GPU, memory_capacity=capacity)
    return dev, dev.memory


class TestMemoryPool:
    def test_alloc_free_roundtrip(self):
        dev, pool = _pool(1000)
        st = Storage(dev, 400, tag="param")
        assert pool.allocated == 400
        st.release()
        assert pool.allocated == 0

    def test_peak_tracks_high_water(self):
        dev, pool = _pool(1000)
        keep = Storage(dev, 300)
        Storage(dev, 500).release()
        assert pool.peak == 800
        assert pool.allocated == 300
        assert keep.alive

    def test_oom_raised_at_capacity(self):
        dev, pool = _pool(100)
        keep = Storage(dev, 60)
        with pytest.raises(DeviceOutOfMemoryError):
            Storage(dev, 41)
        # failed alloc must not change accounting
        assert pool.allocated == 60
        assert keep.alive

    def test_exact_fit_allowed(self):
        dev, pool = _pool(100)
        keep = Storage(dev, 100)
        assert pool.free == 0
        assert keep.alive

    def test_release_never_underflows(self):
        """A storage returns its bytes once: an explicit release, a second
        release and the drop of its last reference together free 10."""
        dev, pool = _pool(100)
        keep = Storage(dev, 5)
        st = Storage(dev, 10)
        st.release()
        st.release()
        del st
        assert pool.allocated == 5
        assert keep.alive

    def test_tag_breakdown(self):
        dev, pool = _pool(1000)
        held = [Storage(dev, 100, tag="param"), Storage(dev, 200, tag="grad"),
                Storage(dev, 50, tag="param")]
        b = pool.breakdown()
        assert b["param"] == 150
        assert b["grad"] == 200
        assert len(held) == 3

    def test_free_is_the_headroom(self):
        dev, pool = _pool(100)
        assert pool.free == 100
        keep = Storage(dev, 60)
        assert pool.free == 40
        with pytest.raises(DeviceOutOfMemoryError):
            Storage(dev, 41)
        assert keep.alive

    def test_reset_peak(self):
        dev, pool = _pool(100)
        Storage(dev, 80).release()
        pool.reset_peak()
        assert pool.peak == 0

    def test_negative_alloc_rejected(self):
        dev, pool = _pool(100)
        with pytest.raises(ValueError):
            Storage(dev, -1)
        assert pool.allocated == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoryPool(0)

    def test_storage_born_before_reset_returns_nothing(self):
        """``reset`` starts a new ledger: a storage still alive from the
        old one returns nothing to it, by release or by drop."""
        dev, pool = _pool(10_000)
        old, dropped = Storage(dev, 4096), Storage(dev, 1024)
        pool.reset()
        new = Storage(dev, 100, tag="param")
        old.release()
        del dropped
        assert pool.allocated == 100
        assert pool.breakdown() == {"param": 100}
        new.release()
        assert pool.allocated == 0 and pool.peak == 100


class TestDevice:
    def test_compute_seconds_scale(self):
        d = a100("g0")
        t16 = d.compute_seconds(1e12, "float16")
        t32 = d.compute_seconds(1e12, "float32")
        assert t32 > t16  # fp32 peak is lower

    def test_compute_zero_flops(self):
        assert a100("g0").compute_seconds(0) == 0.0

    def test_unknown_dtype_falls_back(self):
        d = a100("g0")
        assert d.compute_seconds(1e12, "bfloat16") > 0

    def test_presets(self):
        assert a100("x", memory_gb=80).memory_capacity == 80 * GB
        assert p100("x").memory_capacity == 16 * GB
        assert host_cpu("c").kind == DeviceKind.CPU

    def test_oom_error_message(self):
        d = Device("gpu9", DeviceKind.GPU, memory_capacity=GB)
        with pytest.raises(DeviceOutOfMemoryError, match="gpu9"):
            Storage(d, 2 * GB)


class TestSystemPresets:
    def test_system_i_shape(self):
        c = system_i()
        assert c.world_size == 8
        assert all(g.memory_capacity == 80 * GB for g in c.gpus)
        # fully connected NVLink: high bandwidth between any pair
        assert c.topology.bandwidth("gpu0", "gpu7") > 100 * GB

    def test_system_ii_asymmetric(self):
        c = system_ii()
        adj = c.topology.bandwidth("gpu0", "gpu1")
        far = c.topology.bandwidth("gpu0", "gpu2")
        assert adj > 10 * far  # NVLink vs PCIe

    def test_system_iii_multinode(self):
        c = system_iii(n_nodes=4)
        assert c.world_size == 16
        intra = c.topology.bandwidth("gpu0", "gpu1")
        inter = c.topology.bandwidth("gpu0", "gpu4")
        assert intra > inter

    def test_system_iv_single_gpu_nodes(self):
        c = system_iv(n_nodes=8)
        assert c.world_size == 8
        assert all(g.node == i for i, g in enumerate(c.gpus))

    def test_host_links(self):
        c = uniform_cluster(4)
        assert c.h2d_bandwidth(0) > 0
        assert c.cpu_of(2).kind == DeviceKind.CPU

    def test_reset_clears_pools(self):
        c = uniform_cluster(2)
        held = Storage(c.gpus[0], 123)
        c.reset()
        assert c.gpus[0].memory.allocated == 0
        assert c.gpus[0].memory.peak == 0
        del held
        assert c.gpus[0].memory.allocated == 0

    def test_reset_under_a_live_tensor_keeps_the_ledger_whole(self):
        """``capture_on`` resets the pools of a runtime whose caller still
        holds a tensor from an earlier run: dropping it afterwards must not
        take its bytes out of the new ledger."""
        from repro.comm import SpecArray
        from repro.project import capture_on
        from repro.runtime import SpmdRuntime
        from repro.tensor import Tensor

        rt = SpmdRuntime(uniform_cluster(2), 2)
        kept = rt.run(lambda ctx: Tensor(SpecArray((1024,), "float32")),
                      materialize=False)
        capture_on(rt, lambda ctx: None)
        memory = rt.cluster.device(0).memory
        assert memory.allocated == 0
        del kept
        assert memory.allocated == 0
        assert memory.breakdown() == {}
