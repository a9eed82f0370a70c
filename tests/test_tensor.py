"""Tests for Tensor/Storage memory accounting and sharding helpers."""

import gc

import numpy as np
import pytest

from repro.cluster.device import Device, DeviceKind, DeviceOutOfMemoryError
from repro.comm.payload import SpecArray
from repro.tensor import (
    Storage,
    Tensor,
    full,
    local_shard_shape,
    shard_payload,
    zeros,
)
from repro.utils.units import MB

from conftest import set_default_device


@pytest.fixture
def dev():
    d = Device("t", DeviceKind.GPU, memory_capacity=64 * MB)
    set_default_device(d)
    yield d
    set_default_device(None)


class TestStorage:
    def test_alloc_and_release(self, dev):
        s = Storage(dev, 1000)
        assert dev.memory.allocated == 1000
        s.release()
        assert dev.memory.allocated == 0

    def test_release_idempotent(self, dev):
        s = Storage(dev, 1000)
        s.release()
        s.release()
        assert dev.memory.allocated == 0

    def test_gc_frees(self, dev):
        s = Storage(dev, 4096)
        del s
        gc.collect()
        assert dev.memory.allocated == 0


class TestTensor:
    def test_creation_accounts_bytes(self, dev):
        t = Tensor(np.zeros((10, 10), dtype=np.float32))
        assert dev.memory.allocated == 400
        assert t.shape == (10, 10)
        assert t.nbytes == 400

    def test_fp16_accounting(self, dev):
        keep = Tensor(np.zeros(100, dtype=np.float16))
        assert dev.memory.allocated == 200

    def test_spec_tensor_accounts_same(self, dev):
        keep = Tensor(SpecArray((10, 10), "float32"))
        assert dev.memory.allocated == 400

    def test_oom(self, dev):
        with pytest.raises(DeviceOutOfMemoryError):
            Tensor(SpecArray((128 * MB,), "float32"))

    def test_view_shares_storage(self, dev):
        t = Tensor(np.zeros((4, 4), dtype=np.float32))
        before = dev.memory.allocated
        v = Tensor(t.payload.reshape(16), base=t)
        assert dev.memory.allocated == before
        assert v.storage is t.storage

    def test_detach_shares_storage_drops_grad(self, dev):
        t = Tensor(np.ones(4), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.storage is t.storage

    def test_release(self, dev):
        t = Tensor(np.zeros(1000, dtype=np.float32))
        t.release()
        assert dev.memory.allocated == 0

    def test_numpy_raises_on_spec(self, dev):
        t = Tensor(SpecArray((3,)))
        with pytest.raises(RuntimeError):
            t.numpy()
        assert t.data is None

    def test_item(self, dev):
        assert Tensor(np.array([2.5])).item() == 2.5

    def test_tag_breakdown(self, dev):
        keep1 = Tensor(np.zeros(100, dtype=np.float32), tag="param")
        keep2 = Tensor(np.zeros(50, dtype=np.float32), tag="grad")
        b = dev.memory.breakdown()
        assert b["param"] == 400 and b["grad"] == 200

    def test_factories(self, dev):
        assert np.all(zeros((3,)).numpy() == 0)
        assert np.all(full((2,), 7).numpy() == 7)


class TestShardPayload:
    def test_basic(self):
        x = np.arange(8)
        np.testing.assert_array_equal(shard_payload(x, 0, 4, 2), [4, 5])

    def test_local_shard_shape(self):
        assert local_shard_shape((8, 4), 1, 2) == (8, 2)

    def test_indivisible(self):
        with pytest.raises(ValueError):
            shard_payload(np.zeros(7), 0, 2, 0)

    def test_spec(self):
        out = shard_payload(SpecArray((8, 4)), 0, 2, 1)
        assert isinstance(out, SpecArray) and out.shape == (4, 4)

    def test_contiguous_output(self):
        x = np.arange(16).reshape(4, 4)
        c = shard_payload(x, 1, 2, 0)
        assert c.flags["C_CONTIGUOUS"]
