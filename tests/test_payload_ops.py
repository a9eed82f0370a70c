"""Dual-mode payload primitives: spec shape inference must match numpy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import payload_ops as P
from repro.comm import payload
from repro.comm.payload import SpecArray


def both(shape, dtype="float32", seed=0):
    arr = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    return arr, SpecArray(shape, dtype)


class TestShapeParity:
    """For every primitive: spec output shape == numpy output shape."""

    def test_binary_broadcast(self):
        a, sa = both((3, 1, 4))
        b, sb = both((2, 4), seed=1)
        for fn in (P.padd, P.psub, P.pmul, P.pdiv):
            assert fn(sa, sb).shape == fn(a, b).shape

    def test_unary(self):
        a, sa = both((2, 3))
        a = np.abs(a) + 0.5
        for fn in (P.pneg, P.pgelu):
            assert fn(sa).shape == fn(a).shape

    def test_matmul_batched(self):
        a, sa = both((2, 3, 4))
        b, sb = both((4, 5), seed=1)
        assert P.pmatmul(sa, sb).shape == P.pmatmul(a, b).shape == (2, 3, 5)

    def test_matmul_mismatch_raises(self):
        _, sa = both((2, 3))
        _, sb = both((4, 5))
        with pytest.raises(ValueError):
            P.pmatmul(sa, sb)
        with pytest.raises(ValueError):
            P.matmul_shape((3,), (3, 4))

    def test_matmul_flops(self):
        assert P.matmul_flops((2, 3), (3, 4)) == 2 * 2 * 3 * 4
        assert P.matmul_flops((5, 2, 3), (5, 3, 4)) == 5 * 2 * 2 * 3 * 4

    def test_reshape_transpose(self):
        a, sa = both((2, 3, 4))
        assert P.preshape(sa, (6, 4)).shape == (6, 4)
        assert P.ptranspose(sa, (2, 0, 1)).shape == (4, 2, 3)
        assert P.ptranspose(sa).shape == (4, 3, 2)
        assert P.pswapaxes(sa, -1, -2).shape == (2, 4, 3)

    def test_concat_split(self):
        a, sa = both((2, 4))
        assert P.pconcat([sa, sa], 1).shape == (2, 8)
        parts = P.psplit(sa, 2, 1)
        assert len(parts) == 2 and parts[0].shape == (2, 2)
        with pytest.raises(ValueError):
            P.psplit(sa, 3, 1)

    def test_slice(self):
        a, sa = both((4, 5))
        idx = (slice(1, 3), slice(None, None, 2))
        assert P.pslice(sa, idx).shape == a[idx].shape

    def test_reductions(self):
        a, sa = both((2, 3, 4))
        for fn, np_fn in ((P.psum, np.sum), (P.pmean, np.mean)):
            for axis, kd in ((None, False), (1, True), ((0, 2), False), (-1, False)):
                assert fn(sa, axis=axis, keepdims=kd).shape == np_fn(a, axis=axis, keepdims=kd).shape

    def test_softmax_numerics(self):
        a, _ = both((3, 4))
        out = P.psoftmax(a * 100)  # large logits: stability check
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(-1), 1.0, atol=1e-6)

    def test_log_softmax_matches_log_of_softmax(self):
        a, _ = both((3, 4))
        np.testing.assert_allclose(
            P.plog_softmax(a), np.log(P.psoftmax(a)), atol=1e-6
        )

    def test_unbroadcast(self):
        g = np.ones((2, 3, 4))
        out = P.unbroadcast(g, (3, 4))
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out, np.full((3, 4), 2.0))
        out2 = P.unbroadcast(g, (1, 3, 1))
        assert out2.shape == (1, 3, 1)
        assert out2[0, 0, 0] == 8.0
        s = P.unbroadcast(SpecArray((2, 3, 4)), (3, 4))
        assert s.shape == (3, 4)


def _gelu_f64(x):
    """The tanh-GELU formula and its derivative, evaluated in float64."""
    x = x.astype(np.float64)
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (x + 0.044715 * x**3))
    dinner = c * (1.0 + 3 * 0.044715 * x * x)
    return 0.5 * x * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner


@pytest.mark.parametrize("dtype", ["float32", "float16"])
class TestGeluNumerics:
    """Real-mode GELU against a float64 evaluation of the same formula, in
    units of eps * max(1, |x|): forward reads 0.95 (float32) / 0.82
    (float16), the gradient 1.90 / 1.06."""

    def _points(self, dtype):
        draws = np.random.default_rng(5).uniform(-12, 12, 100_000)
        return np.concatenate([np.linspace(-12, 12, 20_001), draws]).astype(dtype)

    def _units(self, got, want, x):
        eps = np.finfo(x.dtype).eps
        return np.abs(got.astype(np.float64) - want) / (
            eps * np.maximum(1.0, np.abs(x.astype(np.float64))))

    def test_forward_within_two_eps(self, dtype):
        x = self._points(dtype)
        out = P.pgelu(x)
        assert out.dtype == x.dtype
        assert self._units(out, _gelu_f64(x)[0], x).max() <= 2.0

    def test_gradient_within_four_eps(self, dtype):
        x = self._points(dtype)
        grad = P.pgelu_grad(x, np.ones_like(x))
        assert grad.dtype == x.dtype
        assert self._units(grad, _gelu_f64(x)[1], x).max() <= 4.0

    def test_inner_term_is_odd_bit_for_bit(self, dtype):
        """``x**3`` rounded differently per sign: 41 855 of these 2**20
        float32 draws broke the symmetry."""
        x = np.random.default_rng(9).normal(0.0, 3.0, 1 << 20).astype(dtype)
        np.testing.assert_array_equal(P._gelu_inner(-x), -P._gelu_inner(x))

    def test_special_values(self, dtype):
        x = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0], dtype)
        with np.errstate(invalid="ignore"):
            out = P.pgelu(x)
            grad = P.pgelu_grad(x, np.ones_like(x))
        np.testing.assert_array_equal(out, [np.inf, np.nan, np.nan, 0.0, 0.0])
        assert list(np.signbit(out[3:])) == [False, True]
        np.testing.assert_array_equal(grad, [np.nan, np.nan, np.nan, 0.5, 0.5])


# -- pure-Python shape inference, checked against numpy ----------------------

_dim = st.integers(0, 5)
_shape = st.lists(_dim, max_size=4).map(tuple)


@st.composite
def _broadcastable_pair(draw):
    """Two shapes that broadcast: a common result with dims dropped to 1
    and leading dims removed, each side independently."""
    out = draw(_shape)
    sides = []
    for _ in range(2):
        dims = [1 if draw(st.booleans()) else d for d in out]
        sides.append(tuple(dims[draw(st.integers(0, len(dims))):]))
    return sides


_bound = st.one_of(st.none(), st.integers(-7, 7))
_step = st.one_of(st.none(), st.integers(-3, 3).filter(lambda s: s != 0))
_basic = st.one_of(
    st.integers(-6, 6),
    st.builds(slice, _bound, _bound, _step),
    st.just(Ellipsis),
    st.just(None),
)
_index = st.one_of(_basic, st.lists(_basic, max_size=5).map(tuple))


class TestShapeInferenceAgainstNumpy:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_broadcastable_pair(), st.tuples(_shape, _shape)))
    def test_broadcast(self, shapes):
        sa, sb = shapes
        try:
            want = np.broadcast_shapes(sa, sb)
        except ValueError:
            with pytest.raises(ValueError):
                P._broadcast(sa, sb)
            return
        got = P._broadcast(sa, sb)
        assert got == want and type(got) is tuple
        assert P._broadcast(sb, sa) == want

    @settings(max_examples=500, deadline=None)
    @given(_shape, _index)
    def test_basic_index(self, shape, idx):
        try:
            want = np.empty(shape)[idx].shape
        except IndexError:
            with pytest.raises(IndexError):
                P.pslice(SpecArray(shape), idx)
            return
        got = P.pslice(SpecArray(shape), idx).shape
        assert got == want and all(type(n) is int for n in got)
        assert P._basic_index_shape(shape, idx) == want, "fell back to numpy"

    @pytest.mark.parametrize("idx", [
        [0, 2], np.array([1, 1, 0]), (slice(None), [0, 1]), True,
        np.array([True, False, True]), np.int64(1), (np.intp(0), slice(1, 3)),
    ], ids=repr)
    def test_anything_else_keeps_the_numpy_fallback(self, idx):
        shape = (3, 4)
        assert P._basic_index_shape(shape, idx) is None
        assert P.pslice(SpecArray(shape), idx).shape == np.empty(shape)[idx].shape

    def test_shape_preserving_spec_ops_return_their_input(self):
        s = SpecArray((2, 3), "float16")
        assert P.pgelu(s) is s and P.psoftmax(s) is s and P.pones_like(s) is s


class TestSpecArrayAPI:
    def test_dtype_instance_bypasses_the_spelling_cache(self, monkeypatch):
        """``np.dtype`` instances are instances of per-type *subclasses*
        (``numpy.dtypes.Float16DType``), so only ``isinstance`` sees them."""
        class Untouchable(dict):
            def __getitem__(self, key):
                raise AssertionError(f"cache consulted for {key!r}")
            __setitem__ = get = __getitem__

        monkeypatch.setattr(payload, "_DTYPE_CACHE", Untouchable())
        for spelling in ("float16", "float32", "int64"):
            dt = np.dtype(spelling)
            assert type(dt) is not np.dtype
            assert payload._as_dtype(dt) is dt
            assert SpecArray((2,), dt).dtype is dt

    def test_spellings_share_one_dtype_instance(self):
        """``__init__`` reads the spelling cache itself; what it stores is
        still numpy's own instance, and a spelling that cannot be a dict
        key (a structured dtype's field list) still works, uncached."""
        by_name = SpecArray((2, 3), "float32")
        assert by_name.dtype is np.dtype("float32")
        assert SpecArray((2, 3), np.dtype("float32")).dtype is by_name.dtype
        assert SpecArray((2, 3), np.float32).dtype is by_name.dtype
        assert SpecArray((2, 3)).dtype is by_name.dtype
        fields = [("a", "<f4"), ("b", "<i2")]
        assert SpecArray((5,), fields).nbytes == 5 * 6
        assert SpecArray((5,), fields).dtype == np.dtype(fields)

    def test_size_and_nbytes_are_plain_attributes(self):
        s = SpecArray([np.intp(3), 4], "float16")
        assert s.shape == (3, 4) and all(type(n) is int for n in s.shape)
        assert (s.size, s.nbytes) == (12, 24)
        assert "size" in SpecArray.__slots__ and "nbytes" in SpecArray.__slots__
        assert SpecArray((0, 5)).nbytes == 0

    def test_reshape(self):
        s = SpecArray((2, 3, 4), "float16")
        assert s.reshape(6, -1).shape == (6, 4)
        assert s.reshape((4, np.int64(6))).shape == (4, 6)
        assert s.reshape([-1]).shape == (24,)
        with pytest.raises(ValueError):
            s.reshape(5, -1)
        with pytest.raises(ValueError):
            s.reshape(7, 4)

    def test_nbytes_fp16(self):
        assert SpecArray((4, 4), "float16").nbytes == 32

    def test_astype(self):
        s = SpecArray((2,), "float32").astype("float16")
        assert s.dtype == np.float16 and s.nbytes == 4

    def test_scalar_shape(self):
        s = SpecArray(())
        assert s.size == 1 and s.ndim == 0

    def test_copy_independent(self):
        s = SpecArray((2, 2))
        c = s.copy()
        assert c.shape == s.shape and c is not s


class TestProfileUtil:
    def test_breakdown_table(self):
        from repro.cluster import uniform_cluster
        from repro.runtime import SpmdRuntime
        from repro.utils.profile import time_breakdown
        from repro.comm import Communicator

        rt = SpmdRuntime(uniform_cluster(2))

        def prog(ctx):
            ctx.clock.advance(1.0, "compute")
            Communicator.world(ctx).all_reduce(np.zeros(1024, dtype=np.float32))

        rt.run(prog)
        rows = time_breakdown(rt)
        assert rows[0]["compute"] == 1.0
        assert rows[0]["comm"] > 0
        assert 0 < rows[0]["comm"] < rows[0]["total"]
