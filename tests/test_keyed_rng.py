"""The keyed-draw kernel against numpy: every value ``KeyedDraws`` returns
must ``==`` what ``np.random.default_rng(entropy)`` returns for the same
key and the same sequence of calls.  A numpy whose streams differ fails
here; closed-loop traffic rests on these streams."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.utils.keyed_rng import KeyedDraws, entropy_words

fast = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _int_of_words(n_words):
    """An int that coerces to exactly ``n_words`` 32-bit words (0 is one)."""
    return st.integers(0 if n_words == 1 else 2 ** (32 * (n_words - 1)),
                       2 ** (32 * n_words) - 1)


#: per entropy element, how many words it coerces to: 1..6 elements of
#: 1..3 words, so from one word to well past the 4-word pool
layouts = st.lists(st.integers(1, 3), min_size=1, max_size=6)

#: ``hi - lo``: no draw, small, just above 2**31 (about half of the
#: draws rejected), just below 2**32
widths = st.one_of(
    st.just(1), st.integers(2, 1000), st.integers(2**31 + 1, 2**31 + 2**20),
    st.integers(2**32 - 2**20, 2**32 - 1))


@st.composite
def calls(draw):
    """``(lo, hi)`` for ``integers``."""
    width = draw(widths)
    lo = draw(st.integers(-2**63, 2**63 - width))
    return lo, lo + width


call_lists = st.lists(calls(), min_size=1, max_size=6)


def _numpy(entropy, ops):
    g = np.random.default_rng(entropy)
    return [int(g.integers(*op)) for op in ops]


@fast
@given(layout=layouts, data=st.data(), ops=call_lists)
def test_every_draw_equals_numpy(layout, data, ops):
    keys = data.draw(st.lists(
        st.tuples(*(_int_of_words(w) for w in layout)).map(list),
        min_size=1, max_size=12))
    draws = KeyedDraws(np.stack([entropy_words(k) for k in keys]))
    columns = [draws.integers(*op).tolist() for op in ops]
    for key, row in zip(keys, zip(*columns)):
        assert list(row) == _numpy(key, ops)


def test_rejection_redraws_only_the_rejected_keys():
    """Half of the draws of a width of ``2**31 + 1`` are rejected, so keys
    fall out of step with each other; every later value must still
    match."""
    keys = [[5, k] for k in range(64)]
    ops = [(0, 2**31 + 1), (0, 2**31 + 1), (3, 9),
           (-2**40, -2**40 + 2**31 + 1), (0, 2**31 + 1)]
    draws = KeyedDraws(np.stack([entropy_words(k) for k in keys]))
    columns = [draws.integers(*op).tolist() for op in ops]
    assert [list(r) for r in zip(*columns)] == [_numpy(k, ops) for k in keys]


@pytest.mark.parametrize("entropy", [0, 7, 2**64 + 3, [0], [1, 2**70, 0]])
def test_entropy_words_seed_numpy_alike(entropy):
    got = KeyedDraws(entropy_words(entropy)[None, :]).integers(0, 2**32 - 1)[0]
    assert got == np.random.default_rng(entropy).integers(0, 2**32 - 1)


@pytest.mark.parametrize("entropy", [-1, [3, -2]])
def test_negative_entropy_raises_as_numpy_does(entropy):
    with pytest.raises(ValueError):
        np.random.default_rng(entropy)
    with pytest.raises(ValueError):
        entropy_words(entropy)


@pytest.mark.parametrize("lo, hi", [(0, 0), (5, 4), (0, 2**32), (0, 2**32 + 1),
                                    (0, 2**63 + 1), (-2**63 - 1, 0)])
def test_ranges_it_does_not_draw_raise(lo, hi):
    """Empty ranges, and widths of ``2**32`` or more (numpy's full 32-bit
    and 64-bit branches, which no caller draws), raise."""
    with pytest.raises(ValueError):
        KeyedDraws(entropy_words([1, 2])[None, :]).integers(lo, hi)
