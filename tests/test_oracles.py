"""The test-only oracles' own behaviour: isomorphic's search and its
argument checks."""
import numpy as np
import pytest

from oracles import SizeLimitExceeded, isomorphic
from sgt.core import RangeError, direct_product
from sgt.library import cyclic, rectangular_band, t2, trivial


def test_isomorphic_identity():
    s = t2()
    assert isomorphic(s, s, 8) == (0, 1, 2, 3)


def test_isomorphic_z4_vs_klein():
    z4 = cyclic(4)
    klein = direct_product(cyclic(2), cyclic(2))
    assert isomorphic(z4, klein, 8) is None


def test_isomorphic_rees_vs_band():
    from sgt.structure import rees_construct, rees_structure
    r = rees_structure(trivial(), 2, 2, [[0, 0], [0, 0]], with_zero=False)
    bij = isomorphic(rees_construct(r), rectangular_band(2, 2), 8)
    assert bij is not None
    s, t = rees_construct(r), rectangular_band(2, 2)
    for a in range(4):
        for b in range(4):
            assert bij[s.table[a][b]] == t.table[bij[a]][bij[b]]


def test_isomorphic_size_limit():
    with pytest.raises(SizeLimitExceeded):
        isomorphic(cyclic(9), cyclic(9), 8)
    assert isomorphic(cyclic(3), cyclic(4), 8) is None


@pytest.mark.parametrize("size_limit", [2.5, -1, True, "8"])
def test_isomorphic_rejects_a_bad_size_limit(size_limit):
    with pytest.raises(RangeError):
        isomorphic(cyclic(3), cyclic(3), size_limit)


def test_isomorphic_accepts_a_numpy_size_limit():
    assert isomorphic(cyclic(3), cyclic(3), np.int64(3)) == (0, 1, 2)
    with pytest.raises(SizeLimitExceeded):
        isomorphic(cyclic(3), cyclic(3), np.int32(2))
