import numpy as np
import pytest

from framedisc import InvalidParameterError
from framedisc.rng import make_rng


def test_same_seed_same_stream():
    a = make_rng(123).standard_normal(10)
    b = make_rng(123).standard_normal(10)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = make_rng(1).standard_normal(10)
    b = make_rng(2).standard_normal(10)
    assert not np.array_equal(a, b)


def test_seed_range_enforced():
    make_rng(0)
    make_rng(2**64 - 1)
    with pytest.raises(InvalidParameterError):
        make_rng(-1)
    with pytest.raises(InvalidParameterError):
        make_rng(2**64)
