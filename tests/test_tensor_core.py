"""Tensor primitives: ordered reductions, rng streams."""

import numpy as np
import pytest

from dicegrad import tensor_core as tc
from dicegrad.errors import AxisError


def test_reduce_sum_matches_numpy():
    rng = tc.Rng(3)
    t = rng.normal((2, 3, 4, 5))
    assert abs(float(tc.reduce_sum(t)) - float(t.sum())) < 1e-12
    for axes in [(0,), (1, 3), (0, 1, 2, 3), (2,)]:
        got = tc.reduce_sum(t, axes=axes)
        want = t.sum(axis=axes)
        assert got.shape == want.shape
        assert np.allclose(got, want, atol=1e-12)


def test_reduce_sum_sequential_order():
    # The documented semantics: a single left-to-right accumulation over the
    # reduced axes in row-major order.  Mirror it with a scalar loop.
    rng = tc.Rng(4)
    t = rng.normal((3, 4)) * 1e8 + rng.normal((3, 4))
    acc = 0.0
    for i in range(3):
        for j in range(4):
            acc += t[i, j]
    assert float(tc.reduce_sum(t)) == acc


def test_reduce_sum_axis_validation():
    t = np.zeros((2, 2))
    with pytest.raises(AxisError):
        tc.reduce_sum(t, axes=(2,))
    with pytest.raises(AxisError):
        tc.reduce_sum(t, axes=(-3,))


def test_rng_deterministic_and_splittable():
    a = tc.Rng(7).normal((4,))
    b = tc.Rng(7).normal((4,))
    assert np.array_equal(a, b)
    c1 = tc.Rng(7).child(1).normal((4,))
    c2 = tc.Rng(7).child(2).normal((4,))
    assert not np.array_equal(c1, c2)
    # child streams do not depend on what the parent has drawn
    parent = tc.Rng(7)
    parent.normal((16,))
    assert np.array_equal(parent.child(1).normal((4,)), c1)


def test_rng_zero_std_exact():
    assert np.all(tc.Rng(0).normal((5,), mean=2.5, std=0.0) == 2.5)


def test_rng_integers_range():
    vals = tc.Rng(1).integers(0, 6, (1000,))
    assert vals.min() == 0 and vals.max() == 5
