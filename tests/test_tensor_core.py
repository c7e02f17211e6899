"""The seeded, splittable random streams."""

import numpy as np

from dicegrad import tensor_core as tc


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
