"""The exact row sum is math.fsum, bit for bit.

_exact_row_sums sums every path cost and every exact expected cost.  The
bits of each row's result must be the ones math.fsum gives, and a row on
which fsum raises must make the block raise the same error.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from pbpsolve.measure_change import _exact_row_sums


_MIXED = np.array([
    [1.0, -2.5, 1e300, -1e300, 3.0],
    [-0.0, -0.0, -0.0, -0.0, -0.0],
    [5e-324, -1e-323, 2.0**-1022, -(2.0**-1023), 5e-324],
    [1e16, 1.0, -1e16, 1.0, 0.5],
    [0.1, 0.2, 0.3, -0.6, 1e-17],
    [-1e-310, 3e-320, -0.0, 2.0**-1074, 0.0],
])


@pytest.mark.parametrize(
    "x",
    [_MIXED, _MIXED[:1], _MIXED[:, :1], _MIXED.T],
    ids=["block", "one-row", "one-column", "transposed"],
)
def test_blocks_of_mixed_values_sum_as_fsum_bit_for_bit(x):
    want = np.array([math.fsum(row) for row in x.tolist()])
    got = _exact_row_sums(x)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_an_exact_tie_rounds_half_even():
    # 1 + 2^-53 lies exactly halfway between 1 and its successor
    assert _exact_row_sums(np.array([[1.0, 2.0**-53, 0.25, -0.25]])).tolist() == [1.0]


def test_a_near_tie_below_a_power_of_two_rounds_down():
    # 1 - 2^-54 - 2^-200 rounds to the float below 1, not to 1: a sum that
    # dropped the 2^-200 would land on the tie and round to even.
    assert _exact_row_sums(np.array([[1.0, -(2.0**-54), -(2.0**-200)]])).tolist() == [
        1.0 - 2.0**-53
    ]


def test_a_row_whose_fsum_overflows_midway_raises_as_fsum_does():
    # the exact sum is max + 1, but fsum's running sum passes max + max first
    big = sys.float_info.max
    with pytest.raises(OverflowError):
        _exact_row_sums(np.array([[1.0, big, big, -big], [1.0, 2.0, 3.0, 4.0]]))
