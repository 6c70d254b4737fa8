"""The exact row sum is math.fsum, bit for bit.

_exact_row_sums sums every path cost and every exact expected cost.  The
bits of each row's result (nan payloads included) must be the ones
math.fsum gives, and a row on which fsum raises must make the block raise
the same error.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbpsolve.measure_change import _exact_row_sums

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


# finite values with exponents across 2^-1000 .. 2^1000
spread = st.builds(
    math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-1053, 947)
)
# everything a float can be: subnormals, +0.0 and -0.0, inf, nan, huge values
anything = st.one_of(
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                     2.0**-1022, sys.float_info.max, -sys.float_info.max]),
)
values = st.one_of(spread, anything, st.floats(-1.0, 1.0))


@st.composite
def mirrored(draw):
    """A row of terms followed by their negatives in reverse order, with an
    optional term in the middle and one at the end."""
    half = draw(st.lists(st.one_of(spread, st.floats(-1e3, 1e3)), min_size=1, max_size=20))
    middle = draw(st.lists(values, max_size=1))
    tail = draw(st.lists(spread, max_size=1))
    return half + middle + [-v for v in reversed(half)] + tail


powers_of_two = st.builds(math.ldexp, st.sampled_from([1.0, -1.0]), st.integers(-1000, 1000))


@st.composite
def ties(draw):
    """A row whose exact sum lies exactly half an ulp from a float, a plus
    half its ulp, or a nudge away from that; cancelling pairs mixed in.
    Below a power of two the gap toward zero is the smaller one."""
    a = draw(st.one_of(powers_of_two, spread.filter(lambda v: abs(v) >= 2.0**-1000)))
    sign = draw(st.sampled_from([1.0, -1.0]))
    pairs = draw(st.lists(spread, max_size=6))
    nudges = draw(st.lists(st.builds(lambda k, d: math.ulp(a) * math.ldexp(k, -d),
                                     st.integers(-(2**10), 2**10), st.integers(1, 300)),
                           max_size=1))
    row = [a, sign * math.ulp(a) / 2] + nudges + pairs + [-v for v in pairs]
    return draw(st.permutations(row))


def _fsum_or_error(row):
    try:
        return math.fsum(row), None
    except (OverflowError, ValueError) as exc:
        return None, type(exc)


def _assert_matches_fsum(rows):
    x = np.array(rows, dtype=float).reshape(len(rows), -1)
    expected = [_fsum_or_error(row) for row in x.tolist()]
    errors = [kind for _, kind in expected if kind is not None]
    if errors:
        with pytest.raises(errors[0]):
            _exact_row_sums(x)
        return
    want = np.array([value for value, _ in expected])
    got = _exact_row_sums(x)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@SETTINGS
@given(
    st.integers(1, 5).flatmap(
        lambda width: st.lists(st.lists(values, min_size=width, max_size=width),
                               min_size=1, max_size=6)
    )
)
def test_blocks_of_any_values_sum_as_fsum(rows):
    _assert_matches_fsum(rows)


@SETTINGS
@given(st.lists(values, min_size=1, max_size=60))
def test_one_row_sums_as_fsum(row):
    _assert_matches_fsum([row])


@SETTINGS
@given(st.lists(values, min_size=1, max_size=40))
def test_one_column_sums_as_fsum(column):
    _assert_matches_fsum([[v] for v in column])


@SETTINGS
@given(st.lists(mirrored(), min_size=1, max_size=4))
def test_cancelling_mirror_pairs_sum_as_fsum(rows):
    width = max(len(row) for row in rows)
    _assert_matches_fsum([row + [0.0] * (width - len(row)) for row in rows])


@SETTINGS
@given(st.lists(ties(), min_size=1, max_size=4))
def test_ties_sum_as_fsum(rows):
    width = max(len(row) for row in rows)
    _assert_matches_fsum([row + [-0.0] * (width - len(row)) for row in rows])


@SETTINGS
@given(
    st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True,
                           min_value=-1e-300, max_value=1e-300),
                 min_size=8, max_size=8),
        min_size=1, max_size=4,
    )
)
def test_rows_of_tiny_and_subnormal_terms_sum_as_fsum(rows):
    _assert_matches_fsum(rows)


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
