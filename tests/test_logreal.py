import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from indtrees.logreal import _BLOCK, LogReal, log_sum_exp, pow_log
from oracles import log_sum_exp_one_sum

finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
positive = st.floats(min_value=1e-300, max_value=1e300)


def test_zero_and_one():
    assert LogReal(-math.inf).to_float() == 0.0
    assert LogReal(0.0).to_float() == 1.0


def test_from_float_round_trip():
    for x in (1.0, 2.5, 1e300, 1e-300, 123456.789):
        assert LogReal(math.log(x)).to_float() == pytest.approx(x, rel=1e-13)


def test_huge_values_stay_finite_in_log_domain():
    big = LogReal(2e6)  # e**2e6 overflows floats
    assert big.logmag == 2e6
    assert big.to_float() == math.inf  # only the conversion saturates


# log_sum_exp is the log-domain addition every variance-bound sum goes through


@given(finite, finite)
def test_add_commutative(a, b):
    assert log_sum_exp([a, b]) == log_sum_exp([b, a])


@given(positive, positive)
def test_add_monotone(a, b):
    s = log_sum_exp([math.log(a), math.log(b)])
    assert s >= math.log(a)
    assert s >= math.log(b)


@given(
    st.floats(min_value=1e-100, max_value=1e100),
    st.floats(min_value=1e-100, max_value=1e100),
)
def test_add_matches_float(a, b):
    got = math.exp(log_sum_exp([math.log(a), math.log(b)]))
    assert got == pytest.approx(a + b, rel=1e-12)


def test_log_sum_exp():
    assert log_sum_exp([]) == -math.inf
    assert log_sum_exp([-math.inf]) == -math.inf
    assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2))
    # huge terms must not overflow
    assert log_sum_exp([1e6, 1e6]) == pytest.approx(1e6 + math.log(2))


@pytest.mark.parametrize("size", [1, 2, 1023, 1024, 1025, 5000])
def test_log_sum_exp_is_one_sum_in_order(size):
    # the bits of the formula as a plain generator over a list, whether the
    # values come as a list, an array or an iterator, across block edges;
    # with max 0 the result is ln(sum) itself, so the summation order shows
    xs = [0.0] + (-np.random.default_rng(size).random(size - 1)).tolist()
    m = max(xs)
    want = m + math.log(sum(math.exp(x - m) for x in xs))
    assert log_sum_exp(xs) == want
    assert log_sum_exp(np.array(xs)) == want
    assert log_sum_exp(iter(xs)) == want
    assert type(log_sum_exp(np.array(xs))) is float


# offsets x - m from the maximum m: math.exp gives a normal float, a
# subnormal (at -744 and -745.1) or exactly 0.0 (from -745.2 on)
EDGE_OFFSETS = [-700.0, -744.0, -745.1, -745.2, -746.0, -1e4, -math.inf]


@pytest.mark.parametrize("where", ["first", "last", "random"])
@pytest.mark.parametrize("size", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 5000])
def test_log_sum_exp_matches_one_sum_oracle(size, where):
    # the skipped underflowed terms must not change a bit of the plain sum,
    # also when the maximum comes last and subnormal terms sum up before it
    rng = np.random.default_rng(size)
    m = 3.7  # x - m is rounded, as in a variance bound
    offsets = np.where(
        rng.random(size) < 0.5, rng.choice(EDGE_OFFSETS, size), -40 * rng.random(size)
    )
    edges = [i for i in (_BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK) if i < size]
    offsets[edges] = rng.choice(EDGE_OFFSETS, len(edges))
    top = {"first": 0, "last": size - 1, "random": int(rng.integers(size))}[where]
    offsets[top] = 0.0
    xs = (m + offsets).tolist()
    want = log_sum_exp_one_sum(xs).hex()
    assert log_sum_exp(xs).hex() == want
    assert log_sum_exp(np.array(xs)).hex() == want
    assert log_sum_exp(iter(xs)).hex() == want


def test_log_sum_exp_infinite_and_nan_inputs():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy RuntimeWarning
        assert log_sum_exp([math.inf, 1.0]) == math.inf
        assert log_sum_exp([math.inf]) == math.inf
        assert log_sum_exp(np.array([1.0, math.inf, -math.inf])) == math.inf
        assert math.isnan(log_sum_exp([1.0, math.nan]))
        assert math.isnan(log_sum_exp([math.inf, math.nan]))
        assert math.isnan(log_sum_exp(np.array([math.nan, -math.inf])))
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf


def test_pow_conventions():
    assert pow_log(0.0, 0.0) == 0.0  # 0**0 == 1
    assert pow_log(0.0, 2.0) == -math.inf  # 0**2 == 0
    with pytest.raises(ZeroDivisionError):
        pow_log(0.0, -1.0)


def test_pow_log():
    with pytest.raises(ValueError):
        pow_log(-1.0, 2.0)
    assert pow_log(2.0, 10.0) == pytest.approx(10 * math.log(2))
    assert pow_log(1.5, 0.0) == 0.0
