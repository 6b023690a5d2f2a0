import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enumerlab.bitseq import (
    PositionError,
    complement,
    dyadic_bounds,
    eq_prefix,
    nat_row,
    ones,
    periodic,
    prefix,
    prepend,
    zeros,
)


def all_constructor_kinds():
    return [
        zeros(),
        ones(),
        periodic("01"),
        periodic("0011"),
        nat_row(6),
        nat_row(0),
        prepend("110", zeros()),
        complement(nat_row(5)),
    ]


def test_bit_at_examples():
    assert ones().bit_at(7) == 1
    assert nat_row(6).bit_at(2) == 1
    assert periodic("01").bit_at(4) == 1


def test_position_zero_error():
    for s in all_constructor_kinds():
        with pytest.raises(PositionError):
            s.bit_at(0)
        with pytest.raises(PositionError):
            s.bit_at(-3)


def test_prefix_examples():
    assert prefix(ones(), 4) == "1111"
    assert prefix(nat_row(6), 4) == "0110"
    assert prefix(zeros(), 0) == ""
    assert prefix(prepend("110", zeros()), 6) == "110000"


def test_complement_examples():
    assert prefix(complement(ones()), 16) == prefix(zeros(), 16)
    assert prefix(complement(periodic("01")), 8) == prefix(periodic("10"), 8)
    assert prefix(complement(nat_row(5)), 3) == "010"


@pytest.mark.parametrize("s", all_constructor_kinds(), ids=lambda s: s.description)
def test_complement_is_involution(s):
    assert prefix(complement(complement(s)), 256) == prefix(s, 256)


def test_dyadic_bounds_examples():
    assert dyadic_bounds(ones(), 3) == (Fraction(7, 8), Fraction(1))
    assert dyadic_bounds(zeros(), 5) == (Fraction(0), Fraction(1, 32))
    assert dyadic_bounds(periodic("01"), 2) == (Fraction(1, 4), Fraction(1, 2))


@pytest.mark.parametrize("s", all_constructor_kinds(), ids=lambda s: s.description)
def test_dyadic_bounds_nesting(s):
    prev = dyadic_bounds(s, 0)
    assert prev == (Fraction(0), Fraction(1))
    for n in range(1, 20):
        lo, hi = dyadic_bounds(s, n)
        assert hi - lo == Fraction(1, 2**n)
        assert prev[0] <= lo and hi <= prev[1]
        prev = (lo, hi)


def test_eq_prefix_examples():
    assert eq_prefix(ones(), ones(), 100) is None
    assert eq_prefix(ones(), nat_row(6), 10) == 1
    assert eq_prefix(periodic("01"), periodic("0011"), 10) == 2


def test_eq_prefix_finds_least_position():
    a = prepend("0000", ones())
    b = prepend("0001", ones())
    assert eq_prefix(a, b, 10) == 4
    assert eq_prefix(a, b, 3) is None


@pytest.mark.parametrize("s", all_constructor_kinds(), ids=lambda s: s.description)
def test_determinism(s):
    rng = random.Random(7)
    positions = [rng.randrange(1, 10**6) for _ in range(1000)]
    first = [s.bit_at(i) for i in positions]
    second = [s.bit_at(i) for i in positions]
    assert first == second
    assert set(first) <= {0, 1}


@given(st.integers(min_value=0, max_value=2**16 - 1))
def test_nat_row_eventually_zero(r):
    s = nat_row(r)
    bound = s.eventually_zero_bound
    assert bound == r.bit_length()
    for i in range(bound + 1, bound + 65):
        assert s.bit_at(i) == 0


def test_support_hint_respected_by_prepend():
    s = prepend("111", nat_row(5))
    assert s.eventually_zero_bound == 6
    for i in range(7, 7 + 64):
        assert s.bit_at(i) == 0


def test_bad_patterns_rejected():
    with pytest.raises(ValueError):
        periodic("")
    with pytest.raises(ValueError):
        periodic("012")
    with pytest.raises(ValueError):
        prepend("2", zeros())
    with pytest.raises(ValueError):
        nat_row(-1)
