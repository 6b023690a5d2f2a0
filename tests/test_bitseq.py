import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumerlab import diagonal, listmatrix
from enumerlab.bitseq import (
    BitSeq,
    Enumeration,
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
        with pytest.raises(PositionError):
            s.block(0, 4)


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


@pytest.mark.parametrize("n", [0, 1, 64, 2048])
@pytest.mark.parametrize("s", [zeros(), ones(), periodic("011")], ids=lambda s: s.description)
def test_dyadic_bounds_upper_end_is_one_step_above_the_lower(s, n):
    # the upper end is built as Fraction(numerator + 1, 2^n), with no
    # Fraction addition; it equals the lower end plus 2^-n
    low = Fraction(int(prefix(s, n), 2) if n else 0, 1 << n)
    assert dyadic_bounds(s, n) == (low, low + Fraction(1, 1 << n))


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


def test_rule_bound_carried_through_prepend():
    s = BitSeq(lambda i: int(i == 5), eventually_zero_bound=5)
    assert prepend("1", s).eventually_zero_bound == 6


def test_support_bound_is_read_only():
    s = nat_row(5)
    with pytest.raises(AttributeError):
        s.eventually_zero_bound = 7
    assert s.eventually_zero_bound == 3


def test_bad_patterns_rejected():
    with pytest.raises(ValueError):
        periodic("")
    with pytest.raises(ValueError):
        periodic("012")
    with pytest.raises(ValueError):
        prepend("2", zeros())
    with pytest.raises(ValueError):
        nat_row(-1)


# ---------------------------------------------------------------- block


def per_bit_block(s, start, n):
    """Independent packer: bits start..start+n-1 of s, one bit_at each,
    least-significant bit first."""
    out = 0
    for k in range(n):
        out |= s.bit_at(start + k) << k
    return out


bit_strings = st.text(alphabet="01", max_size=12)
leaves = st.one_of(
    st.just(zeros()),
    st.just(ones()),
    bit_strings.filter(bool).map(periodic),
    st.integers(min_value=0, max_value=2**200).map(nat_row),
)
sequences = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.builds(prepend, bit_strings, inner),
        inner.map(complement),
    ),
    max_leaves=6,
)
starts = st.integers(min_value=1, max_value=300)
lengths = st.integers(min_value=0, max_value=300)


@given(sequences, starts, lengths)
def test_block_matches_per_bit_packing(s, start, n):
    assert s.block(start, n) == per_bit_block(s, start, n)


@given(st.integers(min_value=10**4300, max_value=10**4400), starts, lengths)
def test_nat_row_beyond_decimal_digit_limit(r, start, n):
    s = nat_row(r)
    assert s.eventually_zero_bound == r.bit_length()
    assert s.block(start, n) == per_bit_block(s, start, n)
    lsb_first = bin(r)[2:][::-1]
    assert prefix(s, n) == lsb_first[:n].ljust(n, "0")


@pytest.mark.parametrize(
    "build, shape",
    [
        (lambda s: repr(s), "BitSeq(nat_row({}))"),
        (lambda s: diagonal.constant(s).description, "constant(nat_row({}))"),
        (lambda s: prepend("01", s).description, "prepend(01, nat_row({}))"),
        (lambda s: complement(s).description, "complement(nat_row({}))"),
    ],
    ids=["repr", "constant", "prepend", "complement"],
)
def test_nat_row_description_decimal_then_hex(build, shape):
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("no int-to-str digit limit in this interpreter")
    widest = 10**limit - 1  # the most digits the interpreter converts
    assert build(nat_row(widest)) == shape.format("9" * limit)
    assert build(nat_row(widest + 1)) == shape.format(hex(widest + 1))


@given(sequences, starts, st.integers(min_value=0, max_value=80))
def test_antidiagonal_fallback_block(s, start, n):
    for E in (
        listmatrix.matrix_enumeration(),
        diagonal.constant(s),
        diagonal.insert(listmatrix.matrix_enumeration(), 2, s),
    ):
        x = diagonal.antidiagonal(E)
        assert x.block(start, n) == per_bit_block(x, start, n)


def mod29_row(r):
    return periodic(format(r % 29 + 1, "b"))


# enumerations over every enumeration operator, whose sequences may hold
# antidiagonals of their own; a row of the user rule varies at every position
matrix = listmatrix.matrix_enumeration()
rule_enumeration = Enumeration(mod29_row, "mod29")
nested_sequences = st.deferred(
    lambda: st.one_of(
        leaves,
        st.builds(prepend, bit_strings, nested_sequences),
        nested_sequences.map(complement),
        enumerations.map(diagonal.antidiagonal),
    )
)
enumerations = st.deferred(
    lambda: st.one_of(
        st.just(matrix),
        st.just(rule_enumeration),
        nested_sequences.map(diagonal.constant),
        st.builds(diagonal.interleave, enumerations, enumerations),
        enumerations.map(lambda E: diagonal.split(E)[0]),
        enumerations.map(lambda E: diagonal.split(E)[1]),
        st.builds(diagonal.insert, enumerations, st.integers(0, 400), nested_sequences),
    )
)
far_starts = st.one_of(starts, st.integers(min_value=1, max_value=2**70))


@settings(max_examples=300, deadline=None)
@given(enumerations, bit_strings, far_starts, lengths)
# rows whose top bit is the position read; odd positions of a periodic
# row; an inserted row read at its own position, as the last row
@example(diagonal.split(diagonal.split(matrix)[0])[0], "", 1, 4)
@example(diagonal.interleave(diagonal.constant(periodic("0010")), matrix), "", 1, 64)
@example(diagonal.insert(matrix, 5, ones()), "", 1, 6)
def test_antidiagonal_block_matches_per_bit_reads(E, head, start, n):
    x = diagonal.antidiagonal(E)
    for s in (x, complement(prepend(head, x))):
        assert s.block(start, n) == per_bit_block(s, start, n)


@given(far_starts, lengths)
def test_antidiagonal_block_calls_user_rules_once_per_bit(start, n):
    rows, positions = [], []
    E = Enumeration(lambda r: rows.append(r) or nat_row(r))
    diagonal.antidiagonal(E).block(start, n)
    assert sorted(rows) == list(range(start - 1, start + n - 1))
    s = BitSeq(lambda i: positions.append(i) or i & 1)
    diagonal.antidiagonal(diagonal.constant(s)).block(start, n)
    assert sorted(positions) == list(range(start, start + n))


# Each enumeration below is built by library calls next to its row
# function, worked out from the operators' definitions: spliteven's row r is
# row 2r, splitodd's row 2r + 1, interleave's row r is row r >> 1 of child
# r & 1, insert(E, k, s) lists s at row k and E's row r - 1 above it.  The
# row function returns a leaf (nat_row, a periodic or a rule's row), whose
# blocks go through neither walk under test.
inserted = periodic("110")
below_split_runs = {
    "figure5": (matrix, nat_row),
    "const": (diagonal.constant(inserted), lambda r: inserted),
    "rule": (rule_enumeration, mod29_row),
    "interleave": (
        diagonal.interleave(matrix, rule_enumeration),
        lambda r: mod29_row(r >> 1) if r & 1 else nat_row(r >> 1),
    ),
    "insert": (
        diagonal.insert(matrix, 5, inserted),
        lambda r: inserted if r == 5 else nat_row(r - (r > 5)),
    ),
}


def split_run(E, row, odd_bits):
    """spliteven/splitodd applied to E once per bit of odd_bits, the last
    one outermost, with the row function of the result."""
    for odd in odd_bits:
        E = diagonal.split(E)[odd]
        row = (lambda row, odd: lambda r: row(2 * r + odd))(row, odd)
    return E, row


def antidiagonal_by_definition(row, start, n):
    """Bit i of the antidiagonal is the complement of bit i of row i - 1."""
    return sum((1 - row(p - 1).bit_at(p)) << k for k, p in enumerate(range(start, start + n)))


split_bits = st.lists(st.integers(0, 1), min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(below_split_runs)),
    split_bits,
    st.one_of(st.just([]), split_bits),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=0, max_value=80),
    st.integers(min_value=0, max_value=2**70),
)
def test_split_runs_match_the_operator_definitions(below, odd_bits, upper_bits, start, n, r):
    E, row = split_run(*below_split_runs[below], odd_bits)
    # an interleave between two runs takes the run below as its second child
    if upper_bits:
        lower = row
        E, row = split_run(
            diagonal.interleave(rule_enumeration, E),
            lambda r: lower(r >> 1) if r & 1 else mod29_row(r >> 1),
            upper_bits,
        )
    for k in (0, 1, r):
        assert E.row(k).block(1, 72) == row(k).block(1, 72)
    assert diagonal.antidiagonal(E).block(start, n) == antidiagonal_by_definition(row, start, n)


@pytest.mark.parametrize("value", [-1, -2, 2, 255, 256, "1", 0.5, None])
@pytest.mark.parametrize(
    "read",
    [
        lambda s: s.bit_at(3),
        lambda s: s.block(1, 5),
        lambda s: diagonal.antidiagonal(diagonal.constant(s)).block(1, 5),
    ],
    ids=["bit_at", "block", "antidiagonal-block"],
)
def test_rule_value_other_than_a_bit_rejected(value, read):
    s = BitSeq(lambda i: value if i == 3 else 1)
    with pytest.raises(ValueError, match=rf"position 3 must be 0 or 1, got {re.escape(repr(value))}$"):
        read(s)


def test_rule_bools_are_bits():
    s = BitSeq(lambda i: i % 3 == 0)
    assert prefix(s, 6) == "001001"
    assert diagonal.antidiagonal(diagonal.constant(s)).block(1, 6) == 0b011011


@pytest.mark.parametrize(
    "read",
    [
        lambda E: E.row(4),
        lambda E: diagonal.antidiagonal(E).bit_at(5),
        lambda E: diagonal.antidiagonal(E).block(1, 8),
    ],
    ids=["row", "antidiagonal-bit", "antidiagonal-block"],
)
def test_rule_row_other_than_a_bitseq_rejected(read):
    E = Enumeration(lambda r: 5 if r == 4 else ones())
    with pytest.raises(TypeError, match=r"^row 4 is int, not BitSeq$"):
        read(E)


@given(sequences, lengths)
def test_prefix_and_dyadic_bounds_per_bit(s, n):
    bits = [s.bit_at(i) for i in range(1, n + 1)]
    assert prefix(s, n) == "".join(map(str, bits))
    low = sum(Fraction(b, 2**i) for i, b in enumerate(bits, start=1))
    assert dyadic_bounds(s, n) == (low, low + Fraction(1, 2**n))


@given(sequences, st.integers(min_value=0, max_value=2100))
@example(zeros(), 1)
@example(zeros(), 2048)
@example(ones(), 1)
@example(ones(), 64)
@example(ones(), 2048)
@example(nat_row(6), 2048)
def test_prefix_matches_zero_padded_format(s, n):
    # the spelling prefix had before: pad the block to n bits, then reverse
    assert prefix(s, n) == (format(s.block(1, n), f"0{n}b")[::-1] if n else "")


@given(bit_strings, sequences, sequences, st.integers(min_value=0, max_value=400))
def test_eq_prefix_per_bit(common, a, b, n):
    a, b = prepend(common, a), prepend(common, b)
    first = next(
        (i for i in range(1, n + 1) if a.bit_at(i) != b.bit_at(i)), None
    )
    assert eq_prefix(a, b, n) == first


positions = st.integers(min_value=1, max_value=5000)


def counting_pair(p):
    """Two fallback sequences that differ first at position p, and the
    number of bits each has been asked for."""
    reads = [0, 0]

    def rule(side):
        def bit(i):
            reads[side] += 1
            return side if i == p else 0

        return bit

    return BitSeq(rule(0)), BitSeq(rule(1)), reads


@given(positions, st.integers(min_value=0, max_value=5000))
def test_eq_prefix_reads_at_most_twice_the_difference_position(p, extra):
    a, b, reads = counting_pair(p)
    assert eq_prefix(a, b, p + extra) == p
    assert reads[0] == reads[1] <= 2 * max(p, 64)


@given(positions, st.integers(min_value=0, max_value=5000))
def test_eq_prefix_reads_nothing_past_n(n, beyond):
    a, b, reads = counting_pair(n + 1 + beyond)
    assert eq_prefix(a, b, n) is None
    assert reads == [n, n]


def test_eq_prefix_rejects_negative_length():
    with pytest.raises(ValueError, match=r"\bn must be >= 0, got -1"):
        eq_prefix(ones(), zeros(), -1)
