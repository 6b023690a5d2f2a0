import copy
import itertools
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enumerlab import pairing
from enumerlab.budget import BudgetError
from enumerlab.pairing import (
    GridPair,
    NodeAddr,
    level_pairs,
    node_to_pair,
    pair_to_node,
    row_label,
    row_labels_by_walk,
    zigzag_decode,
    zigzag_encode,
    zigzag_walk,
)

# the seven published walk positions
WALK_TABLE = [(0, 0), (1, 0), (0, 1), (0, 2), (1, 1), (2, 0), (3, 0)]


def test_walk_table():
    for i, (m, n) in enumerate(WALK_TABLE):
        assert zigzag_encode(GridPair(m, n)) == i
        assert zigzag_decode(i) == GridPair(m, n)


def test_encode_matches_brute_force_walk():
    for i, pair in zip(range(10**4), zigzag_walk()):
        assert zigzag_decode(i) == pair
        assert zigzag_encode(pair) == i


def test_derived_examples():
    assert zigzag_encode(GridPair(0, 3)) == 9
    assert zigzag_decode(0) == GridPair(0, 0)
    assert zigzag_decode(9) == GridPair(0, 3)


@given(st.integers(min_value=0, max_value=10**18))
def test_decode_encode_roundtrip(i):
    assert zigzag_encode(zigzag_decode(i)) == i


@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
)
def test_encode_decode_roundtrip(m, n):
    assert zigzag_decode(zigzag_encode(GridPair(m, n))) == GridPair(m, n)


def test_huge_indices_no_overflow():
    p = GridPair(2**64, 2**64 + 1)
    assert zigzag_decode(zigzag_encode(p)) == p


def test_diagonal_completeness():
    for d in range(200):
        lo = d * (d + 1) // 2
        hi = (d + 1) * (d + 2) // 2
        positions = {zigzag_encode(GridPair(m, d - m)) for m in range(d + 1)}
        assert positions == set(range(lo, hi))


def test_level_pairs_published_lists():
    assert list(level_pairs(0)) == [GridPair(0, 0)]
    assert list(level_pairs(1)) == [GridPair(0, 1), GridPair(1, 0)]
    assert list(level_pairs(2)) == [
        GridPair(0, 3),
        GridPair(1, 2),
        GridPair(2, 1),
        GridPair(3, 0),
    ]
    assert [tuple(p) for p in level_pairs(3)] == [
        (0, 7), (1, 6), (2, 5), (3, 4), (4, 3), (5, 2), (6, 1), (7, 0),
    ]


def test_level_pairs_antidiagonal_sum():
    for k in range(8):
        pairs = list(level_pairs(k))
        assert len(pairs) == 2**k
        assert all(p.m + p.n == 2**k - 1 for p in pairs)


def test_level_pairs_match_constructor_calls():
    for k in range(13):
        pairs = list(level_pairs(k))
        assert pairs == [GridPair(j, (1 << k) - 1 - j) for j in range(1 << k)]
        assert all(type(p) is GridPair for p in pairs)


def test_level_pairs_survive_a_wrapped_class(monkeypatch):
    # a tracer may rebind the public name to a function that calls the class
    real = GridPair
    monkeypatch.setattr(pairing, "GridPair", lambda m, n: real(m, n))
    assert list(level_pairs(2)) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert all(type(p) is real for p in level_pairs(2))


def test_level_pairs_is_lazy(monkeypatch):
    tracemalloc.start()
    try:
        pairs = level_pairs(24)
        first = next(pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not isinstance(pairs, list)
    assert iter(pairs) is pairs
    assert first == GridPair(0, 2**24 - 1)
    # 2^24 pairs would take about 1 GB; one pair and the iterators take bytes
    assert peak < 4096
    # the budget is checked at the call, before any pair is made
    monkeypatch.setenv("ENUMERLAB_BUDGET", "32")
    with pytest.raises(BudgetError):
        level_pairs(6)


def test_level_pairs_budget(monkeypatch):
    with pytest.raises(BudgetError):
        level_pairs(30)
    monkeypatch.setenv("ENUMERLAB_BUDGET", "32")
    assert len(list(level_pairs(5))) == 32
    with pytest.raises(BudgetError):
        level_pairs(6)


def test_node_to_pair_examples():
    assert node_to_pair(NodeAddr(0, 0)) == GridPair(0, 0)
    assert node_to_pair(NodeAddr(2, 1)) == GridPair(1, 2)
    assert node_to_pair(NodeAddr(3, 7)) == GridPair(7, 0)


def test_node_addr_invariant():
    with pytest.raises(ValueError):
        NodeAddr(2, 4)
    with pytest.raises(ValueError):
        NodeAddr(-1, 0)


def test_node_addr_error_messages():
    with pytest.raises(ValueError, match=r"^level must be >= 0, got -1$"):
        NodeAddr(-1, 0)
    with pytest.raises(ValueError, match=r"^offset 4 out of range for level 2$"):
        NodeAddr(2, 4)
    with pytest.raises(ValueError, match=r"^offset -1 out of range for level 3$"):
        NodeAddr(3, -1)


def test_node_addr_value_semantics():
    a = NodeAddr(1, 0)
    assert a == NodeAddr(1, 0) and not a != NodeAddr(1, 0)
    assert a != NodeAddr(1, 1) and a != NodeAddr(2, 0)
    # equal only to node addresses: not to a tuple or a grid pair with the
    # same fields
    assert a != (1, 0) and (1, 0) != a
    assert a != GridPair(1, 0)
    assert hash(a) == hash(NodeAddr(1, 0))
    assert len({a, NodeAddr(1, 0), NodeAddr(1, 1)}) == 2
    assert repr(NodeAddr(3, 5)) == "NodeAddr(level=3, offset=5)"
    assert (a.level, a.offset) == (1, 0)
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("field", ["level", "offset"])
def test_node_addr_is_immutable(field):
    a = NodeAddr(2, 3)
    with pytest.raises(AttributeError):
        setattr(a, field, 1)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert (a.level, a.offset) == (2, 3)


def test_pair_to_node():
    assert pair_to_node(GridPair(1, 2)) == NodeAddr(2, 1)
    assert pair_to_node(GridPair(0, 0)) == NodeAddr(0, 0)
    assert pair_to_node(GridPair(1, 1)) is None


def test_pair_to_node_roundtrip():
    for k in range(6):
        for j in range(2**k):
            addr = NodeAddr(k, j)
            assert pair_to_node(node_to_pair(addr)) == addr


def test_level_pairs_are_projected_nodes():
    # every pair of level k is the projection of a node of level k, and
    # pair_to_node recovers that node
    for k in range(8):
        pairs = list(level_pairs(k))
        assert pairs == [node_to_pair(NodeAddr(k, j)) for j in range(2**k)]
        for p in pairs:
            addr = pair_to_node(p)
            assert addr is not None and node_to_pair(addr) == p


def test_projection_injective_and_levels_disjoint():
    seen = {}
    for k in range(13):
        for j in range(2**k):
            p = node_to_pair(NodeAddr(k, j))
            assert p not in seen
            seen[p] = (k, j)


def test_row_label_published_values():
    assert [row_label(i) for i in range(7)] == [0, 2, 3, 9, 10, 20, 21]
    assert row_label(7) == 35


def test_row_label_matches_walk_oracle():
    assert row_labels_by_walk(1000) == [row_label(i) for i in range(1000)]


def triangular_by_product(d):
    return d * (d + 1) // 2


def decode_by_isqrt(i):
    """zigzag_decode as math.isqrt and the product form of triangular(d)."""
    d = (math.isqrt(8 * i + 1) - 1) // 2
    r = i - triangular_by_product(d)
    return GridPair(d - r, r) if d % 2 else GridPair(r, d - r)


def test_decode_matches_the_isqrt_form():
    assert all(zigzag_decode(i) == decode_by_isqrt(i) for i in range(10**5))


@pytest.mark.parametrize("bits", [1 << e for e in range(6, 20)])
def test_big_ints_match_the_product_forms(bits):
    rng = random.Random(bits)
    for _ in range(2):
        drawn = rng.getrandbits(bits) | 1 << (bits - 1)
        for i in (drawn - drawn % 2, drawn - drawn % 2 + 1):
            assert row_label(i) == triangular_by_product(i) + (i if i % 2 else 0)
            p = zigzag_decode(i)
            assert zigzag_encode(p) == i
            d = p.m + p.n
            assert triangular_by_product(d) <= i < triangular_by_product(d + 1)
            assert p == decode_by_isqrt(i)
    # the first and last walk positions of an odd and of an even diagonal
    for d in (drawn >> bits // 2 + 1, (drawn >> bits // 2 + 1) + 1):
        for i in (triangular_by_product(d), triangular_by_product(d + 1) - 1):
            assert zigzag_decode(i) == decode_by_isqrt(i)


def sqrtrem_cases():
    """Bit lengths: small ones, each side of the base-case limit, every
    length mod 4 above it, and the powers of 2 up to 2^19 with their
    neighbours."""
    limit = pairing._SQRT_BASE_BITS
    return sorted(
        {*range(1, 70), *range(limit - 4, limit + 5), *range(4 * limit, 4 * limit + 4)}
        | {(1 << e) + j for e in range(12, 19) for j in range(-1, 3)} | {1 << 19}
    )


@pytest.mark.parametrize("bits", sqrtrem_cases())
def test_sqrtrem_matches_isqrt(bits):
    rng = random.Random(bits)
    drawn = rng.getrandbits(bits) | 1 << (bits - 1)
    s = math.isqrt(drawn)
    cut = max(0, s.bit_length() - 5)
    short = s >> cut << cut
    # a random int, a power of 2 (of 4 at odd lengths), the square of its
    # root and its neighbours s^2 - 1 and s^2 + 2s, the largest with roots
    # s - 1 and s, and short^2 - 1 for the root cut to its top 5 bits, on
    # which a split whose top quarter is below 2^k / 4 needs a second
    # correction
    for n in (drawn, 1 << (bits - 1), s * s, s * s - 1, s * s + 2 * s, short * short - 1):
        root = math.isqrt(n)
        assert pairing._sqrtrem(n) == (root, n - root * root)


def test_decode_keeps_isqrt_within_the_base_case(monkeypatch):
    sizes = []

    def isqrt(n, isqrt=math.isqrt):
        sizes.append(n.bit_length())
        return isqrt(n)

    monkeypatch.setattr(pairing.math, "isqrt", isqrt)
    rng = random.Random(16)
    # 8i + 1 one bit past the limit, and a 2^16-bit i
    for bits in (pairing._SQRT_BASE_BITS - 2, 1 << 16):
        i = rng.getrandbits(bits) | 1 << (bits - 1)
        assert zigzag_encode(zigzag_decode(i)) == i
    assert sizes and max(sizes) <= pairing._SQRT_BASE_BITS


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        zigzag_encode(GridPair(-1, 0))
    with pytest.raises(ValueError):
        zigzag_decode(-1)
    with pytest.raises(ValueError):
        row_label(-1)
