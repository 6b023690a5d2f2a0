import copy
import itertools
import pickle

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
    for i, pair in zip(range(2000), zigzag_walk()):
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
    assert level_pairs(0) == [GridPair(0, 0)]
    assert level_pairs(1) == [GridPair(0, 1), GridPair(1, 0)]
    assert level_pairs(2) == [
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
        pairs = level_pairs(k)
        assert len(pairs) == 2**k
        assert all(p.m + p.n == 2**k - 1 for p in pairs)


def test_level_pairs_match_constructor_calls():
    for k in range(13):
        pairs = level_pairs(k)
        assert pairs == [GridPair(j, (1 << k) - 1 - j) for j in range(1 << k)]
        assert all(type(p) is GridPair for p in pairs)


def test_level_pairs_survive_a_wrapped_class(monkeypatch):
    # a tracer may rebind the public name to a function that calls the class
    real = GridPair
    monkeypatch.setattr(pairing, "GridPair", lambda m, n: real(m, n))
    assert level_pairs(2) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert all(type(p) is real for p in level_pairs(2))


def test_level_pairs_budget(monkeypatch):
    with pytest.raises(BudgetError):
        level_pairs(30)
    monkeypatch.setenv("ENUMERLAB_BUDGET", "32")
    assert len(level_pairs(5)) == 32
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
        pairs = level_pairs(k)
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


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        zigzag_encode(GridPair(-1, 0))
    with pytest.raises(ValueError):
        zigzag_decode(-1)
    with pytest.raises(ValueError):
        row_label(-1)
