import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enumerlab import pairing, tree
from enumerlab.bitseq import nat_row, ones, zeros
from enumerlab.budget import BudgetError
from enumerlab.pairing import NodeAddr
from enumerlab.tree import (
    addr_to_path,
    children,
    node_count,
    path_to_addr,
    paths_at_depth,
    prefix_chain,
)

bit_strings = st.text(alphabet="01", max_size=12)


def test_children_examples():
    assert children(NodeAddr(0, 0)) == (NodeAddr(1, 0), NodeAddr(1, 1))
    assert children(NodeAddr(1, 1)) == (NodeAddr(2, 2), NodeAddr(2, 3))
    assert children(NodeAddr(2, 3)) == (NodeAddr(3, 6), NodeAddr(3, 7))


def test_path_to_addr_examples():
    assert path_to_addr("") == NodeAddr(0, 0)
    assert path_to_addr("01") == NodeAddr(2, 1)
    assert path_to_addr("111") == NodeAddr(3, 7)


@given(bit_strings)
def test_path_addr_roundtrip(p):
    assert addr_to_path(path_to_addr(p)) == p


@given(bit_strings)
def test_children_path_consistency(p):
    assert children(path_to_addr(p)) == (
        path_to_addr(p + "0"),
        path_to_addr(p + "1"),
    )


def test_paths_at_depth_small():
    assert list(paths_at_depth(1)) == ["0", "1"]
    assert list(paths_at_depth(2)) == ["00", "01", "10", "11"]


def test_paths_at_depth_offset_order():
    # odd and even lengths, and length 1 with its empty low half
    for i in range(1, 15):
        assert list(paths_at_depth(i)) == [format(o, f"0{i}b") for o in range(1 << i)]


def test_path_to_addr_survives_a_wrapped_class(monkeypatch):
    # a tracer may rebind the public name to a function that calls the class
    real = NodeAddr
    monkeypatch.setattr(tree, "NodeAddr", lambda level, offset: real(level, offset))
    monkeypatch.setattr(pairing, "NodeAddr", lambda level, offset: real(level, offset))
    a = path_to_addr("0110")
    assert type(a) is real and a == real(4, 6)
    with pytest.raises(ValueError, match=r"^bit string expected, got '012'$"):
        path_to_addr("012")


def _path_to_addr_by_strip(p):
    """path_to_addr as it read a path with str.strip: the reference."""
    if p.strip("01"):
        raise ValueError(f"bit string expected, got {p!r}")
    return NodeAddr(len(p), int(p, 2) if p else 0)


# pieces int(p, 2) accepts or rejects around a bit string: other digits,
# ASCII and not, blanks, "_", signs and the "0b" prefix
_PATH_PIECES = st.sampled_from(
    ["0", "1", "2", "9", "\u0661", "\uff11", "\u00b2", " ", "\t", "\n", "\u00a0",
     "_", "+", "-", "0b", "0B", ""]
)


@given(st.lists(_PATH_PIECES, max_size=8).map("".join))
def test_path_to_addr_matches_the_strip_check(p):
    try:
        want = _path_to_addr_by_strip(p)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            path_to_addr(p)
    else:
        assert path_to_addr(p) == want


@pytest.mark.parametrize("p", [b"01", b"", bytearray(b"1"), 5, None])
def test_path_to_addr_rejects_what_is_not_a_str(p):
    with pytest.raises(TypeError):
        path_to_addr(p)


def test_paths_at_depth_is_lazy():
    paths = paths_at_depth(20)
    assert not isinstance(paths, list)
    assert iter(paths) is paths
    assert next(paths) == "0" * 20


def test_paths_at_depth_budget_before_halves(monkeypatch):
    built = []
    monkeypatch.setattr(tree, "product", lambda *a, **kw: built.append(a))
    with pytest.raises(BudgetError):
        paths_at_depth(31)
    assert built == []


def test_paths_at_depth_counts():
    seen = set(paths_at_depth(13))
    assert len(seen) == 8192
    assert all(len(p) == 13 for p in seen)


def test_paths_at_depth_validation(monkeypatch):
    with pytest.raises(ValueError):
        paths_at_depth(0)
    with pytest.raises(BudgetError):
        paths_at_depth(31)
    monkeypatch.setenv("ENUMERLAB_BUDGET", "512")
    with pytest.raises(BudgetError):
        paths_at_depth(10)


def test_prefix_chain_examples():
    assert prefix_chain(ones(), 3) == ["1", "11", "111"]
    assert prefix_chain(zeros(), 2) == ["0", "00"]
    assert prefix_chain(nat_row(5), 4) == ["1", "10", "101", "1010"]


def test_prefix_chain_is_increasing():
    chain = prefix_chain(nat_row(173), 16)
    for shorter, longer in zip(chain, chain[1:]):
        assert longer.startswith(shorter)
        assert len(longer) == len(shorter) + 1
    # the union of node sets along the chain is the node set of the last prefix
    nodes = {path_to_addr(p[: t + 1]) for p in chain for t in range(len(p))}
    last = chain[-1]
    assert nodes == {path_to_addr(last[: t + 1]) for t in range(len(last))}


def test_node_count_examples():
    assert node_count(1) == 2
    assert node_count(3) == 14
    assert node_count(10) == 2046
    assert node_count(0) == 0


def test_node_count_matches_summation():
    total = 0
    for i in range(1, 21):
        total += 2**i
        assert node_count(i) == total


def test_counting_identity_by_enumeration():
    total = 0
    for t in range(1, 13):
        total += sum(1 for _ in paths_at_depth(t))
        assert total == node_count(t)


def test_endings_cover_all_levels():
    depth = 9
    endings = {
        path_to_addr(p) for t in range(1, depth + 1) for p in paths_at_depth(t)
    }
    expected = {
        NodeAddr(k, j) for k in range(1, depth + 1) for j in range(2**k)
    }
    assert endings == expected
