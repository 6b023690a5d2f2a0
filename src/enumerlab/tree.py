"""The infinite binary tree, addressed arithmetically.

A node is (level, offset); the children of (k, j) are (k+1, 2j) and
(k+1, 2j+1), where the first child is the 0-branch.  A finite root path is
a bit string read root-first; its endpoint offset is the string's value as
a most-significant-bit-first binary number.  The tree is never materialized
as linked nodes: all structure is index arithmetic.
"""

from __future__ import annotations

from itertools import product, starmap
from typing import Iterator

from .bitseq import BitSeq, prefix
from .budget import check_budget
from .pairing import NodeAddr

__all__ = [
    "children",
    "path_to_addr",
    "addr_to_path",
    "paths_at_depth",
    "prefix_chain",
    "node_count",
]


def children(a: NodeAddr) -> tuple[NodeAddr, NodeAddr]:
    """The 0-branch and 1-branch children of a node."""
    k, j = a.level, a.offset
    return NodeAddr(k + 1, 2 * j), NodeAddr(k + 1, 2 * j + 1)


def path_to_addr(p: str) -> NodeAddr:
    """Endpoint of a finite root path; the empty path ends at the root."""
    if p.strip("01"):
        raise ValueError(f"bit string expected, got {p!r}")
    offset = int(p, 2) if p else 0
    return NodeAddr(len(p), offset)


def addr_to_path(a: NodeAddr) -> str:
    """The unique root path ending at a node; inverse of path_to_addr."""
    if a.level == 0:
        return ""
    return format(a.offset, f"0{a.level}b")


def paths_at_depth(i: int) -> Iterator[str]:
    """All 2^i root paths of length i, in offset order (00..0 first).

    Each path is a high half of ceil(i/2) bits joined to a low half of
    floor(i/2) bits.  Only the two short lists of halves are built; the
    paths come lazily from their product, high half outer, which is offset
    order.  The budget is checked eagerly, before anything is built.
    """
    if i < 1:
        raise ValueError(f"path length must be >= 1, got {i}")
    check_budget(1 << i)
    halves = [list(map("".join, product("01", repeat=n))) for n in (i - i // 2, i // 2)]
    return starmap(str.__add__, product(*halves))


def prefix_chain(s: BitSeq, n: int) -> list[str]:
    """The increasing chain of finite prefixes [b_1, b_1 b_2, ...] of an
    infinite path, up to length n."""
    full = prefix(s, n)
    return [full[:t] for t in range(1, n + 1)]


def node_count(i: int) -> int:
    """Number of non-root nodes of the depth-i truncation:
    2 + 4 + ... + 2^i = 2^(i+1) - 2."""
    if i < 0:
        raise ValueError(f"depth must be >= 0, got {i}")
    return (1 << (i + 1)) - 2
