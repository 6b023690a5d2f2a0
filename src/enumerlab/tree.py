"""The infinite binary tree, addressed arithmetically.

A node is (level, offset); the children of (k, j) are (k+1, 2j) and
(k+1, 2j+1), where the first child is the 0-branch.  A finite root path is
a bit string read root-first; its endpoint offset is the string's value as
a most-significant-bit-first binary number.  The tree is never materialized
as linked nodes: all structure is index arithmetic.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, cycle, product, repeat
from operator import concat
from typing import Iterator

from .bitseq import BitSeq, prefix
from .budget import check_budget
from .pairing import NodeAddr
from .record import _repr_or_hex

__all__ = [
    "children",
    "path_to_addr",
    "addr_to_path",
    "paths_at_depth",
    "prefix_chain",
    "node_count",
]

# a NodeAddr made without __init__; the class is bound once, at import, for
# the reason pairing._new_pair binds GridPair: the tracer rebinds names
_new_addr = partial(object.__new__, NodeAddr)


def children(a: NodeAddr) -> tuple[NodeAddr, NodeAddr]:
    """The 0-branch and 1-branch children of a node."""
    k, j = a.level, a.offset
    return NodeAddr(k + 1, 2 * j), NodeAddr(k + 1, 2 * j + 1)


def path_to_addr(p: str) -> NodeAddr:
    """Endpoint of a finite root path; the empty path ends at the root."""
    # str.isascii raises TypeError on anything but a str, bytes included; an
    # ASCII digit string has no blank, sign, "_" or "0b" for int to accept,
    # and int rejects the digits 2..9
    if not (str.isascii(p) and (p.isdigit() or not p)):
        raise ValueError(f"bit string expected, got {p!r}")
    a = _new_addr()  # 0 <= int(p, 2) < 2^len(p): what __init__ would check
    try:
        a._level, a._offset = len(p), int(p or "0", 2)
    except ValueError:
        raise ValueError(f"bit string expected, got {p!r}") from None
    return a


def addr_to_path(a: NodeAddr) -> str:
    """The unique root path ending at a node; inverse of path_to_addr."""
    if a.level == 0:
        return ""
    return format(a.offset, f"0{a.level}b")


def paths_at_depth(i: int) -> Iterator[str]:
    """All 2^i root paths of length i, in offset order (00..0 first).

    Each path is a high half of ceil(i/2) bits joined to a low half of
    floor(i/2) bits.  Only the two short lists of halves are built; the
    paths come lazily from operator.concat over each high half repeated
    once per low half and the low halves cycled, high half outer, which is
    offset order.  The budget is checked eagerly, before anything is built.
    """
    if i < 1:
        raise ValueError(f"path length must be >= 1, got {_repr_or_hex(i)}")
    check_budget(1 << i)
    high, low = (list(map("".join, product("01", repeat=n))) for n in (i - i // 2, i // 2))
    return map(concat, chain.from_iterable(map(repeat, high, repeat(len(low)))), cycle(low))


def prefix_chain(s: BitSeq, n: int) -> list[str]:
    """The increasing chain of finite prefixes [b_1, b_1 b_2, ...] of an
    infinite path, up to length n."""
    full = prefix(s, n)
    return [full[:t] for t in range(1, n + 1)]


def node_count(i: int) -> int:
    """Number of non-root nodes of the depth-i truncation:
    2 + 4 + ... + 2^i = 2^(i+1) - 2."""
    if i < 0:
        raise ValueError(f"depth must be >= 0, got {_repr_or_hex(i)}")
    return (1 << (i + 1)) - 2
