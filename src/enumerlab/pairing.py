"""Zigzag (boustrophedon) bijection between N and the N x N grid, and the
anti-diagonal projection of binary-tree levels onto that grid.

The walk starts at (0, 0) and visits anti-diagonals of constant sum
d = m + n in alternating direction: even diagonals run from (0, d) down to
(d, 0), odd diagonals run from (d, 0) up to (0, d).  The first seven visited
pairs are (0,0), (1,0), (0,1), (0,2), (1,1), (2,0), (3,0).

Tree level k projects onto the anti-diagonal of sum 2^k - 1: node (k, j)
lands on the grid pair (j, 2^k - 1 - j).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Iterator, NamedTuple

from .budget import check_budget

__all__ = [
    "GridPair",
    "NodeAddr",
    "zigzag_encode",
    "zigzag_decode",
    "zigzag_walk",
    "level_pairs",
    "node_to_pair",
    "pair_to_node",
    "row_label",
    "row_labels_by_walk",
]


class GridPair(NamedTuple):
    """A point (m, n) of the grid: m is the column, n the row, both >= 0."""

    m: int
    n: int


# a GridPair from an (m, n) tuple, built in C without the Python-level
# __new__; bound once here, because perfbench's tracer rebinds the module
# name GridPair to a plain function, which tuple.__new__ rejects as a type
_new_pair = partial(tuple.__new__, GridPair)


class NodeAddr:
    """A node of the infinite binary tree: (level, offset), root = (0, 0).

    Immutable, and equal only to a NodeAddr with the same fields.  The
    fields are slots written once, through their descriptors, in __init__.
    """

    __slots__ = ("level", "offset")

    def __init__(self, level: int, offset: int) -> None:
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        if not 0 <= offset < (1 << level):
            raise ValueError(f"offset {offset} out of range for level {level}")
        _set_level(self, level)
        _set_offset(self, offset)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.level == other.level and self.offset == other.offset
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.level, self.offset))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(level={self.level!r}, offset={self.offset!r})"

    def __reduce__(self):
        return type(self), (self.level, self.offset)


_set_level = NodeAddr.level.__set__
_set_offset = NodeAddr.offset.__set__


def _triangular(d: int) -> int:
    return d * (d + 1) // 2


def zigzag_encode(p: GridPair) -> int:
    """0-based position of the pair p along the boustrophedon walk."""
    m, n = p
    if m < 0 or n < 0:
        raise ValueError(f"grid coordinates must be >= 0, got ({m}, {n})")
    d = m + n
    t = _triangular(d)
    return t + m if d % 2 == 0 else t + n


def zigzag_decode(i: int) -> GridPair:
    """Inverse of zigzag_encode: the pair at 0-based walk position i."""
    if i < 0:
        raise ValueError(f"walk index must be >= 0, got {i}")
    # d is the largest diagonal with triangular(d) <= i
    d = (math.isqrt(8 * i + 1) - 1) // 2
    r = i - _triangular(d)
    if d % 2 == 0:
        return GridPair(r, d - r)
    return GridPair(d - r, r)


def zigzag_walk() -> Iterator[GridPair]:
    """The walk itself, one grid pair per step, starting at (0, 0).

    Independent of the closed forms above: it literally traverses each
    anti-diagonal in the alternating direction.  Used as the brute-force
    oracle for the arithmetic in zigzag_encode/zigzag_decode.
    """
    d = 0
    while True:
        if d % 2 == 0:
            for m in range(d + 1):
                yield GridPair(m, d - m)
        else:
            for n in range(d + 1):
                yield GridPair(d - n, n)
        d += 1


def level_pairs(k: int) -> list[GridPair]:
    """The grid pairs of tree level k, in offset order.

    Exactly [(0, 2^k - 1), (1, 2^k - 2), ..., (2^k - 1, 0)]; every pair has
    coordinate sum 2^k - 1.
    """
    if k < 0:
        raise ValueError(f"level must be >= 0, got {k}")
    size = 1 << k
    check_budget(size)
    return list(map(_new_pair, zip(range(size), reversed(range(size)))))


def node_to_pair(a: NodeAddr) -> GridPair:
    """Project tree node (k, j) onto the grid pair (j, 2^k - 1 - j)."""
    return GridPair(a.offset, (1 << a.level) - 1 - a.offset)


def pair_to_node(p: GridPair) -> NodeAddr | None:
    """Inverse projection where defined.

    A grid pair lies on the projected tree iff m + n = 2^k - 1 for some k;
    off-tree pairs yield None.
    """
    m, n = p
    if m < 0 or n < 0:
        raise ValueError(f"grid coordinates must be >= 0, got ({m}, {n})")
    s = m + n + 1
    if s & (s - 1) != 0:
        return None
    return NodeAddr(s.bit_length() - 1, m)


def row_label(i: int) -> int:
    """0-based walk position of the first element of grid row i.

    The first element of row i reached by the walk is (0, i), so this is
    zigzag_encode((0, i)): triangular(i) for even i, triangular(i) + i for
    odd i.  The label sequence begins 0, 2, 3, 9, 10, 20, 21.
    """
    if i < 0:
        raise ValueError(f"row index must be >= 0, got {i}")
    return zigzag_encode(GridPair(0, i))


def row_labels_by_walk(n_rows: int) -> list[int]:
    """Brute-force oracle for row_label: count walk steps diagonal by
    diagonal, recording the position at which column 0 of each row is hit.

    Deliberately avoids the triangular-number closed form; the only
    arithmetic is step counting along the traversal.
    """
    labels = [-1] * n_rows
    pos = 0
    d = 0
    while d < n_rows:
        if d % 2 == 0:
            # even diagonal starts at (0, d)
            for m in range(d + 1):
                if m == 0:
                    labels[d] = pos
                pos += 1
        else:
            # odd diagonal ends at (0, d)
            for t in range(d + 1):
                if t == d:
                    labels[d] = pos
                pos += 1
        d += 1
    return labels
