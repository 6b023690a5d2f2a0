"""Zigzag (boustrophedon) bijection between N and the N x N grid, and the
anti-diagonal projection of binary-tree levels onto that grid.

The walk starts at (0, 0) and visits anti-diagonals of constant sum
d = m + n in alternating direction: even diagonals run from (0, d) down to
(d, 0), odd diagonals run from (d, 0) up to (0, d).  The first seven visited
pairs are (0,0), (1,0), (0,1), (0,2), (1,1), (2,0), (3,0).

Tree level k projects onto the anti-diagonal of sum 2^k - 1: node (k, j)
lands on the grid pair (j, 2^k - 1 - j).

Every query is exact for ints of any size.  On an n-bit input, encoding and
row_label cost one n-bit squaring.  Decoding costs one square root with its
remainder, by Zimmermann's Karatsuba square root (INRIA RR-3805, 1999): a
division of a quarter of the size and a squaring at each halving, and no
squaring of the root after it.  Parity is read from the low bit, never by
division.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import count
from typing import Iterator, NamedTuple

from .budget import check_budget
from .record import Record, _repr_or_hex

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

    def __repr__(self) -> str:
        return f"GridPair(m={_repr_or_hex(self.m)}, n={_repr_or_hex(self.n)})"


# a GridPair from an (m, n) tuple, built in C without the Python-level
# __new__; bound once here, because perfbench's tracer rebinds the module
# name GridPair to a plain function, which tuple.__new__ rejects as a type
_new_pair = partial(tuple.__new__, GridPair)


class NodeAddr(Record):
    """A node of the infinite binary tree: (level, offset), root = (0, 0).
    Equal only to a NodeAddr with the same fields."""

    __slots__ = ("_level", "_offset")

    def __init__(self, level: int, offset: int) -> None:
        if level < 0:
            raise ValueError(f"level must be >= 0, got {_repr_or_hex(level)}")
        if not 0 <= offset < (1 << level):
            raise ValueError(
                f"offset {_repr_or_hex(offset)} out of range for level {_repr_or_hex(level)}"
            )
        self._level, self._offset = level, offset


# inputs of at most this many bits take math.isqrt; above it, where the
# schoolbook division that ends math.isqrt dominates, _sqrtrem recurses
# (the break-even lay between 2048 and 3072 bits on CPython 3.11, x86-64)
_SQRT_BASE_BITS = 2048


def _sqrtrem(n: int) -> tuple[int, int]:
    """(s, n - s*s) with s = isqrt(n), for n >= 0: Zimmermann's Karatsuba
    square root (Brent and Zimmermann, Modern Computer Arithmetic, SqrtRem)."""
    if n.bit_length() <= _SQRT_BASE_BITS:
        s = math.isqrt(n)
        return s, n - s * s
    # n is split into quarters of k bits below a top part n >> 3k; with this
    # k, n has at least 4k - 1 bits, so the top part is at least 2^k / 4 at
    # every bit length: the normalization under which the root of the top
    # half, extended by one division, is at most one too large
    k = n.bit_length() + 1 >> 2
    mask = (1 << k) - 1
    s, r = _sqrtrem(n >> 2 * k)
    q, u = divmod(r << k | n >> k & mask, s << 1)
    s = (s << k) + q
    r = (u << k | n & mask) - q * q
    if r < 0:
        s -= 1
        r += 2 * s + 1
    return s, r


def zigzag_encode(p: GridPair) -> int:
    """0-based position of the pair p along the boustrophedon walk."""
    m, n = p
    if m < 0 or n < 0:
        raise ValueError(
            f"grid coordinates must be >= 0, got ({_repr_or_hex(m)}, {_repr_or_hex(n)})"
        )
    d = m + n
    # triangular(d) = d * (d + 1) // 2 with one squaring: CPython squares
    # only when both operands are the same object
    t = d * d + d >> 1
    return t + n if d & 1 else t + m


def zigzag_decode(i: int) -> GridPair:
    """Inverse of zigzag_encode: the pair at 0-based walk position i."""
    if i < 0:
        raise ValueError(f"walk index must be >= 0, got {_repr_or_hex(i)}")
    # d is the largest diagonal with triangular(d) <= i, and r = i -
    # triangular(d); as 8 * triangular(d) + 1 = (2d + 1)^2, the root s of
    # 8i + 1 is 2d + 1 or 2d + 2, and its remainder gives 8r
    s, rem = _sqrtrem(8 * i + 1)
    if s & 1:
        d, r = s >> 1, rem >> 3
    else:
        d, r = (s >> 1) - 1, rem + 2 * s - 1 >> 3
    if d & 1:
        return GridPair(d - r, r)
    return GridPair(r, d - r)


def zigzag_walk() -> Iterator[GridPair]:
    """The walk itself, one grid pair per step, starting at (0, 0).

    Independent of the closed forms above: it literally traverses each
    anti-diagonal in the alternating direction.  Used as the brute-force
    oracle for the arithmetic in zigzag_encode/zigzag_decode.
    """
    for d in count():
        up, down = range(d + 1), reversed(range(d + 1))
        yield from map(_new_pair, zip(up, down) if d % 2 == 0 else zip(down, up))


def level_pairs(k: int) -> Iterator[GridPair]:
    """The grid pairs of tree level k, in offset order, as a lazy iterator.

    Exactly (0, 2^k - 1), (1, 2^k - 2), ..., (2^k - 1, 0); every pair has
    coordinate sum 2^k - 1.  The budget is checked eagerly, at the call; the
    pairs are made one at a time as they are read, so no level is held.
    """
    if k < 0:
        raise ValueError(f"level must be >= 0, got {_repr_or_hex(k)}")
    size = 1 << k
    check_budget(size)
    return map(_new_pair, zip(range(size), reversed(range(size))))


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
        raise ValueError(
            f"grid coordinates must be >= 0, got ({_repr_or_hex(m)}, {_repr_or_hex(n)})"
        )
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
        raise ValueError(f"row index must be >= 0, got {_repr_or_hex(i)}")
    return zigzag_encode(GridPair(0, i))


def row_labels_by_walk(n_rows: int) -> list[int]:
    """Brute-force oracle for row_label: count walk steps diagonal by
    diagonal, recording the position at which column 0 of each row is hit.

    Deliberately avoids the triangular-number closed form; the only
    arithmetic is step counting along the traversal.
    """
    labels = [-1] * n_rows
    pos = 0
    for d in range(n_rows):
        hit = 0 if d % 2 == 0 else d  # an even diagonal starts at (0, d), an odd one ends there
        for t in range(d + 1):
            if t == hit:
                labels[d] = pos
            pos += 1
    return labels
