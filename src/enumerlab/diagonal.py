"""The diagonal-complement operator on enumerations of binary sequences,
and the list transforms it interacts with (insert, split, interleave).

An Enumeration is a total deterministic map from a 0-based row index to a
BitSeq.  Both are defined in bitseq, whose walker reads them; each
constructor here checks its arguments and builds one node.  The diagonal
complement x of an enumeration E flips the j-th bit of the j-th listed
sequence: bit j of x is 1 - bit j of row j-1.  Row r and diagonal position
r+1 therefore always pair up; every Certificate records that offset
explicitly, because an off-by-one here silently breaks the construction.

A Certificate is a machine-checkable proof that two sequences differ at a
position; check_certificate revalidates one from nothing but public bit
lookups.
"""

from __future__ import annotations

from .bitseq import BitSeq, Enumeration, _node
from .record import Record, _repr_or_hex

__all__ = [
    "Certificate",
    "constant",
    "antidiagonal",
    "certificates",
    "check_certificate",
    "insert",
    "split",
    "interleave",
]


class Certificate(Record):
    """Row r of an enumeration differs from a candidate sequence at
    `position`: the candidate holds left_bit there, the row holds right_bit.
    For antidiagonal certificates, position = row + 1."""

    __slots__ = ("_row", "_position", "_left_bit", "_right_bit")

    def __init__(self, row: int, position: int, left_bit: int, right_bit: int) -> None:
        if left_bit == right_bit:
            raise ValueError("certificate bits must differ")
        if position < 1:
            raise ValueError(f"positions are 1-based, got {_repr_or_hex(position)}")
        self._row, self._position = row, position
        self._left_bit, self._right_bit = left_bit, right_bit


def constant(s: BitSeq) -> Enumeration:
    """Every row is the same sequence."""
    return _node("const", None, (s,))


def antidiagonal(E: Enumeration) -> BitSeq:
    """The sequence x with bit j = 1 - (bit j of row j-1): differs from
    every row of E at the paired diagonal position."""
    return _node("diagc", None, (E,))


def certificates(E: Enumeration, upto: int) -> list[Certificate]:
    """Disagreement certificates for the diagonal complement of E against
    each of the first `upto` rows.  A row that agrees with the complement
    is an internal fault, a RuntimeError, not a bad argument."""
    if upto < 0:
        raise ValueError(f"row count upto must be >= 0, got {_repr_or_hex(upto)}")
    x = antidiagonal(E)
    out = []
    for r in range(upto):
        pos = r + 1
        left, right = x.bit_at(pos), E.row(r).bit_at(pos)
        if left == right:
            raise RuntimeError(f"diagonal complement agrees with row {r} at position {pos}")
        out.append(Certificate(r, pos, left, right))
    return out


def check_certificate(E: Enumeration, x: BitSeq, cert: Certificate) -> bool:
    """Revalidate a certificate by direct bit lookups only."""
    left = x.bit_at(cert.position)
    right = E.row(cert.row).bit_at(cert.position)
    return left == cert.left_bit and right == cert.right_bit and left != right


def insert(E: Enumeration, k: int, s: BitSeq) -> Enumeration:
    """Insert s at row k, shifting rows k and beyond down by one."""
    return _node("insert", k, (E, s))


def split(E: Enumeration) -> tuple[Enumeration, Enumeration]:
    """Separate even-indexed and odd-indexed rows into two reindexed
    enumerations: (i -> row 2i, i -> row 2i+1)."""
    return _node("spliteven", None, (E,)), _node("splitodd", None, (E,))


def interleave(Ea: Enumeration, Eb: Enumeration) -> Enumeration:
    """Inverse of split: row 2i comes from Ea, row 2i+1 from Eb."""
    return _node("interleave", None, (Ea, Eb))
