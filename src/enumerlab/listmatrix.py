"""The truth-table matrix: row r is the binary expansion of r, least
significant bit first.

entry(r, c) = bit c of r, so down any column c the entries follow the
period-2^(c+1) pattern of 2^c zeros then 2^c ones.  The 2^i-by-i top-left
submatrix lists every length-i bit string exactly once; that makes the
matrix a candidate "complete list" of infinite paths, and also the canonical
counterexample: every row has finite support, so no row is an
infinite-support sequence and the diagonal complement of the matrix is the
all-ones sequence.

The matrix is a pure rule; no view is ever materialized beyond what a
caller enumerates.
"""

from __future__ import annotations

from .bitseq import Enumeration, _node, nat_row, prefix
from .budget import check_budget
from .record import _repr_or_hex

__all__ = [
    "entry",
    "matrix_enumeration",
    "submatrix_rows",
]


def entry(r: int, c: int) -> int:
    """Bit c of row r: floor(r / 2^c) mod 2."""
    if r < 0 or c < 0:
        raise ValueError(
            f"matrix indices must be >= 0, got ({_repr_or_hex(r)}, {_repr_or_hex(c)})"
        )
    return (r >> c) & 1


def matrix_enumeration() -> Enumeration:
    """The matrix as an enumeration: row r is nat_row(r), so bit i
    (1-based) of row r is entry(r, i-1), with no 1 past position
    bitlen(r)."""
    return _node("figure5")


def submatrix_rows(i: int) -> set[str]:
    """The set of length-i prefixes of the first 2^i rows.

    Contract: equals the full set of length-i bit strings, each occurring
    exactly once (checked by test_acceptance::test_submatrix_coverage and
    tests/test_listmatrix.py; the audit's claim C8 checks the same property
    from nat_row blocks, without this function).
    """
    if i < 1:
        raise ValueError(f"submatrix width must be >= 1, got {_repr_or_hex(i)}")
    check_budget(1 << i)
    return {prefix(nat_row(r), i) for r in range(1 << i)}
