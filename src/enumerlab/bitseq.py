"""Total, lazily evaluated infinite binary sequences.

A BitSeq is a deterministic total rule mapping a 1-based position to a bit.
Finite bit strings are plain Python strings over the alphabet {'0', '1'};
that keeps them hashable and trivially comparable, which the coverage tests
rely on.

Sequence equality is undecidable in general, so no equality operation is
offered; only prefix comparison (eq_prefix).  The double representation of
dyadic rationals (0.0111... = 0.1000...) is NOT identified: values live in
sequence space {0,1}^N, where every sequence is a distinct object.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

__all__ = [
    "BitSeq",
    "PositionError",
    "zeros",
    "ones",
    "periodic",
    "nat_row",
    "prepend",
    "complement",
    "prefix",
    "dyadic_bounds",
    "eq_prefix",
]


class PositionError(ValueError):
    """Sequence positions are 1-based; position 0 (or below) is invalid."""


class BitSeq:
    """An infinite binary sequence b_1 b_2 b_3 ...

    `rule` maps a 1-based position to 0 or 1 and must be deterministic and
    total.  `eventually_zero_bound`, when set, asserts that every position
    beyond the bound is 0 (finite support).
    """

    __slots__ = ("_rule", "eventually_zero_bound", "description")

    def __init__(
        self,
        rule: Callable[[int], int],
        *,
        eventually_zero_bound: int | None = None,
        description: str = "bitseq",
    ):
        self._rule = rule
        self.eventually_zero_bound = eventually_zero_bound
        self.description = description

    def bit_at(self, i: int) -> int:
        if i < 1:
            raise PositionError(f"positions are 1-based, got {i}")
        return self._rule(i)

    def __repr__(self) -> str:
        return f"BitSeq({self.description})"


def zeros() -> BitSeq:
    return BitSeq(lambda i: 0, eventually_zero_bound=0, description="zeros")


def ones() -> BitSeq:
    return BitSeq(lambda i: 1, description="ones")


def periodic(pattern: str) -> BitSeq:
    """Repeat a finite nonempty bit pattern forever: periodic("01") = 0101..."""
    if not pattern or set(pattern) - {"0", "1"}:
        raise ValueError(f"pattern must be a nonempty bit string, got {pattern!r}")
    bits = tuple(int(ch) for ch in pattern)
    n = len(bits)
    return BitSeq(
        lambda i: bits[(i - 1) % n], description=f"periodic({pattern})"
    )


def nat_row(r: int) -> BitSeq:
    """The binary expansion of the natural r, least-significant bit first,
    padded with zeros: nat_row(6) = 0 1 1 0 0 0 ...
    """
    if r < 0:
        raise ValueError(f"natural expected, got {r}")
    return BitSeq(
        lambda i: (r >> (i - 1)) & 1,
        eventually_zero_bound=r.bit_length(),
        description=f"nat_row({r})",
    )


def prepend(bits: str, s: BitSeq) -> BitSeq:
    """Prefix a finite bit string onto a sequence."""
    if set(bits) - {"0", "1"}:
        raise ValueError(f"bit string expected, got {bits!r}")
    head = tuple(int(ch) for ch in bits)
    n = len(head)
    bound = None
    if s.eventually_zero_bound is not None:
        bound = s.eventually_zero_bound + n
    return BitSeq(
        lambda i: head[i - 1] if i <= n else s.bit_at(i - n),
        eventually_zero_bound=bound,
        description=f"prepend({bits}, {s.description})",
    )


def complement(s: BitSeq) -> BitSeq:
    """Flip every bit: the binary instantiation of "differs everywhere"."""
    return BitSeq(
        lambda i: 1 - s.bit_at(i), description=f"complement({s.description})"
    )


def prefix(s: BitSeq, n: int) -> str:
    """Bits 1..n as a string; prefix(s, 0) is empty."""
    if n < 0:
        raise ValueError(f"prefix length must be >= 0, got {n}")
    return "".join("1" if s.bit_at(i) else "0" for i in range(1, n + 1))


def dyadic_bounds(s: BitSeq, n: int) -> tuple[Fraction, Fraction]:
    """Exact rational interval [L, L + 2^-n] bracketing the value
    sum_i b_i * 2^-i after reading n bits.
    """
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    numerator = 0
    for i in range(1, n + 1):
        numerator = (numerator << 1) | s.bit_at(i)
    low = Fraction(numerator, 1 << n)
    return low, low + Fraction(1, 1 << n)


def eq_prefix(a: BitSeq, b: BitSeq, n: int) -> int | None:
    """Least position i <= n where a and b differ, or None if the length-n
    prefixes agree."""
    for i in range(1, n + 1):
        if a.bit_at(i) != b.bit_at(i):
            return i
    return None
