"""Total, lazily evaluated infinite binary sequences.

A BitSeq is a deterministic total rule mapping a 1-based position to a bit.
Finite bit strings are plain Python strings over the alphabet {'0', '1'};
that keeps them hashable and trivially comparable, which the coverage tests
rely on.

Every multi-bit read goes through one accessor, BitSeq.block(start, n),
which packs bits start..start+n-1 into an int least-significant-bit first:
sequence bit start+k is int bit k, the bit order of the truth-table matrix.
A constructor may give a native block rule; without one, block packs the
per-bit rule.

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


def _bits_to_int(bits: str) -> int:
    """Pack a bit string least-significant-bit first: bits[k] is int bit k."""
    return int(bits[::-1], 2) if bits else 0


class BitSeq:
    """An infinite binary sequence b_1 b_2 b_3 ...

    `rule` maps a 1-based position to 0 or 1 and must be deterministic and
    total.  `block`, when given, maps (start, n) to bits start..start+n-1
    packed least-significant-bit first and must agree with `rule`.
    `eventually_zero_bound`, when set, asserts that every position beyond
    the bound is 0 (finite support).  `description` is a string or a
    zero-argument callable returning one, so that a description costing a
    decimal conversion is only built when it is read.
    """

    __slots__ = ("_rule", "_block", "eventually_zero_bound", "_description")

    def __init__(
        self,
        rule: Callable[[int], int],
        block: Callable[[int, int], int] | None = None,
        eventually_zero_bound: int | None = None,
        description: str | Callable[[], str] = "bitseq",
    ):
        self._rule = rule
        self._block = block
        self.eventually_zero_bound = eventually_zero_bound
        self._description = description

    @property
    def description(self) -> str:
        d = self._description
        return d if isinstance(d, str) else d()

    def bit_at(self, i: int) -> int:
        if i < 1:
            raise PositionError(f"positions are 1-based, got {i}")
        return self._rule(i)

    def block(self, start: int, n: int) -> int:
        """Bits start..start+n-1 as an int, bit start+k at int bit k."""
        if start < 1:
            raise PositionError(f"positions are 1-based, got {start}")
        if n < 0:
            raise ValueError(f"block length must be >= 0, got {n}")
        if self._block is not None:
            return self._block(start, n)
        # map calls the rule with no generator frame in between, so a deep
        # chain of fallback sequences recurses no deeper than through bit_at
        bits = map(self._rule, range(start, start + n))
        return _bits_to_int("".join(map("01".__getitem__, bits)))

    def __repr__(self) -> str:
        return f"BitSeq({self.description})"


def zeros() -> BitSeq:
    return BitSeq(
        lambda i: 0,
        block=lambda start, n: 0,
        eventually_zero_bound=0,
        description="zeros",
    )


def ones() -> BitSeq:
    return BitSeq(
        lambda i: 1, block=lambda start, n: (1 << n) - 1, description="ones"
    )


def periodic(pattern: str) -> BitSeq:
    """Repeat a finite nonempty bit pattern forever: periodic("01") = 0101..."""
    if not pattern or set(pattern) - {"0", "1"}:
        raise ValueError(f"pattern must be a nonempty bit string, got {pattern!r}")
    bits = tuple(int(ch) for ch in pattern)
    p = len(bits)

    def block(start: int, n: int) -> int:
        o = (start - 1) % p
        return _bits_to_int((pattern * ((o + n) // p + 1))[o : o + n])

    return BitSeq(
        lambda i: bits[(i - 1) % p], block=block, description=f"periodic({pattern})"
    )


def _decimal_or_hex(r: int) -> str:
    """r in decimal, or in hex when it has more decimal digits than the
    interpreter converts (sys.get_int_max_str_digits())."""
    try:
        return str(r)
    except ValueError:
        return hex(r)


def nat_row(r: int) -> BitSeq:
    """The binary expansion of the natural r, least-significant bit first,
    padded with zeros: nat_row(6) = 0 1 1 0 0 0 ...
    """
    if r < 0:
        raise ValueError(f"natural expected, got {_decimal_or_hex(r)}")
    # positional: a class call with keywords builds a dict, and a diagonal
    # read over the matrix builds one nat_row per bit
    return BitSeq(
        lambda i: (r >> (i - 1)) & 1,
        lambda start, n: (r >> (start - 1)) & ((1 << n) - 1),
        r.bit_length(),
        lambda: f"nat_row({_decimal_or_hex(r)})",
    )


def prepend(bits: str, s: BitSeq) -> BitSeq:
    """Prefix a finite bit string onto a sequence."""
    if set(bits) - {"0", "1"}:
        raise ValueError(f"bit string expected, got {bits!r}")
    head = tuple(int(ch) for ch in bits)
    h = len(head)
    bound = None
    if s.eventually_zero_bound is not None:
        bound = s.eventually_zero_bound + h

    def block(start: int, n: int) -> int:
        if start > h:
            return s.block(start - h, n)
        part = bits[start - 1 : start - 1 + n]
        rest = n - len(part)
        low = _bits_to_int(part)
        # the tail is read only when the block runs past the head
        return low | (s.block(1, rest) << len(part)) if rest else low

    return BitSeq(
        lambda i: head[i - 1] if i <= h else s.bit_at(i - h),
        block=block,
        eventually_zero_bound=bound,
        description=lambda: f"prepend({bits}, {s.description})",
    )


def complement(s: BitSeq) -> BitSeq:
    """Flip every bit: the binary instantiation of "differs everywhere"."""
    return BitSeq(
        lambda i: 1 - s.bit_at(i),
        block=lambda start, n: s.block(start, n) ^ ((1 << n) - 1),
        description=lambda: f"complement({s.description})",
    )


def prefix(s: BitSeq, n: int) -> str:
    """Bits 1..n as a string; prefix(s, 0) is empty."""
    if n < 0:
        raise ValueError(f"prefix length must be >= 0, got {n}")
    return format(s.block(1, n), f"0{n}b")[::-1] if n else ""


def dyadic_bounds(s: BitSeq, n: int) -> tuple[Fraction, Fraction]:
    """Exact rational interval [L, L + 2^-n] bracketing the value
    sum_i b_i * 2^-i after reading n bits.
    """
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    numerator = int(prefix(s, n), 2) if n else 0
    low = Fraction(numerator, 1 << n)
    return low, low + Fraction(1, 1 << n)


def eq_prefix(a: BitSeq, b: BitSeq, n: int) -> int | None:
    """Least position i <= n where a and b differ, or None if the length-n
    prefixes agree.

    Reads in chunks that double what has been read so far (64 bits first),
    so a difference at position p costs at most 2 * max(p, 64) bits per
    side, and nothing past position n is ever read.
    """
    start = 1
    while start <= n:
        size = min(max(64, start - 1), n - start + 1)
        diff = a.block(start, size) ^ b.block(start, size)
        if diff:
            return start + (diff & -diff).bit_length() - 1
        start += size
    return None
