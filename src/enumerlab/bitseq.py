"""Total, lazily evaluated infinite binary sequences and enumerations of
them, kept as data.

A BitSeq maps a 1-based position to a bit; an Enumeration maps a 0-based
row index to a BitSeq.  Each is a node: an operator of the program
language (see dsl), its literal and its children.  A user-supplied
BitSeq(rule) or Enumeration(rule) is a leaf.  Finite bit strings are plain
Python strings over the alphabet {'0', '1'}; that keeps them hashable and
trivially comparable, which the coverage tests rely on.

Every multi-bit read goes through one accessor, BitSeq.block(start, n),
which packs bits start..start+n-1 into an int least-significant-bit first:
sequence bit start+k is int bit k, the bit order of the truth-table matrix.
One loop answers it by walking a single root-to-leaf path, carrying the
position and a flip: complement flips the block, prepend answers from its
head and goes on into its tail only for the part past the head, and zeros,
ones, periodic and nat_row answer the whole block at once.  A diagonal
block is one batched walk over row ranges: each enumeration operator maps
the range of rows the block needs, or splits it, instead of walking once
per bit.  A BitSeq(rule) is called at exactly the positions asked for, and
each value must be 0 or 1.  Enumeration.row walks the enumeration
operators the same way as a single read, down to a sequence.  A run of
spliteven/splitodd appends one bit per level to a row index; both walks
collect the run's bits and join them to the row, or to a range's ends,
once, so a run costs time linear in its length.  Nothing
recurses, so there is no nesting limit; descriptions are built by walks
too.

Sequence equality is undecidable in general, so no equality operation is
offered; only prefix comparison (eq_prefix).  The double representation of
dyadic rationals (0.0111... = 0.1000...) is NOT identified: values live in
sequence space {0,1}^N, where every sequence is a distinct object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .record import _repr_or_hex

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "BitSeq",
    "Enumeration",
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

# operator: (the type it denotes, its signature, its name in descriptions).
# A signature lists the literal ("bits" or "nat") and the children ("seq"
# or "enum") in argument order, as the program language spells them.
_OPERATORS = {
    "zeros": ("seq", (), "zeros"),
    "ones": ("seq", (), "ones"),
    "periodic": ("seq", ("bits",), "periodic"),
    "natrow": ("seq", ("nat",), "nat_row"),
    "prepend": ("seq", ("bits", "seq"), "prepend"),
    "compl": ("seq", ("seq",), "complement"),
    "diagc": ("seq", ("enum",), "antidiagonal"),
    "figure5": ("enum", (), "truth-table matrix"),
    "const": ("enum", ("seq",), "constant"),
    "interleave": ("enum", ("enum", "enum"), "interleave"),
    "spliteven": ("enum", ("enum",), "spliteven"),
    "splitodd": ("enum", ("enum",), "splitodd"),
    "insert": ("enum", ("enum", "nat", "seq"), "insert"),
}
_BITS = frozenset("01")
_DIGITS = bytes.maketrans(b"\0\1", b"01")  # bit values to ASCII digits
_FLIPS = (None, bytes.maketrans(b"01", b"10"))  # by flip: as is, or 0 and 1 swapped


class PositionError(ValueError):
    """Sequence positions are 1-based; position 0 (or below) is invalid."""


def _bits_to_int(bits: str) -> int:
    """Pack a bit string least-significant-bit first: bits[k] is int bit k."""
    return int(bits[::-1], 2) if bits else 0


class _Node:
    """Operator `_op` with literal `_lit` and child nodes `_kids`.  A leaf
    built from a user rule has operator "rule" and literal (rule,
    description), and for a sequence its eventually_zero_bound third."""

    __slots__ = ("_op", "_lit", "_kids")

    @property
    def description(self) -> str:
        return _render(self, _spell)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.description})"


class BitSeq(_Node):
    """An infinite binary sequence b_1 b_2 b_3 ...

    `rule` maps a 1-based position to 0 or 1 and must be deterministic and
    total.  `eventually_zero_bound`, when given, asserts that every position
    beyond the bound is 0 (finite support); the property of that name is
    derived from the node on every read, and has no setter.
    """

    __slots__ = ()

    def __init__(
        self,
        rule: Callable[[int], int],
        eventually_zero_bound: int | None = None,
        description: str = "bitseq",
    ):
        self._op, self._lit, self._kids = "rule", (rule, description, eventually_zero_bound), ()

    @property
    def eventually_zero_bound(self) -> int | None:
        """0 for zeros, r.bit_length() for nat_row(r) or the bound given to a
        rule leaf, plus the lengths of the prepend heads above it; else None."""
        node, heads = self, 0
        while node._op == "prepend":
            heads += len(node._lit)
            node = node._kids[0]
        op, lit = node._op, node._lit
        if op == "natrow":
            return lit.bit_length() + heads
        bound = 0 if op == "zeros" else lit[2] if op == "rule" else None
        return None if bound is None else bound + heads

    def bit_at(self, i: int) -> int:
        return self.block(i, 1)

    def block(self, start: int, n: int) -> int:
        """Bits start..start+n-1 as an int, bit start+k at int bit k."""
        if start < 1:
            raise PositionError(f"positions are 1-based, got {_repr_or_hex(start)}")
        if n < 0:
            raise ValueError(f"block length must be >= 0, got {_repr_or_hex(n)}")
        return _read(self, start, n)


class Enumeration(_Node):
    """A total map from row index (0-based) to BitSeq: a "list" of
    infinite binary sequences."""

    __slots__ = ()

    def __init__(self, rule: Callable[[int], BitSeq], description: str = "enum"):
        self._op, self._lit, self._kids = "rule", (rule, description), ()

    def row(self, i: int) -> BitSeq:
        if i < 0:
            raise ValueError(f"row indices are 0-based naturals, got {_repr_or_hex(i)}")
        return _row(self, i)


# the classes by the type an operator denotes; the walker reaches them
# through this table, never through a module global a caller may rebind
_CLASSES = {"seq": BitSeq, "enum": Enumeration}
_new = object.__new__
# operator: (a test that its literal is out of range, what the error says)
_BAD_LITERALS = {
    "natrow": (lambda lit: lit < 0, "natural expected"),
    "insert": (lambda lit: lit < 0, "insertion index must be >= 0"),
    "periodic": (lambda lit: not lit or set(lit) - _BITS, "pattern must be a nonempty bit string"),
    "prepend": (lambda lit: set(lit) - _BITS, "bit string expected"),
}
# operator: (the class of its node, its literal test or None, the error)
_BUILDERS = {
    op: (_CLASSES[typ], *_BAD_LITERALS.get(op, (None, None)))
    for op, (typ, _, _) in _OPERATORS.items()
}


def _node(op: str, lit=None, kids: tuple = ()) -> _Node:
    """Check the literal of operator `op` and build its node, from one
    lookup in _BUILDERS.  Every operator node is built here: by the
    constructors, the walks and the evaluator of dsl."""
    cls, bad, error = _BUILDERS[op]
    if bad is not None and bad(lit):
        raise ValueError(f"{error}, got {_repr_or_hex(lit)}")
    node = _new(cls)
    node._op, node._lit, node._kids = op, lit, kids
    return node


def _read(node: BitSeq, start: int, n: int) -> int:
    """Bits start..start+n-1 of `node`, packed least-significant-bit first,
    from one walk down one path.  `out` holds the `shift` bits already
    answered by prepend heads; `flip` is 1 below an odd number of
    complements.  An antidiagonal read of one bit goes on into the listed
    row; a longer one is handed to the batched walk, _diagonal_block."""
    out = shift = flip = 0
    while n:
        op = node._op
        if op == "compl":
            flip ^= 1
            node = node._kids[0]
        elif op == "prepend":
            head = node._lit
            if start > len(head):
                start -= len(head)
            else:
                part = head[start - 1 : start - 1 + n]
                w = len(part)
                bits = _bits_to_int(part)
                out |= (bits ^ ((1 << w) - 1) if flip else bits) << shift
                shift += w
                n -= w
                start = 1
            node = node._kids[0]
        elif op == "diagc":
            if n > 1:
                bits = _diagonal_block(node, start, n)
                break
            # bit i is the complement of bit i of row i-1
            flip ^= 1
            node = _row(node._kids[0], start - 1)
        else:
            if op == "natrow":
                bits = (node._lit >> (start - 1)) & ((1 << n) - 1)
            elif op == "periodic":
                # the period rotated to begin at bit `start`, doubled until
                # it covers the block
                size, period = len(node._lit), _bits_to_int(node._lit)
                o = (start - 1) % size
                bits = period >> o | (period & ((1 << o) - 1)) << (size - o)
                while size < n:
                    bits |= bits << size
                    size *= 2
                bits &= (1 << n) - 1
            elif op == "ones":
                bits = (1 << n) - 1
            elif op == "zeros":
                bits = 0
            else:  # a user rule
                bits = int(_rule_bits(node._lit[0], range(start, start + n))[::-1], 2)
            break
    else:
        return out
    return out | (bits ^ ((1 << n) - 1) if flip else bits) << shift


def _row(node: Enumeration, r: int) -> BitSeq:
    """Row r of `node`: one walk down the enumeration operators, each of
    which picks one child for the row.  A run of spliteven/splitodd appends
    one bit to r per level; the run's bits are collected and joined to r
    once, so a run costs time linear in its length."""
    while True:
        op = node._op
        if op == "spliteven" or op == "splitodd":
            node, k, low = _split_run(node)
            r = r << k | low
        elif op == "interleave":
            node = node._kids[r & 1]
            r >>= 1
        elif op == "insert":
            if r == node._lit:
                return node._kids[1]
            if r > node._lit:
                r -= 1
            node = node._kids[0]
        elif op == "const":
            return node._kids[0]
        elif op == "figure5":
            return _node("natrow", r)
        else:  # a user rule
            row = node._lit[0](r)
            if not isinstance(row, _CLASSES["seq"]):
                raise TypeError(f"row {r} is {type(row).__name__}, not BitSeq")
            return row


def _split_run(node: Enumeration) -> tuple[Enumeration, int, int]:
    """The node below the run of spliteven/splitodd operators that starts
    at `node`, the run's length k and its bits, the top operator's most
    significant: row r of `node` is row r << k | bits of the node below."""
    bits = bytearray()
    while (op := node._op) == "spliteven" or op == "splitodd":
        bits.append(49 if op == "splitodd" else 48)
        node = node._kids[0]
    return node, len(bits), int(bits, 2)


def _rule_bits(rule: Callable[[int], int], positions: range) -> bytes:
    """ASCII digits of the bits `rule` gives at `positions`, calling it
    once at each; a value other than 0 or 1 raises ValueError."""
    values = list(map(rule, positions))
    for p, v in zip(positions, values):
        if not isinstance(v, int) or v not in (0, 1):
            raise ValueError(
                f"bit at position {_repr_or_hex(p)} must be 0 or 1, got {_repr_or_hex(v)}"
            )
    return bytes(values).translate(_DIGITS)


def _shift(r: range, d: int) -> range:
    return range(r.start + d, r.stop + d, r.step)


def _diagonal_block(node: BitSeq, start: int, n: int) -> int:
    """Bits start..start+n-1 of `node`, packed as _read packs them, from
    one walk over tasks (node, rows, positions, base, flip): row rows[k] of
    an enumeration, or the sequence itself when rows is None, at
    positions[k] is output bit positions[k] - base, complemented when flip
    is 1.  Each operator maps these aligned ranges in O(1) or splits them in
    a few."""
    out = bytearray(n)
    todo = [(node, None, range(start, start + n), start, 0)]
    while todo:
        node, rows, pos, base, flip = todo.pop()
        while pos:
            op, kids = node._op, node._kids
            if op == "compl":
                flip ^= 1
            elif op == "diagc":
                # bit i is the complement of bit i of row i-1
                rows, flip = _shift(pos, -1), flip ^ 1
            elif op == "prepend":
                head = node._lit
                part = head[pos.start - 1 : pos.stop - 1 : pos.step].encode()
                done = pos[: len(part)]
                out[done.start - base : done.stop - base : done.step] = part.translate(_FLIPS[flip])
                pos, base = _shift(pos[len(part) :], -len(head)), base - len(head)
            elif op == "const":
                rows = None
            elif op == "spliteven" or op == "splitodd":
                node, k, low = _split_run(node)
                rows = range(rows.start << k | low, rows.stop << k | low, rows.step << k)
                continue
            elif op == "interleave":
                if rows.step & 1 and len(rows) > 1:  # parities alternate: split
                    todo.append((node, rows[1::2], pos[1::2], base, flip))
                    rows, pos = rows[::2], pos[::2]
                kids = kids[rows.start & 1 :]  # the child of the rows' parity first
                rows = range(rows.start >> 1, (rows[-1] >> 1) + 1, rows.step >> 1 or 1)
            elif op == "insert":
                # rows below k go on, row k is the inserted one, rows above go one lower
                k = node._lit
                if rows[-1] >= k:
                    i = len(range(rows.start, k, rows.step))
                    j = i + (rows[i] == k)
                    todo.append((kids[0], _shift(rows[j:], -1), pos[j:], base, flip))
                    todo.append((kids[1], None, pos[i:j], base, flip))
                    rows, pos = rows[:i], pos[:i]
            elif op == "rule" and rows is not None:
                for r, p in zip(rows, pos):
                    todo.append((_row(node, r), None, range(p, p + 1), base, flip))
                break
            else:
                if op == "figure5":
                    # row r is 0 past bit r.bit_length(): compute bits only
                    # up to the bit length of the last, largest row
                    m = len(range(pos.start, min(pos.stop, rows[-1].bit_length() + 1), pos.step))
                    bits = bytes(48 + (r >> (p - 1) & 1) for r, p in zip(rows, pos[:m]))
                    bits += b"0" * (len(pos) - m)
                elif op == "rule":
                    bits = _rule_bits(node._lit[0], pos)
                else:  # one block over the span of the positions
                    span = pos[-1] - pos.start + 1
                    text = format(_read(node, pos.start, span), f"0{span}b")
                    bits = text[::-1][:: pos.step].encode()
                out[pos.start - base : pos.stop - base : pos.step] = bits.translate(_FLIPS[flip])
                break
            node = kids[0]
    return int(out[::-1], 2)


def _render(root, spell: Callable) -> str:
    """Text of a tree, built without recursion.  spell(node) gives a node's
    opening text, its arguments in order (each a text or a child node,
    spelled in turn), the text that separates them and its closing text."""
    out: list[str] = []
    todo = [root]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        opening, args, sep, closing = spell(item)
        out.append(opening)
        todo.append(closing)
        for arg in reversed(args[1:]):
            todo += (arg, sep)
        todo += args[:1]
    return "".join(out)


def _spell(node: _Node) -> tuple:
    if node._op == "rule":
        return node._lit[1], (), "", ""
    _, sig, name = _OPERATORS[node._op]
    kids, lit = iter(node._kids), node._lit
    args = [
        next(kids) if arg in _CLASSES else lit if arg == "bits" else _repr_or_hex(lit)
        for arg in sig
    ]
    return (f"{name}(", args, ", ", ")") if args else (name, args, "", "")


def zeros() -> BitSeq:
    return _node("zeros")


def ones() -> BitSeq:
    return _node("ones")


def periodic(pattern: str) -> BitSeq:
    """Repeat a finite nonempty bit pattern forever: periodic("01") = 0101..."""
    return _node("periodic", pattern)


def nat_row(r: int) -> BitSeq:
    """The binary expansion of the natural r, least-significant bit first,
    padded with zeros: nat_row(6) = 0 1 1 0 0 0 ...
    """
    return _node("natrow", r)


def prepend(bits: str, s: BitSeq) -> BitSeq:
    """Prefix a finite bit string onto a sequence."""
    return _node("prepend", bits, (s,))


def complement(s: BitSeq) -> BitSeq:
    """Flip every bit: the binary instantiation of "differs everywhere"."""
    return _node("compl", None, (s,))


def prefix(s: BitSeq, n: int) -> str:
    """Bits 1..n as a string; prefix(s, 0) is empty."""
    if n < 0:
        raise ValueError(f"prefix length must be >= 0, got {_repr_or_hex(n)}")
    return format(s.block(1, n), "b")[::-1].ljust(n, "0") if n else ""


def dyadic_bounds(s: BitSeq, n: int) -> tuple[Fraction, Fraction]:
    """Exact rational interval [L, L + 2^-n] bracketing the value
    sum_i b_i * 2^-i after reading n bits.
    """
    from fractions import Fraction

    if n < 0:
        raise ValueError(f"depth must be >= 0, got {_repr_or_hex(n)}")
    numerator = int(prefix(s, n), 2) if n else 0
    return Fraction(numerator, 1 << n), Fraction(numerator + 1, 1 << n)


def eq_prefix(a: BitSeq, b: BitSeq, n: int) -> int | None:
    """Least position i <= n where a and b differ, or None if the length-n
    prefixes agree.

    Reads in chunks that double what has been read so far (64 bits first),
    so a difference at position p costs at most 2 * max(p, 64) bits per
    side, and nothing past position n is ever read.
    """
    if n < 0:
        raise ValueError(f"compared length n must be >= 0, got {_repr_or_hex(n)}")
    start = 1
    while start <= n:
        size = min(max(64, start - 1), n - start + 1)
        diff = a.block(start, size) ^ b.block(start, size)
        if diff:
            return start + (diff & -diff).bit_length() - 1
        start += size
    return None
