"""A small closed expression language for building sequences and
enumerations.  Parsing, evaluation, printing, comparing and hashing each
work from an explicit stack, so programs of any nesting depth are accepted.

Grammar (whitespace insignificant, ASCII only):

    seq  := "zeros" | "ones"
          | "periodic(" bits ")"
          | "natrow(" nat ")"
          | "prepend(" bits "," seq ")"
          | "compl(" seq ")"
          | "diagc(" enum ")"
    enum := "figure5"
          | "const(" seq ")"
          | "interleave(" enum "," enum ")"
          | "spliteven(" enum ")"
          | "splitodd(" enum ")"
          | "insert(" enum "," nat "," seq ")"
    bits := one or more of {0,1}
    nat  := decimal digits

There is no recursion or binding, so every program denotes a total value and
the diagonal complement of any program enumeration is always well defined.

A text of names, digits and marks alone is cut into tokens by str.split at
its marks; any other text by one regular-expression pass, which gives the
same tokens.  One loop reads them.  An Ast and a Span are immutable
__slots__ records, which the parser builds without calling __init__.

Errors carry a source position and an expected-token set, and fall into
three classes: syntax (unexpected token), arity (wrong argument count), and
type (sequence expression where an enumeration is required, or vice versa).
"""

from __future__ import annotations

import bisect
import re
import sys
from itertools import accumulate, compress

from . import bitseq
from .bitseq import BitSeq, Enumeration
from .record import Record, _repr_or_hex

__all__ = [
    "Ast",
    "Span",
    "ParseError",
    "SEQ_KINDS",
    "ENUM_KINDS",
    "parse",
    "parse_seq",
    "parse_enum",
    "unparse",
    "eval_seq",
    "eval_enum",
]

_TYPENAME = {"seq": "a sequence", "enum": "an enumeration"}


# The operators are those of bitseq._OPERATORS: operator -> (the type it
# denotes, its argument signature over "bits", "nat", "seq" and "enum", its
# name in descriptions).  Evaluating an operator builds its node.
SEQ_KINDS = frozenset(k for k, op in bitseq._OPERATORS.items() if op[0] == "seq")
ENUM_KINDS = frozenset(k for k, op in bitseq._OPERATORS.items() if op[0] == "enum")
_KINDS = {"seq": SEQ_KINDS, "enum": ENUM_KINDS}
# operator -> (the type it denotes, the types of its subexpressions, last first)
_OPERANDS = {
    k: (op[0], tuple(arg for arg in reversed(op[1]) if arg in _TYPENAME))
    for k, op in bitseq._OPERATORS.items()
}


class Span(Record):
    """Where a node's text starts, as a 1-based line and column, and how
    many characters it covers."""

    __slots__ = ("_line", "_column", "_length")

    def __init__(self, line: int, column: int, length: int) -> None:
        self._line, self._column, self._length = line, column, length


class Ast(Record):
    """One operator node.  `value` holds the literal payload for operators
    taking a bits or nat argument; spans are excluded from equality and
    hashing so that pretty-print/reparse roundtrips compare structurally."""

    __slots__ = ("_kind", "_children", "_value", "_span")

    def __init__(self, kind: str, children: tuple = (), value=None, span=Span(1, 1, 0)):
        self._kind, self._children, self._value, self._span = kind, children, value, span

    @property
    def is_seq(self) -> bool:
        return self._kind in SEQ_KINDS

    def _shape(self) -> list:
        """(kind, value, number of children) of each node in preorder: the
        tree without its spans."""
        shape, todo = [], [self]
        while todo:
            a = todo.pop()
            shape.append((a._kind, a._value, len(a._children)))
            todo += reversed(a._children)
        return shape

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._shape() == other._shape()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._shape()))

    def __repr__(self) -> str:
        return bitseq._render(self, _spell_repr)


class ParseError(Exception):
    """A positioned parse failure.  `error_class` is one of "syntax",
    "arity", "type"."""

    def __init__(
        self,
        message: str,
        line: int,
        column: int,
        expected: frozenset[str] = frozenset(),
        error_class: str = "syntax",
    ):
        self.message = message
        self.line = line
        self.column = column
        self.expected = expected
        self.error_class = error_class
        super().__init__(f"{line}:{column}: {message}")


# ASCII only, as the grammar says: str.isdigit also takes '²', which int()
# rejects, and '١', which int() reads as 1.  Blank space separates tokens;
# any other character is an error.
_UNEXPECTED = re.compile(r"[^A-Za-z0-9(),\n\t\r ]")
# Past that check, these pieces cover the text, so their lengths add up to
# the offset of each: a name, digits, a mark, or a run of blanks.
_PIECES = re.compile(r"[A-Za-z][A-Za-z0-9]*|[0-9]+|[(),]|[\n\t\r ]+")
# Each ASCII character as its shape: "a" for a letter, "0" for a digit, a
# mark as itself, "?" for anything else.  A text whose shape has no "?" and
# no digit before a letter is names, digits and marks end to end, which
# str.split cuts into the tokens that _PIECES finds.
_SHAPES = bytes(
    ord("a") if bytes([c]).isalpha() else ord("0") if bytes([c]).isdigit()
    else c if c in b"()," else ord("?")
    for c in range(256)
)


class _Parser:
    """A token is its text: a name, digits, "(", ")", "," or "" for the end
    of input; `offsets` holds where each starts.  Lines and columns are
    worked out from offsets where a span or an error needs them."""

    # the record classes, held here since the module names may be rebound
    ast, span = Ast, Span

    def __init__(self, text: str):
        shape = text.encode("ascii", "replace").translate(_SHAPES)
        if b"?" not in shape and b"0a" not in shape:
            self.newlines = []
            self.tokens = text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()
            # the tokens lie end to end, and the end of input follows the last
            self.offsets = [*accumulate(map(len, self.tokens), initial=0)]
            self.tokens.append("")
            return
        self.newlines = [m.start() for m in re.finditer("\n", text)]
        bad = _UNEXPECTED.search(text)
        if bad is not None:
            raise ParseError(
                f"unexpected character {bad.group()!r}",
                *self._position(bad.start()),
                frozenset({"name", "digits", "(", ")", ","}),
            )
        pieces = _PIECES.findall(text)
        kept = list(map(str.strip, pieces))  # a run of blanks strips to ""
        self.tokens = [*filter(None, kept), ""]
        self.offsets = [*compress(accumulate(map(len, pieces), initial=0), kept), len(text)]

    def _position(self, offset: int) -> tuple[int, int]:
        """1-based line and column of a text offset."""
        line = bisect.bisect_left(self.newlines, offset)
        line_start = self.newlines[line - 1] + 1 if line else 0
        return line + 1, offset - line_start + 1

    def _fail(self, pos: int, message: str, expected, error_class: str = "syntax"):
        """Raise a ParseError at token `pos`."""
        position = self._position(self.offsets[pos])
        raise ParseError(message, *position, frozenset(expected), error_class)

    def parse_all(self, want: str) -> Ast:
        """Parse the whole text as one expression of type `want` ("seq" or
        "enum").  One loop reads the tokens.  The innermost open operator
        is held in locals: its name, signature, index of the next argument,
        children, literal and offset; each operator around it waits on an
        explicit stack as a tuple of the same fields, so any nesting depth
        parses.  The whole text is the one argument of an operator without
        a name.  Each Ast and Span is built as object.__new__ of its class
        with its slots written, not through __init__."""
        tokens, offsets, newlines = self.tokens, self.offsets, self.newlines
        operators, position, ast, span = bitseq._OPERATORS, self._position, self.ast, self.span
        new = object.__new__
        frames: list[tuple] = []
        name, sig, i, kids, value, offset = None, (want,), 1, [], None, 0
        pos = 0
        while True:
            # the head of an expression of type `want`
            head = tokens[pos]
            op = operators.get(head)
            if op is None or op[0] != want:
                self._no_expression(pos, want)
            if op[1]:
                if tokens[pos + 1] != "(":
                    found = tokens[pos + 1] or "end of input"
                    self._fail(pos + 1, f"expected (, found {found!r}", "(")
                frames.append((name, sig, i, kids, value, offset))
                name, sig, i, kids, value, offset = head, op[1], 0, [], None, offsets[pos]
                pos += 2
            else:
                node, where = new(ast), new(span)
                start = offsets[pos]
                where._line, where._column = position(start) if newlines else (1, start + 1)
                where._length = len(head)
                node._kind, node._children, node._value, node._span = head, (), None, where
                kids.append(node)
                pos += 1
            # the arguments of the open operator up to its next
            # subexpression, closing each operator whose arguments are read
            while True:
                if i == len(sig):
                    if name is None:
                        if tokens[pos]:
                            message = f"trailing input after expression: {tokens[pos]!r}"
                            self._fail(pos, message, {"end of input"})
                        return kids[0]
                    if tokens[pos] != ")":
                        if tokens[pos] == ",":
                            message = f"too many arguments to {name!r}: expected {len(sig)}"
                            self._fail(pos, message, ")", "arity")
                        found = tokens[pos] or "end of input"
                        self._fail(pos, f"expected ')', found {found!r}", ")")
                    node, where = new(ast), new(span)
                    where._line, where._column = position(offset) if newlines else (1, offset + 1)
                    where._length = offsets[pos] + 1 - offset
                    node._kind, node._children, node._value = name, tuple(kids), value
                    node._span = where
                    pos += 1
                    name, sig, i, kids, value, offset = frames.pop()
                    kids.append(node)
                    continue
                if i:
                    if tokens[pos] == ")":
                        self._too_few(pos, name, sig, i, ",")
                    if tokens[pos] != ",":
                        found = tokens[pos] or "end of input"
                        self._fail(pos, f"expected ',', found {found!r}", ",")
                    pos += 1
                want = sig[i]
                if tokens[pos] == ")":
                    self._too_few(pos, name, sig, i, want)
                i += 1
                if want in _TYPENAME:
                    break
                value = self._literal(pos, want)
                pos += 1

    def _no_expression(self, pos: int, want: str):
        """Fail on token `pos`, which does not start an expression of type
        `want`."""
        name, kinds, typename = self.tokens[pos], _KINDS[want], _TYPENAME[want]
        op = bitseq._OPERATORS.get(name)
        if not name[:1].isalpha():
            found = name or "end of input"
            self._fail(pos, f"expected {typename} expression, found {found!r}", kinds)
        if op is None:
            self._fail(pos, f"unknown operator {name!r}", kinds)
        message = f"{name!r} is {_TYPENAME[op[0]]} operator, but {typename} expression"
        self._fail(pos, f"{message} is required here", kinds, "type")

    def _too_few(self, pos, name, sig, given, expected):
        message = f"too few arguments to {name!r}: expected {len(sig)}, got {given}"
        self._fail(pos, message, {expected}, "arity")

    def _literal(self, pos: int, arg: str) -> int | str:
        """Token `pos` as a "bits" literal (kept as its text) or a "nat" one."""
        text = self.tokens[pos]
        if not text.isdigit() or (arg == "bits" and text.strip("01")):
            what = "a bit string" if arg == "bits" else "a natural number"
            self._fail(pos, f"expected {what}, found {text or 'end of input'!r}", {arg})
        if arg == "bits":
            return text
        limit = sys.get_int_max_str_digits()
        if limit and len(text) > limit:
            message = f"natural number literal has {len(text)} digits, more than the limit of"
            self._fail(pos, f"{message} {limit}", {arg})
        return int(text)


def parse_seq(text: str) -> Ast:
    """Parse a sequence expression; raises ParseError on failure."""
    return _Parser(text).parse_all("seq")


def parse_enum(text: str) -> Ast:
    """Parse an enumeration expression; raises ParseError on failure."""
    return _Parser(text).parse_all("enum")


def parse(text: str) -> Ast:
    """Parse a program of either type.

    The grammar is keyword-disjoint, so the head operator decides the
    type; unknown heads report the union of both operator sets.
    """
    p = _Parser(text)
    op = bitseq._OPERATORS.get(p.tokens[0])
    if op is None:
        found = p.tokens[0] or "end of input"
        p._fail(0, f"expected an expression, found {found!r}", SEQ_KINDS | ENUM_KINDS)
    return p.parse_all(op[0])


def unparse(a: Ast) -> str:
    """Canonical textual form; parse(unparse(a)) == a modulo spans.  A
    natrow or insert value past sys.get_int_max_str_digits() raises
    ValueError: the parser rejects such a literal, so it has no text form."""
    return bitseq._render(a, _spell)


def _spell(a: Ast) -> tuple:
    op = bitseq._OPERATORS.get(a.kind)
    if op is None:
        raise ValueError(f"unknown node kind {a.kind!r}")
    children = iter(a.children)
    try:
        args = [next(children) if arg in _TYPENAME else str(a.value) for arg in op[1]]
    except ValueError:  # an int past the decimal conversion limit
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{a.kind!r} value has more than {limit} decimal digits") from None
    return (f"{a.kind}(", args, ",", ")") if args else (a.kind, args, "", "")


def _spell_repr(a: Ast) -> tuple:
    kids = a._children
    value = _repr_or_hex(a._value)
    closing = f"{',' * (len(kids) == 1)}), value={value}, span={a._span!r})"
    return f"{type(a).__qualname__}(kind={a._kind!r}, children=(", kids, ", ", closing


def _eval(root: Ast, want: str):
    """Check each subexpression against the type its place requires, in
    preorder from explicit stacks of subexpressions and of types; then
    build their nodes through bitseq._node in reverse preorder, popping the
    children of each off the stack of nodes built, first child first."""
    order, todo, wants = [], [root], [want]
    while todo:
        a, want = todo.pop(), wants.pop()
        kind, kids = a._kind, a._children
        operands = _OPERANDS.get(kind)
        if operands is None or operands[0] != want:
            raise ValueError(f"not {_TYPENAME[want]} expression: {kind!r}")
        if len(operands[1]) != len(kids):
            raise ValueError(f"{kind!r} takes {len(operands[1])} subexpressions")
        order.append(a)
        if kids:
            todo += kids[::-1]
            wants += operands[1]
    built, node = [], bitseq._node
    push, pop = built.append, built.pop
    for a in reversed(order):
        # no operator has more than two subexpressions
        n = len(a._children)
        push(node(a._kind, a._value, (pop(), pop()) if n == 2 else (pop(),) if n else ()))
    return built[0]


def eval_seq(a: Ast) -> BitSeq:
    """Denotation of a sequence expression (compositional and total)."""
    return _eval(a, "seq")


def eval_enum(a: Ast) -> Enumeration:
    """Denotation of an enumeration expression (compositional and total)."""
    return _eval(a, "enum")
