"""A small closed expression language for building sequences and
enumerations.  Parsing, evaluation and printing each work from an
explicit stack, so programs of any nesting depth are accepted.

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

Errors carry a source position and an expected-token set, and fall into
three classes: syntax (unexpected token), arity (wrong argument count), and
type (sequence expression where an enumeration is required, or vice versa).
"""

from __future__ import annotations

import bisect
import re
import sys
from dataclasses import dataclass, field

from . import bitseq
from .bitseq import BitSeq, Enumeration

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

_TYPENAME = {"seq": "sequence", "enum": "enumeration"}


# The operators are those of bitseq._OPERATORS: operator -> (the type it
# denotes, its argument signature over "bits", "nat", "seq" and "enum", its
# name in descriptions).  Evaluating an operator builds its node.
SEQ_KINDS = frozenset(k for k, op in bitseq._OPERATORS.items() if op[0] == "seq")
ENUM_KINDS = frozenset(k for k, op in bitseq._OPERATORS.items() if op[0] == "enum")
_KINDS = {"seq": SEQ_KINDS, "enum": ENUM_KINDS}


@dataclass(frozen=True)
class Span:
    line: int
    column: int
    length: int


@dataclass(frozen=True)
class Ast:
    """One operator node.  `value` holds the literal payload for operators
    taking a bits or nat argument; spans are excluded from equality so that
    pretty-print/reparse roundtrips compare structurally."""

    kind: str
    children: tuple["Ast", ...] = ()
    value: int | str | None = None
    span: Span = field(default=Span(1, 1, 0), compare=False)

    @property
    def is_seq(self) -> bool:
        return self.kind in SEQ_KINDS


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
_TOKEN = re.compile(
    r"(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<digits>[0-9]+)"
    r"|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)"
)
_UNEXPECTED = re.compile(r"[^A-Za-z0-9(),\n\t\r ]")


class _Parser:
    """A token is a (kind, text, offset) triple, kind one of "name",
    "digits", "lparen", "rparen", "comma" and "eof".  Lines and columns are
    worked out from offsets where a span or an error needs them."""

    def __init__(self, text: str):
        self.newlines = [m.start() for m in re.finditer("\n", text)]
        bad = _UNEXPECTED.search(text)
        if bad is not None:
            self._fail(
                bad.start(),
                f"unexpected character {bad.group()!r}",
                expected=frozenset({"name", "digits", "(", ")", ","}),
            )
        self.tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN.finditer(text)]
        self.tokens.append(("eof", "", len(text)))
        self.pos = 0

    def _next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _position(self, offset: int) -> tuple[int, int]:
        """1-based line and column of a text offset."""
        line = bisect.bisect_left(self.newlines, offset)
        line_start = self.newlines[line - 1] + 1 if line else 0
        return line + 1, offset - line_start + 1

    def _fail(self, offset, message, expected=frozenset(), error_class="syntax"):
        raise ParseError(message, *self._position(offset), expected, error_class)

    def parse_all(self, want: str) -> Ast:
        """Parse the whole text as one expression of type `want` ("seq" or
        "enum").  Each call of _expr waits on an explicit stack while its
        subexpressions are parsed, so any nesting depth parses."""
        stack = [self._expr(want)]
        ast = None
        while stack:
            try:
                want = stack[-1].send(ast)
            except StopIteration as done:
                stack.pop()
                ast = done.value
            else:
                stack.append(self._expr(want))
                ast = None
        kind, text, offset = self.tokens[self.pos]
        if kind != "eof":
            self._fail(
                offset,
                f"trailing input after expression: {text!r}",
                expected=frozenset({"end of input"}),
            )
        return ast

    def _expr(self, want: str):
        """Parse one expression of type `want`: a generator that yields the
        type of each subexpression and is sent back its Ast."""
        kinds = _KINDS[want]
        kind, name, offset = self._next()
        if kind != "name":
            self._fail(
                offset,
                f"expected a {_TYPENAME[want]} expression, "
                f"found {name or 'end of input'!r}",
                expected=kinds,
            )
        op = bitseq._OPERATORS.get(name)
        if op is None:
            self._fail(offset, f"unknown operator {name!r}", expected=kinds)
        if op[0] != want:
            self._fail(
                offset,
                f"{name!r} is an {_TYPENAME[op[0]]} operator, "
                f"but a {_TYPENAME[want]} expression is required here",
                expected=kinds,
                error_class="type",
            )
        sig = op[1]
        if not sig:
            return Ast(name, span=Span(*self._position(offset), len(name)))
        kind, text, at = self._next()
        if kind != "lparen":
            self._fail(at, f"expected (, found {text or 'end of input'!r}", frozenset({"("}))
        children: list[Ast] = []
        value: int | str | None = None
        for idx, arg in enumerate(sig):
            if idx > 0:
                kind, text, at = self._next()
                if kind == "rparen":
                    self._too_few(at, name, sig, idx, ",")
                if kind != "comma":
                    self._fail(at, f"expected ',', found {text!r}", frozenset({","}))
            kind, _, at = self.tokens[self.pos]
            if kind == "rparen":
                self._too_few(at, name, sig, idx, arg)
            if arg in _TYPENAME:
                children.append((yield arg))
            else:
                value = self._literal(arg)
        kind, text, at = self._next()
        if kind == "comma":
            self._fail(
                at,
                f"too many arguments to {name!r}: expected {len(sig)}",
                expected=frozenset({")"}),
                error_class="arity",
            )
        if kind != "rparen":
            self._fail(
                at,
                f"expected ')', found {text or 'end of input'!r}",
                expected=frozenset({")"}),
            )
        span = Span(*self._position(offset), at + 1 - offset)
        return Ast(name, tuple(children), value, span)

    def _too_few(self, offset, name, sig, given, expected):
        self._fail(
            offset,
            f"too few arguments to {name!r}: expected {len(sig)}, got {given}",
            expected=frozenset({expected}),
            error_class="arity",
        )

    def _literal(self, arg: str) -> int | str:
        """Consume a "bits" literal (kept as its text) or a "nat" one."""
        kind, text, offset = self._next()
        if kind != "digits" or (arg == "bits" and set(text) - {"0", "1"}):
            what = "a bit string" if arg == "bits" else "a natural number"
            self._fail(
                offset,
                f"expected {what}, found {text or 'end of input'!r}",
                expected=frozenset({arg}),
            )
        if arg == "bits":
            return text
        limit = sys.get_int_max_str_digits()
        if limit and len(text) > limit:
            self._fail(
                offset,
                f"natural number literal has {len(text)} digits, "
                f"more than the limit of {limit}",
                expected=frozenset({arg}),
            )
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
    kind, name, offset = p.tokens[0]
    op = bitseq._OPERATORS.get(name) if kind == "name" else None
    if op is None:
        p._fail(
            offset,
            f"expected an expression, found {name or 'end of input'!r}",
            expected=SEQ_KINDS | ENUM_KINDS,
        )
    return p.parse_all(op[0])


def unparse(a: Ast) -> str:
    """Canonical textual form; parse(unparse(a)) == a modulo spans."""
    return bitseq._render(a, _spell, ",")


def _spell(a: Ast) -> tuple[str, list]:
    op = bitseq._OPERATORS.get(a.kind)
    if op is None:
        raise ValueError(f"unknown node kind {a.kind!r}")
    children = iter(a.children)
    return a.kind, [next(children) if arg in _TYPENAME else str(a.value) for arg in op[1]]


def _eval(root: Ast, want: str):
    """Build the node of every subexpression, children first, from an
    explicit stack; None in place of a type marks an expression whose
    children are built."""
    todo: list[tuple[Ast, str | None]] = [(root, want)]
    built: list = []
    while todo:
        a, want = todo.pop()
        if want is None:
            k = len(built) - len(a.children)
            built[k:] = [bitseq._node(a.kind, a.value, tuple(built[k:]))]
            continue
        op = bitseq._OPERATORS.get(a.kind)
        if op is None or op[0] != want:
            article = "a" if want == "seq" else "an"
            raise ValueError(f"not {article} {_TYPENAME[want]} expression: {a.kind!r}")
        operands = [arg for arg in op[1] if arg in _TYPENAME]
        if len(operands) != len(a.children):
            raise ValueError(f"{a.kind!r} takes {len(operands)} subexpressions")
        todo.append((a, None))
        todo += zip(reversed(a.children), reversed(operands))
    return built[0]


def eval_seq(a: Ast) -> BitSeq:
    """Denotation of a sequence expression (compositional and total)."""
    return _eval(a, "seq")


def eval_enum(a: Ast) -> Enumeration:
    """Denotation of an enumeration expression (compositional and total)."""
    return _eval(a, "enum")
