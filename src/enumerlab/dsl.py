"""A small closed expression language for building sequences and
enumerations, with a recursive-descent parser.

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

import string
import sys
from dataclasses import dataclass, field
from typing import Callable

from . import bitseq, diagonal, listmatrix
from .bitseq import BitSeq
from .diagonal import Enumeration

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


class _Op:
    """One operator: the type of value it denotes ("seq" or "enum"), its
    argument signature over "bits", "nat", "seq" and "enum", and its
    constructor, called as build(literal, *evaluated subexpressions)."""

    __slots__ = ("type", "sig", "operands", "build")

    def __init__(self, type_: str, sig: tuple[str, ...], build: Callable):
        self.type = type_
        self.sig = sig
        # the types of the subexpression arguments, in order
        self.operands = tuple(arg for arg in sig if arg in _TYPENAME)
        self.build = build


# The constructors look their target up at call time (bitseq.zeros, not a
# bound copy), so a module attribute rebound at run time, by a tracer or a
# test, is seen by every evaluation.
_OPS: dict[str, _Op] = {
    "zeros": _Op("seq", (), lambda value: bitseq.zeros()),
    "ones": _Op("seq", (), lambda value: bitseq.ones()),
    "periodic": _Op("seq", ("bits",), lambda value: bitseq.periodic(value)),
    "natrow": _Op("seq", ("nat",), lambda value: bitseq.nat_row(value)),
    "prepend": _Op("seq", ("bits", "seq"), lambda value, s: bitseq.prepend(value, s)),
    "compl": _Op("seq", ("seq",), lambda value, s: bitseq.complement(s)),
    "diagc": _Op("seq", ("enum",), lambda value, E: diagonal.antidiagonal(E)),
    "figure5": _Op("enum", (), lambda value: listmatrix.matrix_enumeration()),
    "const": _Op("enum", ("seq",), lambda value, s: diagonal.constant(s)),
    "interleave": _Op(
        "enum", ("enum", "enum"), lambda value, Ea, Eb: diagonal.interleave(Ea, Eb)
    ),
    "spliteven": _Op("enum", ("enum",), lambda value, E: diagonal.split(E)[0]),
    "splitodd": _Op("enum", ("enum",), lambda value, E: diagonal.split(E)[1]),
    "insert": _Op(
        "enum", ("enum", "nat", "seq"), lambda value, E, s: diagonal.insert(E, value, s)
    ),
}

SEQ_KINDS = frozenset(k for k, op in _OPS.items() if op.type == "seq")
ENUM_KINDS = frozenset(k for k, op in _OPS.items() if op.type == "enum")
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


@dataclass(frozen=True)
class _Token:
    kind: str  # "name", "digits", "lparen", "rparen", "comma", "eof"
    text: str
    offset: int
    line: int
    column: int


# ASCII only, as the grammar says: str.isdigit also takes '²', which int()
# rejects, and '١', which int() reads as 1
_LETTERS = frozenset(string.ascii_letters)
_DIGITS = frozenset(string.digits)
_LETTERS_DIGITS = _LETTERS | _DIGITS


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        col = i - line_start + 1
        if ch in _LETTERS:
            j = i
            while j < n and text[j] in _LETTERS_DIGITS:
                j += 1
            tokens.append(_Token("name", text[i:j], i, line, col))
            i = j
        elif ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("digits", text[i:j], i, line, col))
            i = j
        elif ch == "(":
            tokens.append(_Token("lparen", ch, i, line, col))
            i += 1
        elif ch == ")":
            tokens.append(_Token("rparen", ch, i, line, col))
            i += 1
        elif ch == ",":
            tokens.append(_Token("comma", ch, i, line, col))
            i += 1
        else:
            raise ParseError(
                f"unexpected character {ch!r}",
                line,
                col,
                expected=frozenset({"name", "digits", "(", ")", ","}),
            )
    tokens.append(_Token("eof", "", n, line, n - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _fail(self, tok, message, expected=frozenset(), error_class="syntax"):
        raise ParseError(message, tok.line, tok.column, expected, error_class)

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self._next()
        if tok.kind != kind:
            self._fail(
                tok,
                f"expected {what}, found {tok.text or 'end of input'!r}",
                expected=frozenset({what}),
            )
        return tok

    def parse_expr(self, want: str) -> Ast:
        """Parse one expression of type `want` ("seq" or "enum").  Nested
        arguments recurse straight back into parse_expr, one frame per
        nesting level."""
        kinds = _KINDS[want]
        tok = self._next()
        if tok.kind != "name":
            self._fail(
                tok,
                f"expected a {_TYPENAME[want]} expression, "
                f"found {tok.text or 'end of input'!r}",
                expected=kinds,
            )
        name = tok.text
        op = _OPS.get(name)
        if op is None:
            self._fail(tok, f"unknown operator {name!r}", expected=kinds)
        if op.type != want:
            self._fail(
                tok,
                f"{name!r} is an {_TYPENAME[op.type]} operator, "
                f"but a {_TYPENAME[want]} expression is required here",
                expected=kinds,
                error_class="type",
            )
        sig = op.sig
        if not sig:
            return Ast(name, span=self._span(tok, tok.offset + len(tok.text)))
        self._expect("lparen", "(")
        children: list[Ast] = []
        value: int | str | None = None
        for idx, arg in enumerate(sig):
            if idx > 0:
                sep = self._next()
                if sep.kind == "rparen":
                    self._too_few(sep, name, sig, idx, ",")
                if sep.kind != "comma":
                    self._fail(
                        sep,
                        f"expected ',', found {sep.text!r}",
                        expected=frozenset({","}),
                    )
            nxt = self._peek()
            if nxt.kind == "rparen":
                self._too_few(nxt, name, sig, idx, arg)
            if arg in _TYPENAME:
                children.append(self.parse_expr(arg))
            else:
                value = self._literal(arg)
        closer = self._next()
        if closer.kind == "comma":
            self._fail(
                closer,
                f"too many arguments to {name!r}: expected {len(sig)}",
                expected=frozenset({")"}),
                error_class="arity",
            )
        if closer.kind != "rparen":
            self._fail(
                closer,
                f"expected ')', found {closer.text or 'end of input'!r}",
                expected=frozenset({")"}),
            )
        end = closer.offset + 1
        return Ast(name, tuple(children), value, self._span(tok, end))

    def _too_few(self, tok, name, sig, given, expected):
        self._fail(
            tok,
            f"too few arguments to {name!r}: expected {len(sig)}, got {given}",
            expected=frozenset({expected}),
            error_class="arity",
        )

    def _literal(self, arg: str) -> int | str:
        """Consume a "bits" literal (kept as its text) or a "nat" one."""
        lit = self._next()
        if lit.kind != "digits" or (arg == "bits" and set(lit.text) - {"0", "1"}):
            what = "a bit string" if arg == "bits" else "a natural number"
            self._fail(
                lit,
                f"expected {what}, found {lit.text or 'end of input'!r}",
                expected=frozenset({arg}),
            )
        if arg == "bits":
            return lit.text
        limit = sys.get_int_max_str_digits()
        if limit and len(lit.text) > limit:
            self._fail(
                lit,
                f"natural number literal has {len(lit.text)} digits, "
                f"more than the limit of {limit}",
                expected=frozenset({arg}),
            )
        return int(lit.text)

    def _span(self, head: _Token, end_offset: int) -> Span:
        return Span(head.line, head.column, end_offset - head.offset)

    def finish(self, ast: Ast) -> Ast:
        tok = self._peek()
        if tok.kind != "eof":
            self._fail(
                tok,
                f"trailing input after expression: {tok.text!r}",
                expected=frozenset({"end of input"}),
            )
        return ast


def parse_seq(text: str) -> Ast:
    """Parse a sequence expression; raises ParseError on failure."""
    p = _Parser(text)
    return p.finish(p.parse_expr("seq"))


def parse_enum(text: str) -> Ast:
    """Parse an enumeration expression; raises ParseError on failure."""
    p = _Parser(text)
    return p.finish(p.parse_expr("enum"))


def parse(text: str) -> Ast:
    """Parse a program of either type.

    The grammar is keyword-disjoint, so the head operator decides the
    type; unknown heads report the union of both operator sets.
    """
    p = _Parser(text)
    head = p._peek()
    op = _OPS.get(head.text) if head.kind == "name" else None
    if op is None:
        p._fail(
            head,
            f"expected an expression, found {head.text or 'end of input'!r}",
            expected=SEQ_KINDS | ENUM_KINDS,
        )
    return p.finish(p.parse_expr(op.type))


def unparse(a: Ast) -> str:
    """Canonical textual form; parse(unparse(a)) == a modulo spans."""
    op = _OPS.get(a.kind)
    if op is None:
        raise ValueError(f"unknown node kind {a.kind!r}")
    if not op.sig:
        return a.kind
    parts: list[str] = []
    child_iter = iter(a.children)
    for arg in op.sig:
        if arg in _TYPENAME:
            parts.append(unparse(next(child_iter)))
        else:
            parts.append(str(a.value))
    return f"{a.kind}({','.join(parts)})"


def _eval(a: Ast, want: str):
    op = _OPS.get(a.kind)
    if op is None or op.type != want:
        article = "a" if want == "seq" else "an"
        raise ValueError(f"not {article} {_TYPENAME[want]} expression: {a.kind!r}")
    # map calls _eval directly: a comprehension or lambda here would add a
    # second frame per nesting level and halve the deepest program that
    # evaluates within the recursion limit
    return op.build(a.value, *map(_eval, a.children, op.operands))


def eval_seq(a: Ast) -> BitSeq:
    """Denotation of a sequence expression (compositional and total)."""
    return _eval(a, "seq")


def eval_enum(a: Ast) -> Enumeration:
    """Denotation of an enumeration expression (compositional and total)."""
    return _eval(a, "enum")
