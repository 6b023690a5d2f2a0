import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsl_corpus import PRODUCTION_SAMPLES, corpus_asts, random_enum_ast, random_seq_ast
from enumerlab.bitseq import nat_row, prefix
from enumerlab.diagonal import antidiagonal
from enumerlab.dsl import (
    ENUM_KINDS,
    SEQ_KINDS,
    Ast,
    ParseError,
    eval_enum,
    eval_seq,
    parse,
    parse_enum,
    parse_seq,
    unparse,
)


def test_parse_simple_sequence():
    ast = parse("ones")
    assert ast == Ast("ones")
    assert ast.is_seq


def test_parse_nested_program():
    ast = parse("diagc(interleave(const(ones),figure5))")
    assert ast.kind == "diagc"
    assert ast.is_seq
    inner = ast.children[0]
    assert inner.kind == "interleave"
    assert inner.children[0] == Ast("const", (Ast("ones"),))
    assert inner.children[1] == Ast("figure5")


def test_whitespace_insignificant():
    a = parse("insert( figure5 ,\n 1 , diagc(figure5) )")
    b = parse("insert(figure5,1,diagc(figure5))")
    assert a == b


def test_spans_cover_nodes():
    text = "compl( periodic(01) )"
    ast = parse(text)
    assert ast.span.line == 1 and ast.span.column == 1
    assert ast.span.length == len(text)
    inner = ast.children[0]
    covered = text[inner.span.column - 1 : inner.span.column - 1 + inner.span.length]
    assert covered == "periodic(01)"


def test_type_mismatch_interleave_of_sequences():
    with pytest.raises(ParseError) as exc:
        parse("interleave(ones,zeros)")
    assert exc.value.error_class == "type"
    assert exc.value.column == 12


def test_type_mismatch_seq_where_enum():
    with pytest.raises(ParseError) as exc:
        parse_seq("figure5")
    assert exc.value.error_class == "type"


def test_unknown_operator():
    with pytest.raises(ParseError) as exc:
        parse("bogus(1)")
    assert exc.value.error_class == "syntax"
    assert exc.value.line == 1 and exc.value.column == 1
    assert exc.value.expected


def test_arity_too_few():
    with pytest.raises(ParseError) as exc:
        parse("compl()")
    assert exc.value.error_class == "arity"


def test_arity_too_few_second_arg():
    with pytest.raises(ParseError) as exc:
        parse("prepend(01)")
    assert exc.value.error_class == "arity"


def test_arity_too_many():
    with pytest.raises(ParseError) as exc:
        parse("compl(ones,ones)")
    assert exc.value.error_class == "arity"


def test_bad_bits_literal():
    with pytest.raises(ParseError) as exc:
        parse("periodic(21)")
    assert exc.value.error_class == "syntax"
    assert exc.value.column == 10


def test_trailing_input():
    with pytest.raises(ParseError) as exc:
        parse("ones ones")
    assert exc.value.error_class == "syntax"
    assert exc.value.column == 6


def test_error_position_on_second_line():
    with pytest.raises(ParseError) as exc:
        parse("interleave(figure5,\n  wrong)")
    assert exc.value.line == 2
    assert exc.value.column == 3


def test_natrow_literal_beyond_digit_limit():
    text = "compl(\n  natrow(" + "9" * 5000 + "))"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (2, 10)
    assert exc.value.error_class == "syntax"
    assert exc.value.expected == frozenset({"nat"})
    assert exc.value.message == (
        "natural number literal has 5000 digits, more than the limit of 4300"
    )


def test_unexpected_character():
    with pytest.raises(ParseError):
        parse("compl(ones);")


@pytest.mark.parametrize(
    "text,column",
    [("natrow(²)", 8), ("natrow(١٢٣)", 8), ("natrow(1١)", 9), ("zérös", 2), ("ones٣", 5)],
)
def test_non_ascii_letters_and_digits_rejected(text, column):
    # str.isdigit accepts these; the grammar is ASCII only
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (1, column)
    assert exc.value.message == f"unexpected character {text[column - 1]!r}"


_PROGRAMS = sorted({unparse(ast) for ast in corpus_asts(size=60)})


@st.composite
def _edited_programs(draw):
    """A corpus program with one slice replaced by a short random text."""
    text = draw(st.sampled_from(_PROGRAMS))
    i = draw(st.integers(min_value=0, max_value=len(text)))
    j = draw(st.integers(min_value=i, max_value=len(text)))
    # digits of any script, which str.isdigit accepts
    digits = st.characters(categories=("Nd", "No"))
    return text[:i] + draw(st.text(max_size=4) | st.text(digits, max_size=4)) + text[j:]


# short texts and depth-3 programs nest far below the recursion limit
_TEXTS = st.text(max_size=40) | _edited_programs()


@settings(max_examples=500)
@given(_TEXTS)
def test_every_text_parses_or_raises_parse_error(text):
    try:
        ast = parse(text)
    except ParseError:
        return
    assert text.isascii()
    assert parse(unparse(ast)) == ast


def test_unparse_examples():
    assert unparse(parse("prepend(110,zeros)")) == "prepend(110,zeros)"
    assert (
        unparse(parse("insert( figure5, 3, compl(ones) )"))
        == "insert(figure5,3,compl(ones))"
    )


def test_roundtrip_corpus():
    asts = corpus_asts()
    assert len(asts) >= 500
    for ast in asts:
        assert parse(unparse(ast)) == ast


def test_every_production_reachable():
    kinds = set()
    for text in PRODUCTION_SAMPLES:
        kinds.add(parse(text).kind)
    for ast in corpus_asts():
        stack = [ast]
        while stack:
            node = stack.pop()
            kinds.add(node.kind)
            stack.extend(node.children)
    assert kinds == SEQ_KINDS | ENUM_KINDS


def test_eval_seq_examples():
    assert prefix(eval_seq(parse_seq("periodic(01)")), 6) == "010101"
    assert prefix(eval_seq(parse_seq("prepend(110,zeros)")), 6) == "110000"
    assert prefix(eval_seq(parse_seq("natrow(6)")), 8) == prefix(nat_row(6), 8)


def test_eval_enum_examples():
    E = eval_enum(parse_enum("figure5"))
    assert prefix(E.row(6), 4) == "0110"
    E2 = eval_enum(parse_enum("insert(figure5,1,diagc(figure5))"))
    assert prefix(E2.row(1), 32) == "1" * 32
    odd = eval_enum(parse_enum("splitodd(figure5)"))
    assert prefix(odd.row(1), 8) == prefix(nat_row(3), 8)


def test_denotational_stability():
    for ast in corpus_asts(seed=5, size=40):
        if ast.is_seq:
            a = prefix(eval_seq(ast), 256)
            b = prefix(eval_seq(ast), 256)
        else:
            a = prefix(eval_enum(ast).row(3), 256)
            b = prefix(eval_enum(ast).row(3), 256)
        assert a == b


# (program, message, line, column, expected set): one case per arity check
# in the parser, so the exact diagnostics are pinned
ARITY_ERRORS = [
    # a ')' where the ',' before the next argument belongs
    ("prepend(01)", "too few arguments to 'prepend': expected 2, got 1", 1, 11, {","}),
    ("interleave(figure5)", "too few arguments to 'interleave': expected 2, got 1", 1, 19, {","}),
    # a ')' where a sequence or enumeration argument belongs
    ("compl()", "too few arguments to 'compl': expected 1, got 0", 1, 7, {"seq"}),
    ("insert(figure5,3,)", "too few arguments to 'insert': expected 3, got 2", 1, 18, {"seq"}),
    # a ')' where a bits literal belongs
    ("periodic()", "too few arguments to 'periodic': expected 1, got 0", 1, 10, {"bits"}),
    ("prepend()", "too few arguments to 'prepend': expected 2, got 0", 1, 9, {"bits"}),
    # a ')' where a nat literal belongs
    ("natrow()", "too few arguments to 'natrow': expected 1, got 0", 1, 8, {"nat"}),
    ("insert(figure5,)", "too few arguments to 'insert': expected 3, got 1", 1, 16, {"nat"}),
    # a ',' where the closing ')' belongs
    ("compl(ones,ones)", "too many arguments to 'compl': expected 1", 1, 11, {")"}),
]


@pytest.mark.parametrize("text,message,line,column,expected", ARITY_ERRORS)
def test_arity_error_diagnostics(text, message, line, column, expected):
    with pytest.raises(ParseError) as exc:
        parse(text)
    err = exc.value
    assert err.error_class == "arity"
    assert (err.message, err.line, err.column) == (message, line, column)
    assert err.expected == frozenset(expected)
    assert str(err) == f"{line}:{column}: {message}"


# ---------------------------------------------------------------- reference

# perfbench/reference.py evaluates programs without enumerlab; it is put on
# the path here only, and enumerlab never imports it
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference  # noqa: E402


@st.composite
def _programs(draw):
    """A corpus program of nesting up to 5, as (ast, reference program)."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    depth = draw(st.integers(min_value=0, max_value=5))
    ast = random_seq_ast(rng, depth) if draw(st.booleans()) else random_enum_ast(rng, depth)
    return ast, reference.parse(unparse(ast))


_positions = st.integers(min_value=1, max_value=300)
_lengths = st.integers(min_value=0, max_value=40)
_rows = st.integers(min_value=0, max_value=40)


def _reference_block(bit, start, n):
    return sum(bit(start + k) << k for k in range(n))


@settings(max_examples=300, deadline=None)
@given(_programs(), _positions, _lengths, _rows)
def test_reads_agree_with_reference_evaluator(program, start, n, r):
    """bit_at and block of a sequence program; of an enumeration program,
    one bit of each of rows 0-40, a block of row r, and a block of the
    diagonal complement over rows r..r+n-1."""
    ast, ref = program
    if ast.is_seq:
        s = eval_seq(ast)
        assert s.bit_at(start) == reference.bit(ref, start)
        assert s.block(start, n) == _reference_block(lambda i: reference.bit(ref, i), start, n)
        return
    E = eval_enum(ast)
    for q in range(41):
        assert E.row(q).bit_at(start) == reference.bit(ref, start, row=q), q
    assert E.row(r).block(start, n) == _reference_block(
        lambda i: reference.bit(ref, i, row=r), start, n
    )
    assert antidiagonal(E).block(r + 1, n) == _reference_block(
        lambda i: reference.complement_bit(ref, i), r + 1, n
    )
