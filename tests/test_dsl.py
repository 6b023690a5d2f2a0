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


_BOTH = SEQ_KINDS | ENUM_KINDS
_TOKENS = {"name", "digits", "(", ")", ","}

# (check in the parser, entry point, program, message, line, column,
# expected set, error class): at least one row for every check, with a
# multi-line and a blank-heavy program, so every diagnostic is pinned
PARSE_ERRORS = [
    ("character", parse, "compl(ones);", "unexpected character ';'", 1, 12, _TOKENS, "syntax"),
    ("character-line-2", parse, "compl(\n ones)?", "unexpected character '?'", 2, 7, _TOKENS,
     "syntax"),
    ("trailing", parse, "ones ones", "trailing input after expression: 'ones'", 1, 6,
     {"end of input"}, "syntax"),
    ("trailing-rparen", parse_seq, "ones)", "trailing input after expression: ')'", 1, 5,
     {"end of input"}, "syntax"),
    ("no-expression", parse, "compl(,)", "expected a sequence expression, found ','", 1, 7,
     SEQ_KINDS, "syntax"),
    ("no-expression-digits", parse, "compl(12)", "expected a sequence expression, found '12'",
     1, 7, SEQ_KINDS, "syntax"),
    ("no-expression-eof", parse, "compl(",
     "expected a sequence expression, found 'end of input'", 1, 7, SEQ_KINDS, "syntax"),
    ("no-expression-empty", parse_enum, "",
     "expected an enumeration expression, found 'end of input'", 1, 1, ENUM_KINDS, "syntax"),
    ("unknown", parse, "compl(bogus)", "unknown operator 'bogus'", 1, 7, SEQ_KINDS, "syntax"),
    ("unknown-enum", parse, "spliteven(onez)", "unknown operator 'onez'", 1, 11, ENUM_KINDS,
     "syntax"),
    ("type-enum", parse, "interleave(ones,zeros)",
     "'ones' is a sequence operator, but an enumeration expression is required here", 1, 12,
     ENUM_KINDS, "type"),
    ("type-enum-head", parse_enum, "ones",
     "'ones' is a sequence operator, but an enumeration expression is required here", 1, 1,
     ENUM_KINDS, "type"),
    ("type-seq-head", parse_seq, "figure5",
     "'figure5' is an enumeration operator, but a sequence expression is required here", 1, 1,
     SEQ_KINDS, "type"),
    ("lparen", parse, "compl ones", "expected (, found 'ones'", 1, 7, {"("}, "syntax"),
    ("lparen-eof", parse, "compl", "expected (, found 'end of input'", 1, 6, {"("}, "syntax"),
    ("too-few-comma", parse, "interleave(\n  figure5\n)",
     "too few arguments to 'interleave': expected 2, got 1", 3, 1, {","}, "arity"),
    ("comma", parse, "prepend(01 ones)", "expected ',', found 'ones'", 1, 12, {","}, "syntax"),
    ("comma-eof", parse, "prepend(01", "expected ',', found 'end of input'", 1, 11, {","},
     "syntax"),
    ("too-few-arg", parse, "insert(figure5, 3,\n )",
     "too few arguments to 'insert': expected 3, got 2", 2, 2, {"seq"}, "arity"),
    ("too-many", parse, "  \t compl (\r\n\n   ones  ,  ones )  ",
     "too many arguments to 'compl': expected 1", 3, 10, {")"}, "arity"),
    ("rparen", parse, "compl(ones ones)", "expected ')', found 'ones'", 1, 12, {")"},
     "syntax"),
    ("rparen-eof", parse, "compl(ones", "expected ')', found 'end of input'", 1, 11, {")"},
     "syntax"),
    ("bits", parse, "periodic(21)", "expected a bit string, found '21'", 1, 10, {"bits"},
     "syntax"),
    ("nat", parse, "natrow(x)", "expected a natural number, found 'x'", 1, 8, {"nat"},
     "syntax"),
    ("nat-eof", parse, "natrow(", "expected a natural number, found 'end of input'", 1, 8,
     {"nat"}, "syntax"),
    ("nat-digits", parse, "natrow(" + "9" * 4301 + ")",
     "natural number literal has 4301 digits, more than the limit of 4300", 1, 8, {"nat"},
     "syntax"),
    ("head-eof", parse, "", "expected an expression, found 'end of input'", 1, 1, _BOTH,
     "syntax"),
    ("head-lparen", parse, "(ones)", "expected an expression, found '('", 1, 1, _BOTH,
     "syntax"),
    ("head-unknown", parse, "bogus(1)", "expected an expression, found 'bogus'", 1, 1, _BOTH,
     "syntax"),
    ("multi-line", parse, "insert(\n  figure5,\n  3,\n  compl(\n    onez))",
     "unknown operator 'onez'", 5, 5, SEQ_KINDS, "syntax"),
    ("blank-heavy", parse, "\n\n  interleave ( figure5 ,\n\n\tconst( ones ) ) \n x",
     "trailing input after expression: 'x'", 6, 2, {"end of input"}, "syntax"),
]


@pytest.mark.parametrize(
    "entry,text,message,line,column,expected,error_class",
    [row[1:] for row in PARSE_ERRORS],
    ids=[row[0] for row in PARSE_ERRORS],
)
def test_parse_error_diagnostics(entry, text, message, line, column, expected, error_class):
    with pytest.raises(ParseError) as exc:
        entry(text)
    err = exc.value
    assert (err.message, err.line, err.column) == (message, line, column)
    assert (err.expected, err.error_class) == (frozenset(expected), error_class)
    assert str(err) == f"{line}:{column}: {message}"


def test_spans_of_a_two_line_program():
    ast = parse("insert(figure5, 2,\n  compl(periodic(01)))")
    spans, todo = [], [ast]
    while todo:
        node = todo.pop()
        spans.append((node.kind, node.span.line, node.span.column, node.span.length))
        todo.extend(reversed(node.children))
    assert spans == [
        ("insert", 1, 1, 41),
        ("figure5", 1, 8, 7),
        ("compl", 2, 3, 19),
        ("periodic", 2, 9, 12),
    ]



# (entry point, hand-built tree, message): the checks evaluation makes
EVAL_ERRORS = [
    (eval_seq, Ast("figure5"), "not a sequence expression: 'figure5'"),
    (eval_enum, Ast("compl", (Ast("ones"),)), "not an enumeration expression: 'compl'"),
    (eval_seq, Ast("bogus"), "not a sequence expression: 'bogus'"),
    (eval_seq, Ast("compl"), "'compl' takes 1 subexpressions"),
    (eval_enum, Ast("interleave", (Ast("spliteven"), Ast("ones"))),
     "'spliteven' takes 1 subexpressions"),
    (eval_enum, Ast("interleave", (Ast("ones"), Ast("zeros"))),
     "not an enumeration expression: 'ones'"),
    (eval_seq, Ast("prepend", (Ast("ones"),), "2"), "bit string expected, got '2'"),
    (eval_enum, Ast("insert", (Ast("figure5"), Ast("ones")), -2),
     "insertion index must be >= 0, got -2"),
]


@pytest.mark.parametrize("entry,ast,message", EVAL_ERRORS)
def test_eval_error_messages(entry, ast, message):
    with pytest.raises(ValueError) as exc:
        entry(ast)
    assert str(exc.value) == message

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
