"""The package's immutable records: fields cannot be assigned or deleted,
equality and hashing go by class and fields (an Ast's span aside), and a
record shows and pickles as a call of its class on its fields."""

import pickle

import pytest

from enumerlab.audit import VERIFIED, ClaimReport
from enumerlab.diagonal import Certificate
from enumerlab.dsl import Ast, Span, parse
from enumerlab.pairing import GridPair, NodeAddr, node_to_pair
from enumerlab.tree import path_to_addr

RECORDS = [
    (Span(2, 3, 4), "Span(line=2, column=3, length=4)"),
    (Certificate(0, 1, 1, 0), "Certificate(row=0, position=1, left_bit=1, right_bit=0)"),
    (
        ClaimReport("C2", "anchor", 5, VERIFIED),
        "ClaimReport(claim_id='C2', anchor='anchor', depth=5, status='verified', "
        "witnesses=[], elapsed_ns=0)",
    ),
    (
        Ast("compl", (Ast("ones"),)),
        "Ast(kind='compl', children=(Ast(kind='ones', children=(), value=None, "
        "span=Span(line=1, column=1, length=0)),), value=None, "
        "span=Span(line=1, column=1, length=0))",
    ),
]


@pytest.mark.parametrize("record,shown", RECORDS, ids=[r[1].split("(")[0] for r in RECORDS])
def test_record(record, shown):
    assert repr(record) == shown
    field = shown.split("(")[1].split("=")[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    again = pickle.loads(pickle.dumps(record))
    assert again == record and repr(again) == shown
    assert record != object()


def test_equality_and_hash_go_by_class_and_fields():
    assert Certificate(3, 4, 0, 1) == Certificate(3, 4, 0, 1)
    assert Certificate(3, 4, 0, 1) != Certificate(3, 5, 0, 1)
    assert hash(Span(1, 2, 3)) == hash(Span(1, 2, 3))
    assert Span(1, 2, 3) != Span(1, 2, 4)


def test_ast_equality_and_hash_ignore_spans():
    a, b = parse("insert(figure5,3,ones)"), parse("insert( figure5 ,\n3, ones)")
    assert a.span != b.span and a.children[1].span != b.children[1].span
    assert a == b and hash(a) == hash(b)
    assert a != parse("insert(figure5,4,ones)") != parse("insert(figure5,3,zeros)")
    assert Ast("periodic", value="1") != Ast("periodic", value=1)


def test_long_int_fields_show_in_hex():
    # past the interpreter's decimal conversion limit an int shows in hex,
    # which reads back as the same int
    addr = path_to_addr("1" * 20000)
    assert eval(repr(addr), {"NodeAddr": NodeAddr}) == addr
    assert repr(addr).startswith("NodeAddr(level=20000, offset=0x")
    pair = node_to_pair(addr)
    assert eval(repr(pair), {"GridPair": GridPair}) == pair
    ast = Ast("natrow", (), 10**5000)
    assert eval(repr(ast), {"Ast": Ast, "Span": Span}) == ast
