"""Argument checks of the library functions: each bad argument raises
ValueError with a message that names it."""

import re
import sys

import pytest

from enumerlab import dsl
from enumerlab.bitseq import dyadic_bounds, ones, prefix
from enumerlab.listmatrix import submatrix_rows
from enumerlab.pairing import GridPair, pair_to_node
from enumerlab.tree import node_count, path_to_addr

LIMIT = sys.get_int_max_str_digits()
PAST_LIMIT = 10**LIMIT  # one decimal digit more than the interpreter converts


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: ones().block(1, -1), "block length must be >= 0, got -1"),
        (lambda: prefix(ones(), -1), "prefix length must be >= 0, got -1"),
        (lambda: dyadic_bounds(ones(), -1), "depth must be >= 0, got -1"),
        (lambda: pair_to_node(GridPair(-1, 0)), "grid coordinates must be >= 0, got (-1, 0)"),
        (lambda: path_to_addr("012"), "bit string expected, got '012'"),
        (lambda: node_count(-1), "depth must be >= 0, got -1"),
        (lambda: dsl.unparse(dsl.Ast("nope")), "unknown node kind 'nope'"),
        (lambda: dsl.unparse(dsl.Ast("natrow", (), PAST_LIMIT)),
         f"'natrow' value has more than {LIMIT} decimal digits"),
        (lambda: dsl.unparse(dsl.Ast("insert", (dsl.Ast("figure5"), dsl.Ast("zeros")), PAST_LIMIT)),
         f"'insert' value has more than {LIMIT} decimal digits"),
        (lambda: submatrix_rows(0), "submatrix width must be >= 1, got 0"),
    ],
    ids=["block", "prefix", "dyadic_bounds", "pair_to_node", "path_to_addr", "node_count",
         "unparse", "unparse-natrow-past-limit", "unparse-insert-past-limit", "submatrix_rows"],
)
def test_bad_argument(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
