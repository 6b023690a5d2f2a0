"""Argument checks of the library functions: each bad argument raises
ValueError with a message that names it."""

import re
import sys

import pytest

from enumerlab import audit, dsl
from enumerlab.bitseq import BitSeq, dyadic_bounds, eq_prefix, ones, prefix
from enumerlab.diagonal import Certificate, certificates
from enumerlab.figures import render_figure
from enumerlab.listmatrix import entry, matrix_enumeration, submatrix_rows
from enumerlab.pairing import (
    GridPair,
    NodeAddr,
    level_pairs,
    pair_to_node,
    row_label,
    zigzag_decode,
    zigzag_encode,
)
from enumerlab.tree import node_count, path_to_addr, paths_at_depth

LIMIT = sys.get_int_max_str_digits()
PAST_LIMIT = 10**LIMIT  # one decimal digit more than the interpreter converts
HUGE = hex(PAST_LIMIT)
NEG = hex(-PAST_LIMIT)


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
        # an int past the interpreter's decimal limit shows in hex
        (lambda: NodeAddr(-PAST_LIMIT, 0), f"level must be >= 0, got {NEG}"),
        (lambda: NodeAddr(1, PAST_LIMIT), f"offset {HUGE} out of range for level 1"),
        (lambda: zigzag_encode(GridPair(-PAST_LIMIT, 0)),
         f"grid coordinates must be >= 0, got ({NEG}, 0)"),
        (lambda: zigzag_decode(-PAST_LIMIT), f"walk index must be >= 0, got {NEG}"),
        (lambda: level_pairs(-PAST_LIMIT), f"level must be >= 0, got {NEG}"),
        (lambda: pair_to_node(GridPair(0, -PAST_LIMIT)),
         f"grid coordinates must be >= 0, got (0, {NEG})"),
        (lambda: row_label(-PAST_LIMIT), f"row index must be >= 0, got {NEG}"),
        (lambda: entry(PAST_LIMIT, -PAST_LIMIT),
         f"matrix indices must be >= 0, got ({HUGE}, {NEG})"),
        (lambda: submatrix_rows(-PAST_LIMIT), f"submatrix width must be >= 1, got {NEG}"),
        (lambda: ones().block(-PAST_LIMIT, 1), f"positions are 1-based, got {NEG}"),
        (lambda: ones().block(1, -PAST_LIMIT), f"block length must be >= 0, got {NEG}"),
        (lambda: matrix_enumeration().row(-PAST_LIMIT),
         f"row indices are 0-based naturals, got {NEG}"),
        (lambda: BitSeq(lambda i: PAST_LIMIT).bit_at(PAST_LIMIT),
         f"bit at position {HUGE} must be 0 or 1, got {HUGE}"),
        (lambda: prefix(ones(), -PAST_LIMIT), f"prefix length must be >= 0, got {NEG}"),
        (lambda: dyadic_bounds(ones(), -PAST_LIMIT), f"depth must be >= 0, got {NEG}"),
        (lambda: eq_prefix(ones(), ones(), -PAST_LIMIT),
         f"compared length n must be >= 0, got {NEG}"),
        (lambda: Certificate(0, -PAST_LIMIT, 0, 1), f"positions are 1-based, got {NEG}"),
        (lambda: certificates(matrix_enumeration(), -PAST_LIMIT),
         f"row count upto must be >= 0, got {NEG}"),
        (lambda: paths_at_depth(-PAST_LIMIT), f"path length must be >= 1, got {NEG}"),
        (lambda: node_count(-PAST_LIMIT), f"depth must be >= 0, got {NEG}"),
        (lambda: audit.run_claim("C1", -PAST_LIMIT), f"depth must be >= 0, got {NEG}"),
        (lambda: render_figure(PAST_LIMIT), f"figure number must be 1..6, got {HUGE}"),
        (lambda: render_figure(2, depth=-PAST_LIMIT), f"depth must be >= 0, got {NEG}"),
    ],
    ids=["block", "prefix", "dyadic_bounds", "pair_to_node", "path_to_addr", "node_count",
         "unparse", "unparse-natrow-past-limit", "unparse-insert-past-limit", "submatrix_rows",
         "NodeAddr-level-past-limit", "NodeAddr-offset-past-limit",
         "zigzag_encode-past-limit", "zigzag_decode-past-limit", "level_pairs-past-limit",
         "pair_to_node-past-limit", "row_label-past-limit", "entry-past-limit",
         "submatrix_rows-past-limit", "block-start-past-limit", "block-length-past-limit",
         "row-past-limit", "rule-bit-past-limit", "prefix-past-limit",
         "dyadic_bounds-past-limit", "eq_prefix-past-limit", "Certificate-past-limit",
         "certificates-past-limit", "paths_at_depth-past-limit", "node_count-past-limit",
         "run_claim-past-limit", "render_figure-number-past-limit",
         "render_figure-size-past-limit"],
)
def test_bad_argument(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
