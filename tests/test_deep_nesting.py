"""Values nested far deeper than Python's recursion limit: built by the
program language or by library calls, every one parses, evaluates, reads,
describes and prints, and a parsed program compares, hashes and shows.
Expected bits are worked out by hand from the operators' definitions."""

import gc

import pytest

from enumerlab import bitseq, diagonal, listmatrix
from enumerlab.cli import dispatch
from enumerlab.dsl import eval_enum, eval_seq, parse, unparse

DEPTH = 10**5


@pytest.fixture(autouse=True)
def no_cycle_collection():
    """Each test builds about 10^6 acyclic objects; passes of the cycle
    collector over them would only add time."""
    gc.disable()
    yield
    gc.enable()


def chain(opening, leaf, closing, depth=DEPTH):
    return opening * depth + leaf + closing * depth


def bits(s, start, n):
    """Bits start..start+n-1 of s as a string, through one block read."""
    return format(s.block(start, n), f"0{n}b")[::-1]


def read_compl(s):
    # an even number of complements: periodic(011) itself
    assert bits(s, 1, 9) == "011011011"
    assert bits(bitseq.complement(s), 2, 4) == "0010"


def read_prepend(s):
    assert s.bit_at(2 * DEPTH - 1) == 1 and s.bit_at(2 * DEPTH + 2) == 1
    assert bits(s, 2 * DEPTH - 3, 8) == "10100110"


def read_diagc_const(s):
    # bit i goes through every level, each flipping it: nat_row(6) itself
    assert bits(s, 1, 8) == "01100000"
    assert bits(diagonal.antidiagonal(diagonal.constant(s)), 1, 4) == "1001"


def read_interleave(E):
    # row r leaves the chain after its trailing 1-bits and one 0-bit, at
    # matrix row r >> (trailing ones + 1)
    assert bits(E.row(6), 1, 4) == "1100"
    assert bits(E.row(5), 1, 4) == "1000"
    assert E.row((1 << 200) - 1).block(1, 8) == 0
    assert bits(diagonal.antidiagonal(E), 1, 6) == "111111"


def read_spliteven(E):
    # row r is matrix row r * 2^DEPTH
    assert E.row(0).block(1, 64) == 0
    assert E.row(3).block(DEPTH - 1, 4) == 0b1100
    assert diagonal.antidiagonal(E).bit_at(1) == 1


def read_splitodd(E):
    assert bits(E.row(2), 1, 8) == "11111111"


def read_insert(E):
    # rows 0-2 pass every level down to the matrix; from row 3 on, each
    # level takes one off the row until it is 3: the inserted ones()
    assert bits(E.row(1), 1, 4) == "1000"
    assert bits(E.row(7), 5, 4) == "1111"
    assert bits(diagonal.antidiagonal(E), 1, 4) == "1110"


# name: (program opening, leaf, closing per level; the same for the
# description; reads).  Every operator of the language occurs, nested
# DEPTH deep or as the leaf at the bottom.
CHAINS = {
    "compl": (
        ("compl(", "periodic(011)", ")"),
        ("complement(", "periodic(011)", ")"),
        read_compl,
    ),
    "prepend": (
        ("prepend(10,", "periodic(011)", ")"),
        ("prepend(10, ", "periodic(011)", ")"),
        read_prepend,
    ),
    "diagc-const": (
        ("diagc(const(", "natrow(6)", "))"),
        ("antidiagonal(constant(", "nat_row(6)", "))"),
        read_diagc_const,
    ),
    "interleave": (
        ("interleave(figure5,", "figure5", ")"),
        ("interleave(truth-table matrix, ", "truth-table matrix", ")"),
        read_interleave,
    ),
    "spliteven": (
        ("spliteven(", "figure5", ")"),
        ("spliteven(", "truth-table matrix", ")"),
        read_spliteven,
    ),
    "splitodd": (
        ("splitodd(", "const(ones)", ")"),
        ("splitodd(", "constant(ones)", ")"),
        read_splitodd,
    ),
    "insert": (
        ("insert(", "figure5", ",3,ones)"),
        ("insert(", "truth-table matrix", ", 3, ones)"),
        read_insert,
    ),
}


@pytest.mark.parametrize("name", CHAINS)
def test_program_nested_1e5_deep(name):
    spelling, described, read = CHAINS[name]
    text = chain(*spelling)
    ast = parse(text)
    assert unparse(ast) == text
    again = parse(unparse(ast))
    assert again == ast and hash(again) == hash(ast)
    # the root's fields close the text
    assert repr(ast).endswith(f"span=Span(line=1, column=1, length={len(text)}))")
    value = eval_seq(ast) if ast.is_seq else eval_enum(ast)
    assert value.description == chain(*described)
    read(value)


# For each enumeration chain nested DIAGONAL_DEPTH deep: bits 1..64 and
# DIAGONAL_DEPTH-20..DIAGONAL_DEPTH+19 of its antidiagonal (of the
# diagc-const chain itself), pinned from reads of one bit_at per bit.
DIAGONAL_DEPTH = 10**4
DIAGONAL_BLOCKS = {
    "spliteven": (0xFFFFFFFFFFFFFFFF, 0xFB1DFFFFFF),
    "splitodd": (0, 0),
    "interleave": (0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFF),
    # rows 3..DIAGONAL_DEPTH+2 are the inserted ones()
    "insert": (0x7, 0xFFFF000000),
    "diagc-const": (0x6, 0),
}


@pytest.mark.parametrize("name", DIAGONAL_BLOCKS)
def test_diagonal_blocks_of_1e4_deep_chains(name):
    ast = parse(chain(*CHAINS[name][0], depth=DIAGONAL_DEPTH))
    x = eval_seq(ast) if ast.is_seq else diagonal.antidiagonal(eval_enum(ast))
    assert x.block(1, 64) == DIAGONAL_BLOCKS[name][0]
    assert x.block(DIAGONAL_DEPTH - 20, 40) == DIAGONAL_BLOCKS[name][1]


# 64-bit antidiagonal blocks of DEPTH-deep split chains over the matrix.
# Row r of the chain is matrix row r * 2^DEPTH, plus 2^DEPTH - 1 for
# splitodd, so antidiagonal bits up to DEPTH are 1 for spliteven and 0 for
# splitodd, and bit p past DEPTH is the complement of bit p - 1 - DEPTH of
# p - 1.
SPLIT_CHAIN_BLOCKS = {
    "spliteven": (0xFFFFFFFFFFFFFFFF, 0xFFFFFFCF2BFFFFFF),
    "splitodd": (0, 0xFFFFFFCF2BE00000),
}


@pytest.mark.parametrize("name", SPLIT_CHAIN_BLOCKS)
def test_antidiagonal_blocks_of_1e5_deep_split_chains(name):
    E = listmatrix.matrix_enumeration()
    for _ in range(DEPTH):
        E = diagonal.split(E)[name == "splitodd"]
    x = diagonal.antidiagonal(E)
    assert x.block(1, 64) == SPLIT_CHAIN_BLOCKS[name][0]
    assert x.block(DEPTH - 20, 64) == SPLIT_CHAIN_BLOCKS[name][1]


def test_library_complement_and_prepend_loops():
    s = bitseq.periodic("011")
    for _ in range(DEPTH):
        s = bitseq.complement(s)
    assert bitseq.prefix(s, 7) == "0110110"
    assert s.description == chain("complement(", "periodic(011)", ")")
    t = bitseq.zeros()
    for _ in range(DEPTH):
        t = bitseq.prepend("1", t)
    assert t.eventually_zero_bound == DEPTH
    assert t.bit_at(1) == 1 and t.bit_at(DEPTH + 1) == 0
    assert t.block(DEPTH - 2, 6) == 0b000111
    assert repr(t) == "BitSeq(" + chain("prepend(1, ", "zeros", ")") + ")"


def test_library_insert_split_interleave_loops():
    E = diagonal.constant(bitseq.zeros())
    for k in range(DEPTH):
        E = diagonal.insert(E, 0, bitseq.nat_row(k))
    # row r is the sequence inserted last but r
    assert E.row(0).block(1, 20) == DEPTH - 1
    assert E.row(DEPTH - 1 - 6).block(1, 8) == 6
    assert E.row(DEPTH).block(1, 8) == 0
    assert E.description.startswith(
        "insert(" * DEPTH + "constant(zeros), 0, nat_row(0)), 0, nat_row(1)), "
    )
    # the even half of interleave(E, F) is E again
    E = listmatrix.matrix_enumeration()
    for _ in range(DEPTH):
        E = diagonal.split(diagonal.interleave(E, diagonal.constant(bitseq.ones())))[0]
    assert E.row(13).block(1, 8) == 13
    assert diagonal.antidiagonal(E).block(1, 16) == 0xFFFF
    assert E.description == chain(
        "spliteven(interleave(", "truth-table matrix", ", constant(ones)))"
    )
    # row 0 goes down every interleave's first child; any other row meets
    # constant(ones) on the way
    E = listmatrix.matrix_enumeration()
    for _ in range(DEPTH):
        E = diagonal.interleave(E, diagonal.constant(bitseq.ones()))
    assert E.row(0).block(1, 8) == 0 and E.row(6).block(1, 8) == 0xFF
    assert diagonal.antidiagonal(E).block(1, 8) == 0b00000001


def test_cli_reads_3000_deep_program_file(capsys, tmp_path):
    path = tmp_path / "deep.txt"
    path.write_text("const(" + chain("compl(", "ones", ")", 3000) + ")\n", encoding="utf-8")
    code = dispatch(["diag", "apply", "--program-file", str(path), "--rows", "2", "--prefix", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "row 0: 11111111\nrow 1: 11111111\ndiagonal complement: 00000000\n"
