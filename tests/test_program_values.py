"""Pin what sequences and enumerations print and read: repr, description
and leading bits of about 300 corpus programs and of every public
constructor.

Regenerate the golden (only when a change of output is intended) with

    PYTHONPATH=src:tests python tests/test_program_values.py
"""

import json
from pathlib import Path

from dsl_corpus import corpus_asts
from enumerlab import audit, bitseq, diagonal, listmatrix
from enumerlab.bitseq import prefix
from enumerlab.dsl import eval_enum, eval_seq, unparse

GOLDEN = Path(__file__).resolve().parent / "golden" / "program_values.json"
BITS = 128


def _seq_entry(s) -> dict:
    return {"repr": repr(s), "description": s.description, "prefix": prefix(s, BITS)}


def _enum_entry(E) -> dict:
    return {
        "repr": repr(E),
        "description": E.description,
        "rows": [prefix(E.row(r), BITS) for r in range(4)],
        "complement": prefix(diagonal.antidiagonal(E), BITS),
    }


def _entry(value) -> dict:
    return _enum_entry(value) if hasattr(value, "row") else _seq_entry(value)


def constructor_values() -> dict:
    matrix = listmatrix.matrix_enumeration()
    even, odd = diagonal.split(matrix)
    values = {
        "zeros()": bitseq.zeros(),
        "ones()": bitseq.ones(),
        "periodic('0110')": bitseq.periodic("0110"),
        "nat_row(6)": bitseq.nat_row(6),
        "nat_row(0)": bitseq.nat_row(0),
        "nat_row(10**5000)": bitseq.nat_row(10**5000),
        "prepend('10', nat_row(10**5000))": bitseq.prepend("10", bitseq.nat_row(10**5000)),
        "prepend('', ones())": bitseq.prepend("", bitseq.ones()),
        "complement(periodic('01'))": bitseq.complement(bitseq.periodic("01")),
        "BitSeq(rule)": bitseq.BitSeq(lambda i: int(i % 3 == 0)),
        "BitSeq(rule, bound, description)": bitseq.BitSeq(
            lambda i: 0, eventually_zero_bound=0, description="mine"
        ),
        "matrix_enumeration()": matrix,
        "constant(ones())": diagonal.constant(bitseq.ones()),
        "antidiagonal(matrix)": diagonal.antidiagonal(matrix),
        "split(matrix)[0]": even,
        "split(matrix)[1]": odd,
        "interleave(even, odd)": diagonal.interleave(even, odd),
        "insert(matrix, 2, ones())": diagonal.insert(matrix, 2, bitseq.ones()),
        "Enumeration(rule)": bitseq.Enumeration(bitseq.nat_row),
        "Enumeration(rule, description)": bitseq.Enumeration(
            lambda r: bitseq.periodic("01" if r % 2 else "1"), description="mine"
        ),
    }
    for k, E in enumerate(audit._battery()):
        values[f"audit battery {k}"] = E
    return {name: _entry(v) for name, v in values.items()}


def program_values() -> dict:
    """The first 300 distinct programs of a fixed-seed corpus."""
    out = {}
    for ast in corpus_asts(seed=6, size=1000, depth=4):
        value = eval_seq(ast) if ast.is_seq else eval_enum(ast)
        out[unparse(ast)] = _entry(value)
        if len(out) == 300:
            return out
    raise AssertionError("the corpus holds fewer than 300 distinct programs")


def current() -> dict:
    return {"constructors": constructor_values(), "programs": program_values()}


def test_values_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    now = current()
    assert list(now["programs"]) == list(golden["programs"])
    for section in ("constructors", "programs"):
        for key, want in golden[section].items():
            assert now[section][key] == want, key
    assert now == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current(), indent=1) + "\n", encoding="utf-8")
