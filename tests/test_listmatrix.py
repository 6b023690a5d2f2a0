import pytest

from enumerlab.bitseq import eq_prefix, nat_row, ones, prefix
from enumerlab.budget import BudgetError
from enumerlab.listmatrix import entry, matrix_enumeration, submatrix_rows
from enumerlab.pairing import row_label, row_labels_by_walk
from enumerlab.tree import paths_at_depth

# the published 17-row by 5-column block of matrix values, transcribed
# row by row from the rendered table
PUBLISHED_BLOCK = [
    "00000",
    "10000",
    "01000",
    "11000",
    "00100",
    "10100",
    "01100",
    "11100",
    "00010",
    "10010",
    "01010",
    "11010",
    "00110",
    "10110",
    "01110",
    "11110",
    "00001",
]


def test_published_block_bit_exact():
    for r, row in enumerate(PUBLISHED_BLOCK):
        for c, ch in enumerate(row):
            assert entry(r, c) == int(ch), (r, c)


def test_entry_examples():
    assert entry(5, 0) == 1
    assert entry(16, 4) == 1
    assert all(entry(0, c) == 0 for c in range(65))


def test_column_pattern():
    # down column c: 2^c zeros then 2^c ones, repeating
    for c in range(6):
        period = 2 ** (c + 1)
        for r in range(4 * period):
            expected = 0 if r % period < period // 2 else 1
            assert entry(r, c) == expected


def test_matrix_row_examples():
    assert prefix(nat_row(0), 5) == "00000"
    assert prefix(nat_row(6), 4) == "0110"
    assert prefix(nat_row(11), 5) == "11010"


def test_matrix_row_finite_support():
    for r in range(512):
        s = nat_row(r)
        assert s.eventually_zero_bound == r.bit_length()
        pos = eq_prefix(s, ones(), r.bit_length() + 1)
        assert pos is not None and pos <= r.bit_length() + 1


def test_main_diagonal_is_zero():
    assert all(entry(i, i) == 0 for i in range(2000))


def test_submatrix_rows_small():
    assert submatrix_rows(1) == {"0", "1"}
    assert submatrix_rows(3) == set(paths_at_depth(3))


def test_submatrix_rows_coverage():
    rows = submatrix_rows(12)
    assert len(rows) == 4096
    assert rows == set(paths_at_depth(12))


def test_submatrix_budget(monkeypatch):
    with pytest.raises(BudgetError):
        submatrix_rows(31)
    monkeypatch.setenv("ENUMERLAB_BUDGET", "100")
    with pytest.raises(BudgetError):
        submatrix_rows(10)


def test_figure6_row_labels():
    assert [row_label(i) for i in range(7)] == [0, 2, 3, 9, 10, 20, 21]
    assert row_label(8) == row_labels_by_walk(9)[8]


def test_figure6_rows_are_matrix_rows():
    # the rows figure 6 labels are the matrix rows, bit c+1 of row i
    # being entry(i, c)
    E = matrix_enumeration()
    for i in range(32):
        assert prefix(E.row(i), 16) == "".join(str(entry(i, c)) for c in range(16))


def test_label_closed_form_vs_walk():
    walked = row_labels_by_walk(500)
    assert walked == [row_label(i) for i in range(500)]


def test_matrix_enumeration_rows():
    E = matrix_enumeration()
    for r in (0, 6, 11, 300):
        assert prefix(E.row(r), 12) == prefix(nat_row(r), 12)
