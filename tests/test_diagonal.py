import pytest

from enumerlab.bitseq import eq_prefix, nat_row, ones, prefix, zeros
from enumerlab.diagonal import (
    Certificate,
    antidiagonal,
    certificates,
    check_certificate,
    constant,
    insert,
    interleave,
    split,
)
from enumerlab.listmatrix import matrix_enumeration


def test_antidiagonal_of_zeros():
    x = antidiagonal(constant(zeros()))
    assert prefix(x, 32) == "1" * 32


def test_antidiagonal_of_matrix_is_all_ones():
    x = antidiagonal(matrix_enumeration())
    assert eq_prefix(x, ones(), 256) is None


def test_antidiagonal_of_interleave():
    E = interleave(constant(ones()), constant(zeros()))
    assert prefix(antidiagonal(E), 4) == "0101"


def test_certificates_of_zeros():
    certs = certificates(constant(zeros()), 3)
    assert [(c.row, c.position, c.left_bit, c.right_bit) for c in certs] == [
        (0, 1, 1, 0),
        (1, 2, 1, 0),
        (2, 3, 1, 0),
    ]


def test_certificates_of_matrix():
    E = matrix_enumeration()
    certs = certificates(E, 5)
    assert len(certs) == 5
    assert all(c.left_bit == 1 and c.right_bit == 0 for c in certs)
    x = antidiagonal(E)
    assert all(check_certificate(E, x, c) for c in certs)


def test_certificates_position_convention():
    for c in certificates(matrix_enumeration(), 50):
        assert c.position == c.row + 1


def test_certificate_invariant():
    with pytest.raises(ValueError):
        Certificate(0, 1, 1, 1)
    with pytest.raises(ValueError):
        Certificate(0, 0, 0, 1)


def test_check_certificate_rejects_wrong_claims():
    E = matrix_enumeration()
    x = antidiagonal(E)
    # a bogus certificate: correct position but swapped bits
    bogus = Certificate(3, 4, 0, 1)
    assert not check_certificate(E, x, bogus)


def test_diagonal_disagreement_many_rows():
    for E in (matrix_enumeration(), constant(zeros())):
        x = antidiagonal(E)
        for r in range(1000):
            assert x.bit_at(r + 1) != E.row(r).bit_at(r + 1)


def test_insert_at_zero():
    E = insert(constant(zeros()), 0, ones())
    assert prefix(E.row(0), 8) == "1" * 8
    assert prefix(E.row(1), 8) == "0" * 8
    assert prefix(E.row(5), 8) == "0" * 8


def test_insert_reproduces_augmented_list():
    E = matrix_enumeration()
    E2 = insert(E, 1, antidiagonal(E))
    assert prefix(E2.row(0), 16) == prefix(E.row(0), 16)
    assert prefix(E2.row(1), 16) == "1" * 16
    assert prefix(E2.row(2), 16) == prefix(E.row(1), 16)


def test_insert_shift_rule():
    E = matrix_enumeration()
    E2 = insert(E, 3, nat_row(99))
    assert prefix(E2.row(7), 24) == prefix(E.row(6), 24)
    assert prefix(E2.row(2), 24) == prefix(E.row(2), 24)
    assert prefix(E2.row(3), 24) == prefix(nat_row(99), 24)


def test_split_of_matrix():
    even, odd = split(matrix_enumeration())
    assert prefix(even.row(1), 8) == prefix(nat_row(2), 8)
    assert prefix(odd.row(1), 8) == prefix(nat_row(3), 8)


def test_split_of_constant():
    even, odd = split(constant(zeros()))
    assert prefix(even.row(9), 8) == "0" * 8
    assert prefix(odd.row(9), 8) == "0" * 8


def test_interleave_example():
    E = interleave(constant(ones()), constant(zeros()))
    assert prefix(E.row(3), 8) == "0" * 8
    assert prefix(E.row(4), 8) == "1" * 8


def test_split_interleave_roundtrip():
    E = matrix_enumeration()
    rebuilt = interleave(*split(E))
    for r in range(200):
        assert prefix(rebuilt.row(r), 64) == prefix(E.row(r), 64)


def test_interleave_split_recovery():
    Ea = matrix_enumeration()
    Eb = constant(ones())
    even, odd = split(interleave(Ea, Eb))
    for r in range(100):
        assert prefix(even.row(r), 32) == prefix(Ea.row(r), 32)
        assert prefix(odd.row(r), 32) == prefix(Eb.row(r), 32)


def test_row_index_validation():
    with pytest.raises(ValueError):
        matrix_enumeration().row(-1)
    with pytest.raises(ValueError):
        insert(matrix_enumeration(), -2, zeros())
    # past the interpreter's decimal conversion limit the index is shown in hex
    huge = -(10**5000)
    with pytest.raises(ValueError, match=f"^insertion index must be >= 0, got {hex(huge)}$"):
        insert(matrix_enumeration(), huge, zeros())


def test_certificates_reject_negative_count():
    with pytest.raises(ValueError, match=r"\bupto must be >= 0, got -2"):
        certificates(matrix_enumeration(), -2)
    assert certificates(matrix_enumeration(), 0) == []
