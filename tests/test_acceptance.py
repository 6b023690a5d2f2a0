"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import time
from contextlib import contextmanager

from dsl_corpus import PRODUCTION_SAMPLES, corpus_asts, enum_corpus
from enumerlab import audit, bitseq, diagonal, dsl, figures, listmatrix, pairing, tree
from enumerlab.pairing import GridPair


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    else:
        print(f"[acceptance] {name}: PASS")


def test_walk_table_and_roundtrip_speed():
    with criterion("walk table exact + 10^6 roundtrip < 2s"):
        table = [(0, 0), (1, 0), (0, 1), (0, 2), (1, 1), (2, 0), (3, 0)]
        for i, (m, n) in enumerate(table):
            assert pairing.zigzag_encode(GridPair(m, n)) == i
        # CPU time of this process, so that other work on a shared host,
        # which stretches the wall clock, does not count against the bound
        start = time.process_time()
        enc, dec = pairing.zigzag_encode, pairing.zigzag_decode
        for i in range(10**6):
            assert enc(dec(i)) == i
        assert time.process_time() - start < 2.0


def test_level_pair_lists_verbatim():
    with criterion("level pair lists for k in 0..3 verbatim"):
        assert [tuple(p) for p in pairing.level_pairs(0)] == [(0, 0)]
        assert [tuple(p) for p in pairing.level_pairs(1)] == [(0, 1), (1, 0)]
        assert [tuple(p) for p in pairing.level_pairs(2)] == [
            (0, 3), (1, 2), (2, 1), (3, 0),
        ]
        assert [tuple(p) for p in pairing.level_pairs(3)] == [
            (0, 7), (1, 6), (2, 5), (3, 4), (4, 3), (5, 2), (6, 1), (7, 0),
        ]


def test_row_labels_published_and_oracle():
    with criterion("row labels 0,2,3,9,10,20,21 + walk oracle to 10^4"):
        assert [pairing.row_label(i) for i in range(7)] == [0, 2, 3, 9, 10, 20, 21]
        walked = pairing.row_labels_by_walk(10**4)
        assert walked == [pairing.row_label(i) for i in range(10**4)]


def test_published_matrix_block():
    with criterion("matrix 17x5 block bit-exact"):
        published = [
            "00000", "10000", "01000", "11000", "00100", "10100", "01100",
            "11100", "00010", "10010", "01010", "11010", "00110", "10110",
            "01110", "11110", "00001",
        ]
        for r, row in enumerate(published):
            for c, ch in enumerate(row):
                assert listmatrix.entry(r, c) == int(ch), (r, c)


def test_submatrix_coverage():
    with criterion("submatrix coverage i <= 12 < 5s"):
        start = time.perf_counter()
        for i in range(1, 13):
            rows = listmatrix.submatrix_rows(i)
            assert len(rows) == 2**i
            assert rows == set(tree.paths_at_depth(i))
        assert time.perf_counter() - start < 5.0


def test_counting_identities():
    with criterion("counting identities to depth 20 (enumerated to 12)"):
        total = 0
        for i in range(1, 21):
            total += 2**i
            assert total == tree.node_count(i) == 2 ** (i + 1) - 2
        enumerated = 0
        for i in range(1, 13):
            level = sum(1 for _ in tree.paths_at_depth(i))
            assert level == 2**i
            enumerated += level
            assert enumerated == tree.node_count(i)


def _battery():
    matrix = listmatrix.matrix_enumeration()
    return [
        diagonal.constant(bitseq.zeros()),
        matrix,
        diagonal.interleave(
            diagonal.constant(bitseq.ones()), diagonal.constant(bitseq.zeros())
        ),
        diagonal.interleave(matrix, diagonal.constant(bitseq.zeros())),
        diagonal.insert(matrix, 1, diagonal.antidiagonal(matrix)),
    ]


def test_diagonal_certificates():
    with criterion("certificate battery rows < 1000 + all-ones prefix 256"):
        for E in _battery():
            x = diagonal.antidiagonal(E)
            certs = diagonal.certificates(E, 1000)
            assert len(certs) == 1000
            for cert in certs:
                assert diagonal.check_certificate(E, x, cert)
        diag = diagonal.antidiagonal(listmatrix.matrix_enumeration())
        assert bitseq.prefix(diag, 256) == "1" * 256


def test_completeness_refutation():
    with criterion("completeness refuted for rows < 2^20, positions <= 21, < 10s"):
        start = time.perf_counter()
        all_ones = bitseq.ones()
        witnesses = []
        for r in range(2**20):
            # first zero bit of r, 1-based
            x = r
            pos = 1
            while x & 1:
                x >>= 1
                pos += 1
            assert pos <= 21
            witnesses.append(pos)
        # independent recheck of every emitted witness via public lookups
        for r, pos in enumerate(witnesses):
            assert bitseq.nat_row(r).bit_at(pos) == 0
            assert all_ones.bit_at(pos) == 1
        assert max(witnesses) == 21
        # the last row is the first, and only, to disagree at position 21
        assert witnesses.index(21) == 2**20 - 1
        report = audit.run_claim("C9", 20)
        assert report.status == audit.REFUTED
        rows = [*range(8), 2**20 - 1]
        assert report.witnesses == [
            {"row": r, "position": witnesses[r], "row_bit": 0, "ones_bit": 1} for r in rows
        ] + [{"rows_checked": 2**20, "max_position": 21, "diagonal_complement_is_all_ones_to": 21}]
        assert time.perf_counter() - start < 10.0


def test_split_interleave_transforms():
    with criterion("split/interleave roundtrip: matrix + 100 random programs"):
        def check_roundtrip(E, rows, positions):
            rebuilt = diagonal.interleave(*diagonal.split(E))
            # the original row in one prefix read (the block path), the
            # rebuilt one bit by bit (the one-bit path)
            for r in range(rows):
                a = bitseq.prefix(E.row(r), positions)
                b = rebuilt.row(r)
                for i in range(1, positions + 1):
                    assert int(a[i - 1]) == b.bit_at(i), (r, i)

        check_roundtrip(listmatrix.matrix_enumeration(), 1000, 64)
        for ast in enum_corpus(size=100):
            check_roundtrip(dsl.eval_enum(ast), 1000, 64)


def test_dsl_corpus_and_errors():
    with criterion("DSL: 500-program roundtrip + positioned error classes"):
        asts = corpus_asts()
        assert len(asts) >= 500
        for ast in asts:
            assert dsl.parse(dsl.unparse(ast)) == ast
        kinds = {dsl.parse(t).kind for t in PRODUCTION_SAMPLES}
        assert kinds == dsl.SEQ_KINDS | dsl.ENUM_KINDS
        failures = [
            ("interleave(ones,zeros)", "type", 1, 12),
            ("wat(1)", "syntax", 1, 1),
            ("compl()", "arity", 1, 7),
            ("compl(ones,ones)", "arity", 1, 11),
            ("periodic(21)", "syntax", 1, 10),
            ("interleave(figure5,\n  wrong)", "syntax", 2, 3),
        ]
        for text, cls, line, col in failures:
            try:
                dsl.parse(text)
            except dsl.ParseError as exc:
                assert exc.error_class == cls, text
                assert (exc.line, exc.column) == (line, col), text
            else:
                raise AssertionError(f"no error for {text!r}")


def test_output_determinism():
    with criterion("audit report and matrix figure are deterministic"):
        def stripped():
            payload = json.loads(audit.reports_to_json(audit.run_all(12)))
            for item in payload:
                item.pop("elapsed_ms")
            return payload

        first = stripped()
        assert stripped() == first
        assert {i["claim"]: i["status"] for i in first}["C9"] == "refuted"
        assert figures.render_figure(5) == figures.render_figure(5)
