import json
import re
import tracemalloc
from array import array
from itertools import chain, islice
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumerlab import audit, bitseq, cli, diagonal, pairing, tree
from enumerlab.audit import (
    CLAIM_IDS,
    NOT_FINITELY_CHECKABLE,
    REFUTED,
    VERIFIED,
    report_to_dict,
    reports_to_json,
    reports_to_markdown,
    run_all,
    run_claim,
)
from enumerlab.bitseq import nat_row, ones
from enumerlab.budget import BudgetError
from enumerlab.listmatrix import entry, matrix_enumeration


def test_catalog_order():
    assert CLAIM_IDS == ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10")
    assert [r.claim_id for r in run_all(4)] == list(CLAIM_IDS)


def test_run_all_depth_10_statuses():
    statuses = {r.claim_id: r.status for r in run_all(10)}
    for cid in ("C1", "C2", "C3", "C4", "C5", "C6", "C8", "C10"):
        assert statuses[cid] == VERIFIED, cid
    assert statuses["C7"] in (VERIFIED, NOT_FINITELY_CHECKABLE)
    assert statuses["C9"] == REFUTED


def test_depth_zero_trivial():
    for r in run_all(0):
        assert r.status in (VERIFIED, NOT_FINITELY_CHECKABLE), r.claim_id


def test_determinism_modulo_elapsed():
    def strip(reports):
        out = []
        for r in reports:
            d = report_to_dict(r)
            d.pop("elapsed_ms")
            out.append(d)
        return out

    assert strip(run_all(8)) == strip(run_all(8))


def test_monotonicity_spot_check():
    # a claim verified at depth d stays verified at smaller depths
    for cid in ("C1", "C2", "C3", "C4", "C8", "C10"):
        assert run_claim(cid, 8).status == VERIFIED
        for d in (6, 3, 1):
            assert run_claim(cid, d).status == VERIFIED, (cid, d)


def test_c2_large_depth():
    assert run_claim("C2", 1000).status == VERIFIED


def test_c5_orientation_flag():
    r = run_claim("C5", 12)
    assert r.status == VERIFIED
    assert {"orientation": "mirrored"} in r.witnesses


def test_c6_battery_size():
    r = run_claim("C6", 25)
    assert r.status == VERIFIED
    assert len(r.witnesses) == 5
    assert all(w["certificates"] == 25 for w in r.witnesses)


@pytest.mark.parametrize(
    "claim_id, depth, items",
    [
        ("C1", 6, 127), ("C2", 6, 6), ("C3", 6, 126), ("C4", 6, 126), ("C5", 6, 21),
        ("C6", 6, 30), ("C7", 6, 36), ("C8", 6, 64), ("C9", 6, 64), ("C10", 6, 27),
        # the all-ones paths of lengths 1..100 hold 5050 bits
        ("C5", 100, 5050),
    ],
)
def test_each_claim_checks_its_items(monkeypatch, claim_id, depth, items):
    monkeypatch.setenv("ENUMERLAB_BUDGET", str(items - 1))
    with pytest.raises(BudgetError) as exc:
        run_claim(claim_id, depth)
    assert exc.value.requested == items
    monkeypatch.setenv("ENUMERLAB_BUDGET", str(items))
    assert run_claim(claim_id, depth).claim_id == claim_id


def test_c6_checks_its_budget(monkeypatch):
    # five enumerations of 1000 certificates each
    monkeypatch.setenv("ENUMERLAB_BUDGET", "4096")
    with pytest.raises(BudgetError, match=r"^enumeration of 5000 items exceeds budget of 4096$"):
        run_claim("C6", 1000)
    c6 = run_all(14300)[CLAIM_IDS.index("C6")]
    assert c6.status == NOT_FINITELY_CHECKABLE
    assert "error" in c6.witnesses[0]


def test_c8_coverage():
    assert run_claim("C8", 12).status == VERIFIED


@pytest.mark.parametrize("depth", [2, 3, 12])  # fewer than 8 rows, exactly 8, more
def test_c9_refutation_and_witnesses(depth):
    # oracle: the first zero bit of each row r < 2^depth, 1-based, by a per-row loop
    positions = []
    for row in range(1 << depth):
        x, pos = row, 1
        while x & 1:
            x >>= 1
            pos += 1
        positions.append(pos)
    # the last row is all ones below the depth, so it alone disagrees latest
    assert positions.index(max(positions)) == len(positions) - 1
    rows = [*range(min(8, len(positions))), len(positions) - 1]
    r = run_claim("C9", depth)
    assert r.status == REFUTED
    assert r.witnesses == [
        {"row": row, "position": positions[row], "row_bit": 0, "ones_bit": 1} for row in rows
    ] + [
        {
            "rows_checked": 1 << depth,
            "max_position": depth + 1,
            "diagonal_complement_is_all_ones_to": depth + 1,
        }
    ]
    # every per-row witness revalidates through public operations only
    for w in r.witnesses[:-1]:
        row, pos = w["row"], w["position"]
        assert entry(row, pos - 1) == w["row_bit"] == 0
        assert ones().bit_at(pos) == w["ones_bit"] == 1
        assert nat_row(row).bit_at(pos) != ones().bit_at(pos)


def test_c9_consistent_with_c6():
    # the diagonal complement of the matrix is the all-ones sequence that
    # C9 shows missing from the rows
    r = run_claim("C9", 10)
    assert r.witnesses[-1]["diagonal_complement_is_all_ones_to"] >= 10


def test_unknown_claim():
    with pytest.raises(KeyError):
        run_claim("C11", 5)


def test_negative_depth():
    with pytest.raises(ValueError):
        run_claim("C1", -1)


def test_budget_error_propagates_from_run_claim():
    with pytest.raises(BudgetError):
        run_claim("C1", 60)


def test_run_all_never_aborts(monkeypatch):
    # keep the budget small so over-budget claims fail fast instead of
    # enumerating millions of items first; at depth 14300 C1's request has
    # more decimal digits than Python converts
    monkeypatch.setenv("ENUMERLAB_BUDGET", "4096")
    for depth, c5 in ((60, VERIFIED), (14300, NOT_FINITELY_CHECKABLE)):
        reports = run_all(depth)
        assert len(reports) == 10
        by_id = {r.claim_id: r for r in reports}
        assert by_id["C1"].status == NOT_FINITELY_CHECKABLE
        assert "error" in by_id["C1"].witnesses[0]
        # cheap claims still run at depth 60
        assert by_id["C5"].status == c5


def test_run_all_propagates_internal_fault(monkeypatch):
    def broken(depth):
        raise AssertionError("witness failed revalidation")

    anchor, items, _ = audit._CLAIMS["C9"]
    monkeypatch.setitem(audit._CLAIMS, "C9", (anchor, items, broken))
    with pytest.raises(AssertionError, match="revalidation"):
        run_all(3)


def test_refuted_requires_witness():
    with pytest.raises(ValueError):
        audit.ClaimReport("C9", "x", 1, REFUTED, [])


def test_json_schema():
    reports = run_all(6)
    payload = json.loads(reports_to_json(reports))
    assert len(payload) == 10
    for item in payload:
        assert list(item) == [
            "claim",
            "anchor",
            "depth",
            "status",
            "witnesses",
            "elapsed_ms",
        ]
        assert item["status"] in (VERIFIED, REFUTED, NOT_FINITELY_CHECKABLE)
        assert isinstance(item["witnesses"], list)
        assert isinstance(item["elapsed_ms"], int)


def test_markdown_report():
    text = reports_to_markdown(run_all(4))
    assert text.startswith("| claim |")
    for cid in CLAIM_IDS:
        assert cid in text


def test_elapsed_ns_and_ms():
    r = run_claim("C8", 10)
    assert isinstance(r.elapsed_ns, int) and r.elapsed_ns > 0
    assert r.elapsed_ms == r.elapsed_ns // 1_000_000
    assert "elapsed_ns" not in report_to_dict(r)


# Refutations under one-point mutations of the function each claim reads.
# The expected witnesses are those a node-by-node scan in (level, offset)
# order gives under the same mutation.


@pytest.mark.parametrize(
    "moves, witness, read",
    [
        # two nodes of level 3 project to one pair
        (
            {(3, 5): (3, 2)},
            {"pair": [2, 5], "node_a": [3, 2], "node_b": [3, 5]},
            [0, 1, 2, 3],
        ),
        # a node of level 4 projects onto a pair of level 2, off the
        # anti-diagonal of level 4; no earlier level is read again
        (
            {(4, 0): (2, 1)},
            {"node": [4, 0], "pair": [1, 2], "sum": 3},
            [0, 1, 2, 3, 4],
        ),
        # the first or the last node of level 3 differs from its pair
        (
            {(3, 0): (3, 1)},
            {"pair": [1, 6], "node_a": [3, 0], "node_b": [3, 1]},
            [0, 1, 2, 3],
        ),
        ({(3, 0): (2, 0)}, {"node": [3, 0], "pair": [0, 3], "sum": 3}, [0, 1, 2, 3]),
        (
            {(3, 7): (3, 6)},
            {"pair": [6, 1], "node_a": [3, 6], "node_b": [3, 7]},
            [0, 1, 2, 3],
        ),
        ({(3, 7): (4, 7)}, {"node": [3, 7], "pair": [7, 8], "sum": 15}, [0, 1, 2, 3]),
    ],
    ids=[
        "same-level", "across-levels", "twin-at-first-node", "off-at-first-node",
        "twin-at-last-node", "off-at-last-node",
    ],
)
def test_c1_refutation_witness(monkeypatch, moves, witness, read):
    real = pairing.level_pairs
    levels_read = []

    def level_pairs(k):
        levels_read.append(k)
        pairs = list(real(k))
        for (level, j), (to_level, to_j) in moves.items():
            if level == k:
                pairs[j] = list(real(to_level))[to_j]
        return pairs

    monkeypatch.setattr(pairing, "level_pairs", level_pairs)
    r = run_claim("C1", 6)
    assert r.status == REFUTED
    assert r.witnesses == [witness]
    assert levels_read == read


def test_c1_pair_off_its_anti_diagonal_is_refuted(monkeypatch):
    # (-1, 4) has the sum 3 of level 2 but is none of its pairs: it lies off
    # the anti-diagonal of level 3, and so refutes the claim
    real = pairing.level_pairs
    read = []

    def level_pairs(k):
        read.append(k)
        pairs = list(real(k))
        if k == 3:
            pairs[5] = pairing.GridPair(-1, 4)
        return pairs

    monkeypatch.setattr(pairing, "level_pairs", level_pairs)
    r = run_claim("C1", 6)
    assert (r.status, r.witnesses) == (REFUTED, [{"node": [3, 5], "pair": [-1, 4], "sum": 3}])
    assert read == [0, 1, 2, 3]


@pytest.mark.parametrize("pair", [(-1, 4), (4, -1)], ids=["negative-m", "negative-n"])
def test_c1_pair_off_the_grid_is_refuted(monkeypatch, pair):
    # a pair with the sum 3 of level 2 that is no point of N x N, in place of
    # the one pair of level 2 it does not repeat
    real = pairing.level_pairs
    monkeypatch.setattr(
        pairing, "level_pairs", lambda k: list(real(k))[:3] + [pair] if k == 2 else real(k)
    )
    r = run_claim("C1", 4)
    assert (r.status, r.witnesses) == (REFUTED, [{"node": [2, 3], "pair": list(pair), "sum": 3}])


def test_c1_levels_on_the_sums_2_to_the_k_are_refuted(monkeypatch):
    # every level injective and disjoint from the others, but level k on the
    # anti-diagonal of sum 2^k rather than 2^k - 1
    monkeypatch.setattr(
        pairing,
        "level_pairs",
        lambda k: [pairing.GridPair(j, (1 << k) - j) for j in range(1 << k)],
    )
    r = run_claim("C1", 6)
    assert (r.status, r.witnesses) == (REFUTED, [{"node": [0, 0], "pair": [0, 1], "sum": 1}])


@pytest.mark.parametrize(
    "change",
    [
        lambda pairs: pairs + pairs[:1],
        lambda pairs: pairs[:-1],
        lambda pairs: pairs + [pairing.GridPair(8, 8)],
        lambda pairs: pairs + [pairing.GridPair(8, -1)],
    ],
    ids=["padded-with-repeat", "one-short", "padded-off-pair", "padded-off-the-grid"],
)
def test_c1_level_of_wrong_length_is_internal_error(capsys, monkeypatch, change):
    real = pairing.level_pairs
    monkeypatch.setattr(
        pairing, "level_pairs", lambda k: change(list(real(k))) if k == 3 else real(k)
    )
    with pytest.raises(RuntimeError, match=r"^level_pairs\(3\) does not list 8 pairs$"):
        run_claim("C1", 6)
    assert cli.dispatch(["audit", "--claim", "C1", "--depth", "6"]) == cli.EXIT_INTERNAL
    assert capsys.readouterr() == (
        "",
        "internal error: RuntimeError: level_pairs(3) does not list 8 pairs\n",
    )


# witnesses far apart in a level, at offsets on either side of 2^12, and a
# twin and an off pair in the same level: the first in offset order wins
@pytest.mark.parametrize(
    "moves, witness",
    [
        ({(13, 4096): (13, 4095)}, {"pair": [4095, 4096], "node_a": [13, 4095], "node_b": [13, 4096]}),
        ({(13, 5000): (13, 10)}, {"pair": [10, 8181], "node_a": [13, 10], "node_b": [13, 5000]}),
        ({(13, 4095): (12, 0)}, {"node": [13, 4095], "pair": [0, 4095], "sum": 4095}),
        ({(13, 4096): (12, 0)}, {"node": [13, 4096], "pair": [0, 4095], "sum": 4095}),
        (
            {(13, 4100): (13, 10), (13, 5000): (12, 0)},
            {"pair": [10, 8181], "node_a": [13, 10], "node_b": [13, 4100]},
        ),
        (
            {(13, 4100): (12, 0), (13, 5000): (13, 10)},
            {"node": [13, 4100], "pair": [0, 4095], "sum": 4095},
        ),
        (
            {(13, 4100): (13, 4097), (13, 4196): (12, 0)},
            {"pair": [4097, 4094], "node_a": [13, 4097], "node_b": [13, 4100]},
        ),
        (
            {(14, 5000): (14, 10), (14, 9000): (13, 0)},
            {"pair": [10, 16373], "node_a": [14, 10], "node_b": [14, 5000]},
        ),
    ],
    ids=[
        "twin-across-4095-4096", "twin-across-10-5000", "off-at-4095", "off-at-4096",
        "twin-before-off", "off-before-twin", "twin-just-before-off", "twin-before-off-at-level-14",
    ],
)
def test_c1_witness_far_apart_in_a_level(monkeypatch, moves, witness):
    real = pairing.level_pairs
    levels_read = []

    def level_pairs(k):
        levels_read.append(k)
        pairs = list(real(k))
        for (level, j), (to_level, to_j) in moves.items():
            if level == k:
                pairs[j] = pairing.node_to_pair(pairing.NodeAddr(to_level, to_j))
        return pairs

    monkeypatch.setattr(pairing, "level_pairs", level_pairs)
    r = run_claim("C1", 14)
    assert (r.status, r.witnesses) == (REFUTED, [witness])
    assert levels_read == list(range(witness.get("node", witness.get("node_b"))[0] + 1))


@pytest.mark.parametrize(
    "k, change",
    [
        (3, lambda pairs: pairs + [pairing.GridPair(0, 0)]),
        (13, lambda pairs: [pairing.GridPair(0, 0)] + pairs[2:]),
        (13, lambda pairs: pairs[:5] + [pairing.GridPair(0, 0)] + pairs[5:]),
        (0, lambda pairs: []),
        (0, lambda pairs: pairs + pairs),
        (13, lambda pairs: pairs[:-1]),
        (13, lambda pairs: pairs + [pairing.GridPair(1 << 13, -1)]),
    ],
    ids=[
        "padded-off-pair", "one-short-off-in-first-slice", "off-pair-inserted",
        "empty-level-0", "level-0-twice", "one-short-at-13", "padded-off-the-grid-at-13",
    ],
)
def test_c1_level_of_wrong_length_is_internal_error_before_any_witness(monkeypatch, k, change):
    # the level holds a pair off its anti-diagonal, but its length is judged first
    real = pairing.level_pairs
    monkeypatch.setattr(
        pairing, "level_pairs", lambda j: change(list(real(j))) if j == k else real(j)
    )
    with pytest.raises(RuntimeError, match=rf"^level_pairs\({k}\) does not list {1 << k} pairs$"):
        run_claim("C1", 14)


def _scanned(k: int, pairs) -> dict | None:
    """C1's plain scan of level k, as it read every level before the level
    was first compared with its expected pairs: the oracle of that
    comparison."""
    size = 1 << k
    pairs = iter(pairs)
    flags, ms, witness, j = bytearray(size), array(audit._unsigned(k), [0]) * size, None, -1
    for j, (m, n) in enumerate(pairs):
        if m + n != size - 1 or m < 0 or n < 0:
            witness = {"node": [k, j], "pair": [m, n], "sum": m + n}
            break
        if flags[m]:
            witness = {"pair": [m, n], "node_a": [k, ms.index(m)], "node_b": [k, j]}
            break
        flags[m], ms[j] = 1, m
    if j + 1 + sum(1 for _ in pairs) != size:
        raise RuntimeError(f"level_pairs({k}) does not list {size} pairs")
    return witness


def _outcome(fn):
    """What fn returns, or the type and message of what it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def _scans(monkeypatch) -> list[int]:
    """The levels C1 scans from now on, one entry per scan."""
    real, scanned = audit._unsigned, []
    monkeypatch.setattr(audit, "_unsigned", lambda bits: scanned.append(bits) or real(bits))
    return scanned


def test_c1_level_equal_to_its_expected_pairs_is_not_scanned(monkeypatch):
    scanned = _scans(monkeypatch)
    r = run_claim("C1", 10)
    assert (r.status, r.witnesses, scanned) == (VERIFIED, [], [])


@pytest.mark.parametrize(
    "permute",
    [
        lambda pairs: pairs[::-1],
        lambda pairs: pairs[1:] + pairs[:1],
        lambda pairs: pairs[1::2] + pairs[::2],
    ],
    ids=["reversed", "rotated", "odd-offsets-first"],
)
def test_c1_permuted_level_verifies_through_the_scan(monkeypatch, permute):
    real = pairing.level_pairs
    monkeypatch.setattr(
        pairing, "level_pairs", lambda k: permute(list(real(k))) if k == 5 else real(k)
    )
    scanned = _scans(monkeypatch)
    r = run_claim("C1", 7)
    assert (r.status, r.witnesses, scanned) == (VERIFIED, [], [5])


def test_c1_pair_equal_to_its_ints_verifies(monkeypatch):
    # (3.0, 4) equals the expected pair (3, 4) of level 3, so the comparison
    # passes the level; the scan alone raises, as a float indexes no flag
    real = pairing.level_pairs
    pairs = list(real(3))
    pairs[3] = (3.0, 4)
    with pytest.raises(TypeError):
        _scanned(3, pairs)
    monkeypatch.setattr(pairing, "level_pairs", lambda k: pairs if k == 3 else real(k))
    assert run_claim("C1", 4).status == VERIFIED


def _node_pair(draw) -> pairing.GridPair:
    """The pair of a node drawn from levels 0..9."""
    level = draw(st.integers(0, 9))
    return pairing.node_to_pair(pairing.NodeAddr(level, draw(st.integers(0, (1 << level) - 1))))


def _mutate(draw, pairs: list, kind: str) -> None:
    """Apply one mutation of the given kind to pairs, in place."""
    if not pairs:
        pairs.append(_node_pair(draw))
        return
    i, j = (draw(st.integers(0, len(pairs) - 1)) for _ in range(2))
    if kind == "swap":
        pairs[i], pairs[j] = pairs[j], pairs[i]
    elif kind == "repeat":
        pairs[j] = pairs[i]
    elif kind == "drop":
        del pairs[i]
    elif kind == "append":
        pairs.append(_node_pair(draw))
    elif kind == "negate":
        m, n = pairs[i]
        pairs[i] = (-m, n) if draw(st.booleans()) else (m, -n)
    elif kind == "move":
        pairs[i] = _node_pair(draw)
    else:
        pairs[:] = draw(st.permutations(pairs))


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 8),
    st.lists(
        st.sampled_from(["swap", "repeat", "drop", "append", "negate", "move", "permute"]),
        max_size=3,
    ),
    st.data(),
)
def test_c1_comparison_then_scan_is_the_scan(k, kinds, data):
    pairs = list(pairing.level_pairs(k))
    for kind in kinds:
        _mutate(data.draw, pairs, kind)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairing, "level_pairs", lambda level: pairs)
        assert _outcome(lambda: audit._c1_level(k)) == _outcome(lambda: _scanned(k, pairs))


@pytest.mark.parametrize("claim_id", ["C3", "C4", "C8"])
def test_enumerated_paths_are_the_oracle(monkeypatch, claim_id):
    # the enumerated path set is the independent half of each check: with
    # one path of one level left out, the claim must fail
    real = tree.paths_at_depth
    monkeypatch.setattr(
        tree,
        "paths_at_depth",
        lambda i: (p for p in real(i) if p != "0110") if i == 4 else real(i),
    )
    assert run_claim(claim_id, 6).status == REFUTED


@pytest.mark.parametrize(
    "moves, depth, status, witnesses",
    [
        # one ending moves onto another node of its level
        ({"0110": (4, 5)}, 6, REFUTED, [{"missing": [(4, 6)], "extra": []}]),
        # 16 endings collapse onto one node: the 8 smallest missing nodes
        (
            {format(j, "05b"): (5, 0) for j in range(16, 32)},
            6,
            REFUTED,
            [
                {
                    "missing": [
                        (5, 16), (5, 17), (5, 18), (5, 19),
                        (5, 20), (5, 21), (5, 22), (5, 23),
                    ],
                    "extra": [],
                }
            ],
        ),
        # an ending moves below the examined depth
        ({"111": (6, 0)}, 5, REFUTED, [{"missing": [(3, 7)], "extra": [(6, 0)]}]),
        # an ending moves onto the root, which no path of length >= 1 ends at
        ({"111": (0, 0)}, 5, REFUTED, [{"missing": [(3, 7)], "extra": [(0, 0)]}]),
        # two endings swap levels: every level is wrong, their union is not
        ({"00": (3, 0), "000": (2, 0)}, 5, VERIFIED, []),
    ],
    ids=["one-moved", "16-missing", "extra", "root", "levels-swapped"],
)
def test_c3_mutated_endings(monkeypatch, moves, depth, status, witnesses):
    real = tree.path_to_addr
    monkeypatch.setattr(
        tree,
        "path_to_addr",
        lambda p: pairing.NodeAddr(*moves[p]) if p in moves else real(p),
    )
    r = run_claim("C3", depth)
    assert r.status == status
    assert r.witnesses == witnesses


def test_c3_ending_past_every_node_is_refuted(monkeypatch):
    # every node of depth 3 is an ending, and one more path ends below them
    real = tree.paths_at_depth
    monkeypatch.setattr(
        tree, "paths_at_depth", lambda i: chain(real(i), ["1111"]) if i == 3 else real(i)
    )
    r = run_claim("C3", 3)
    assert (r.status, r.witnesses) == (REFUTED, [{"missing": [], "extra": [(4, 15)]}])


@pytest.mark.parametrize(
    "repeat, depth, witness",
    [
        # row 5 repeats row 3
        (lambda r: 3 if r == 5 else r, 6, {"width": 3, "size": 7, "missing": ["101"]}),
        # row 5 reads row 13, which agrees with it in the first 3 columns
        (lambda r: 13 if r == 5 else r, 6, {"width": 4, "size": 15, "missing": ["1010"]}),
        # row 0 reads row 4, so no row lists key 0 past width 2: the rows
        # not yet read must not count for it
        (lambda r: 4 if r == 0 else r, 6, {"width": 3, "size": 7, "missing": ["000"]}),
        # every row from 16 on repeats row 0
        (
            lambda r: 0 if r >= 16 else r,
            7,
            {
                "width": 5,
                "size": 16,
                "missing": [
                    "00001", "00011", "00101", "00111",
                    "01001", "01011", "01101", "01111",
                ],
            },
        ),
    ],
    ids=["repeat", "high-bits", "key-0-unlisted", "many-repeat"],
)
def test_c8_refutation_witness(monkeypatch, repeat, depth, witness):
    real = bitseq.nat_row
    monkeypatch.setattr(bitseq, "nat_row", lambda r: real(repeat(r)))
    r = run_claim("C8", depth)
    assert r.status == REFUTED
    assert r.witnesses == [witness]


def test_c8_oracle_and_rows_missing_the_same_string_is_refuted(monkeypatch):
    # row 5 repeats row 3 and the enumeration leaves out the string both
    # miss: the 8 rows show the 7 enumerated strings, one of them twice
    real_row, real_paths = bitseq.nat_row, tree.paths_at_depth
    monkeypatch.setattr(bitseq, "nat_row", lambda r: real_row(3 if r == 5 else r))
    monkeypatch.setattr(
        tree, "paths_at_depth", lambda i: (p for p in real_paths(i) if p != "101")
    )
    r = run_claim("C8", 3)
    assert (r.status, r.witnesses) == (REFUTED, [{"width": 3, "size": 7, "missing": []}])


def test_c8_path_past_its_width_is_refuted(monkeypatch):
    # the enumeration lists 1011, whose key 13 lies past the 8 strings of
    # width 3, in place of 101
    real = tree.paths_at_depth
    monkeypatch.setattr(
        tree,
        "paths_at_depth",
        lambda i: (p.replace("101", "1011") for p in real(i)) if i == 3 else real(i),
    )
    r = run_claim("C8", 4)
    assert (r.status, r.witnesses) == (REFUTED, [{"width": 3, "size": 8, "missing": ["1011"]}])


def test_c4_counts_every_enumerated_level(monkeypatch):
    # one path of level 14 left out: C4 enumerates every level up to the depth
    real = tree.paths_at_depth
    monkeypatch.setattr(
        tree, "paths_at_depth", lambda i: islice(real(i), 1, None) if i == 14 else real(i)
    )
    r = run_claim("C4", 14)
    witness = {"depth": 14, "sum": (1 << 15) - 3, "node_count": (1 << 15) - 2}
    assert (r.status, r.witnesses) == (REFUTED, [witness])


def test_c8_row_block_too_wide_for_its_array_is_internal_error(capsys, monkeypatch):
    # at depth 8 the rows are held in bytes: a block with a ninth bit set is
    # a fault of the row, not a row to mask
    real = bitseq.nat_row

    def nat_row(r):
        row = real(r)
        return SimpleNamespace(block=lambda start, n: row.block(start, n) | 1 << 8) if r == 5 else row

    monkeypatch.setattr(bitseq, "nat_row", nat_row)
    with pytest.raises(OverflowError):
        run_claim("C8", 8)
    assert cli.dispatch(["audit", "--claim", "C8", "--depth", "8"]) == cli.EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: OverflowError: ")


def test_c8_checks_its_budget_before_reading_a_row(monkeypatch):
    monkeypatch.setenv("ENUMERLAB_BUDGET", "4096")
    real = bitseq.nat_row
    read = []
    monkeypatch.setattr(bitseq, "nat_row", lambda r: read.append(r) or real(r))
    with pytest.raises(BudgetError, match=r"^enumeration of 8192 items exceeds budget of 4096$"):
        run_claim("C8", 13)
    assert read == []


def _traced_peak(fn) -> int:
    """Peak bytes allocated while fn runs, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("depth", [14, 15, 17])
def test_c1_holds_its_columns_and_flags(depth):
    # a level equal to its expected pairs verifies by comparison alone, so
    # C1 holds no columns and no flags: its traced peak stays under a
    # constant 16 KB at every depth (9.3 KB measured at depths 14 to 18),
    # where the columns and flags of level 14 alone take 48 KB
    reports = []
    assert _traced_peak(lambda: reports.append(run_claim("C1", depth))) <= 16 * 1024
    assert (reports[0].status, reports[0].witnesses) == (VERIFIED, [])


@pytest.mark.parametrize("depth, code", [(16, "H"), (17, "I")])
def test_c8_holds_its_rows_in_depth_bits(depth, code):
    # 16 bits per row up to depth 16, then 32, and the flags of the widest width
    held = _traced_peak(lambda: (array(code, [0]) * (1 << depth), bytearray(1 << depth)))
    reports = []
    assert _traced_peak(lambda: reports.append(run_claim("C8", depth))) <= 1.25 * held
    assert (reports[0].status, reports[0].witnesses) == (VERIFIED, [])


def test_c8_holds_its_rows_flags_and_path_halves_at_depth_14():
    # at depth 14 the two lists of path halves that paths_at_depth(14) builds
    # for the oracle add a third to the rows and flags, more than the 1.25
    # allowance covers, so they are counted with the 16-bit rows and flags
    held = _traced_peak(
        lambda: (array("H", [0]) * (1 << 14), bytearray(1 << 14), tree.paths_at_depth(14))
    )
    assert _traced_peak(lambda: run_claim("C8", 14)) <= 1.25 * held


# the two lists of path halves paths_at_depth(14) builds (about 17 KB) and
# the small objects of the loop, measured at 20 KB over the flags
_C3_ALLOWANCE = 24 * 1024


def test_c3_holds_flags_not_keys():
    # one flag per heap index 0..2^15-1, and no key of an examined node
    flags = _traced_peak(lambda: bytearray(2 << 14))
    assert _traced_peak(lambda: run_claim("C3", 14)) <= 1.25 * flags + _C3_ALLOWANCE


_UNDECIDED = "prefixes agree to the tested depth; disjointness not decidable at this depth"


def _swap_walk_positions(real, a, b):
    """The pairing module as the audit reads it, with walk positions a and b
    swapped in both zigzag_decode and zigzag_encode, so that each still
    inverts the other; the literal walk is left as it is."""
    def moved(i):
        return {a: b, b: a}.get(i, i)

    decode, encode = real.zigzag_decode, real.zigzag_encode
    return SimpleNamespace(**{
        **vars(real),
        "zigzag_decode": lambda i: decode(moved(i)),
        "zigzag_encode": lambda p: moved(encode(p)),
    })


def _odd_rows_read_as(real_split, rows):
    """diagonal.split whose odd half lists nat_row(rows[j]) at each row j
    of `rows` and the real odd row everywhere else."""
    def split(E):
        even, odd = real_split(E)
        return even, bitseq.Enumeration(
            lambda j: nat_row(rows[j]) if j in rows else odd.row(j), "mutated odd half"
        )
    return split


@pytest.mark.parametrize(
    "claim_id, module, name, mutate, depth, status, witness",
    [
        # pair (1, 1) encodes one past its walk position 4
        ("C2", pairing, "zigzag_encode",
         lambda real: lambda p: 5 if p == pairing.GridPair(1, 1) else real(p),
         10, REFUTED, {"index": 4, "pair": [1, 1], "reencoded": 5}),
        # the literal walk steps through the transposed grid
        ("C2", pairing, "zigzag_walk",
         lambda real: lambda: (pairing.GridPair(n, m) for m, n in real()),
         10, REFUTED, {"index": 1, "walk_pair": [0, 1]}),
        # decode and encode agree with each other, not with the walk, past index 1000
        ("C2", audit, "pairing", lambda real: _swap_walk_positions(real, 1100, 1200),
         1300, REFUTED, {"index": 1100, "walk_pair": [19, 27]}),
        ("C4", tree, "node_count", lambda real: lambda i: real(i) + (i == 5),
         8, REFUTED, {"depth": 5, "sum": 62, "node_count": 63}),
        # the all-ones path of length 3 ends one node short
        ("C5", tree, "path_to_addr",
         lambda real: lambda p: pairing.NodeAddr(3, 6) if p == "111" else real(p),
         6, REFUTED, {"level": 3, "node": [3, 6]}),
        ("C6", diagonal, "check_certificate",
         lambda real: lambda E, x, cert: cert.row != 3 and real(E, x, cert),
         6, REFUTED, {"enumeration": "constant(zeros)", "row": 3, "position": 4}),
        # odd row 3 reads as matrix row 4, which is even row 2
        ("C7", diagonal, "split", lambda real: _odd_rows_read_as(real, {3: 4}),
         6, NOT_FINITELY_CHECKABLE,
         {"even_row": 2, "odd_row": 3, "prefix_depth": 6, "note": _UNDECIDED}),
        # even row 64, past the first 64 rows of either half, and odd row 0
        ("C7", diagonal, "split", lambda real: _odd_rows_read_as(real, {0: 128}),
         70, NOT_FINITELY_CHECKABLE,
         {"even_row": 64, "odd_row": 0, "prefix_depth": 70, "note": _UNDECIDED}),
        ("C10", pairing, "row_label", lambda real: lambda i: real(i) + (i == 4),
         8, REFUTED, {"row": 4, "closed_form": 11, "walk": 10}),
    ],
    ids=[
        "C2-encode", "C2-walk", "C2-swap", "C4", "C5", "C6", "C7", "C7-past-64",
        "C10",
    ],
)
def test_mutation_witness(monkeypatch, claim_id, module, name, mutate, depth, status, witness):
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    r = run_claim(claim_id, depth)
    assert (r.status, r.witnesses) == (status, [witness])


def _c7_by_pairs(depth):
    """The first (even row, odd row) pair, in row-major order, whose
    length-depth prefixes agree, found by comparing every pair."""
    even, odd = diagonal.split(matrix_enumeration())
    for i in range(depth):
        for j in range(depth):
            if bitseq.eq_prefix(even.row(i), odd.row(j), depth) is None:
                return i, j
    return None


@pytest.mark.parametrize(
    "rows, depth",
    [
        ({3: 4}, 6),
        # the last odd row and the last even row read
        ({5: 8}, 6),
        ({5: 10}, 6),
        # two odd rows agree with even rows; row-major order picks even row 1
        ({5: 2, 2: 6}, 8),
        # two odd rows share a prefix; the first of them is the witness
        ({7: 10, 4: 10}, 12),
        # matrix row 18 agrees with even row 1 on the first 4 bits only
        ({1: 18}, 4),
        ({1: 18}, 5),
        # past the depth, no even row is read
        ({0: 40}, 20),
        ({0: 40}, 21),
    ],
)
def test_c7_finds_the_pair_that_comparing_every_pair_finds(monkeypatch, rows, depth):
    monkeypatch.setattr(diagonal, "split", _odd_rows_read_as(diagonal.split, rows))
    expected = _c7_by_pairs(depth)
    r = run_claim("C7", depth)
    if expected is None:
        assert (r.status, r.witnesses) == (VERIFIED, [])
    else:
        i, j = expected
        assert (r.status, r.witnesses) == (NOT_FINITELY_CHECKABLE, [
            {"even_row": i, "odd_row": j, "prefix_depth": depth, "note": _UNDECIDED}
        ])


def test_c7_large_depth():
    r = run_claim("C7", 2000)
    assert (r.status, r.witnesses) == (VERIFIED, [])


def test_c2_swap_past_the_depth_verifies(monkeypatch):
    monkeypatch.setattr(audit, "pairing", _swap_walk_positions(pairing, 1100, 1200))
    assert run_claim("C2", 1000).status == VERIFIED


def test_c9_witness_failing_revalidation_is_internal_error(capsys, monkeypatch):
    # row 3 reads as row 4, which holds a 1 at the witnessed position 3, or as
    # row 2, which first differs from all-ones at position 1, not 3
    real = bitseq.nat_row
    message = "witness failed revalidation: {'row': 3, 'position': 3, 'row_bit': 0, 'ones_bit': 1}"
    for read_as in (4, 2):
        monkeypatch.setattr(bitseq, "nat_row", lambda r: real(read_as) if r == 3 else real(r))
        with pytest.raises(AssertionError) as exc:
            run_claim("C9", 4)
        assert str(exc.value) == message
        assert cli.dispatch(["audit", "--claim", "C9", "--depth", "4"]) == cli.EXIT_INTERNAL
        assert capsys.readouterr() == ("", f"internal error: AssertionError: {message}\n")


def test_c9_diagonal_differing_from_all_ones_is_internal_error(capsys, monkeypatch):
    # the diagonal complement reads as all-zeros, so it differs from all-ones
    # at position 1, while every row witness still reads back as stated
    monkeypatch.setattr(diagonal, "antidiagonal", lambda E: bitseq.zeros())
    message = "diagonal complement unexpectedly differs from all-ones"
    with pytest.raises(AssertionError, match=f"^{message}$"):
        run_claim("C9", 6)
    assert cli.dispatch(["audit", "--claim", "C9", "--depth", "6"]) == cli.EXIT_INTERNAL
    assert capsys.readouterr() == ("", f"internal error: AssertionError: {message}\n")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "depth, budget, name",
    [
        (0, None, "audit_depth0.json"),
        (1, None, "audit_depth1.json"),
        (14, None, "audit_depth14.json"),
        (60, "4096", "audit_depth60_budget4096.json"),
    ],
    ids=["depth0", "depth1", "depth14", "depth60-budget4096"],
)
def test_json_matches_golden(monkeypatch, depth, budget, name):
    if budget is not None:
        monkeypatch.setenv("ENUMERLAB_BUDGET", budget)
    text = re.sub(r',\n *"elapsed_ms": \d+', "", reports_to_json(run_all(depth)))
    assert text + "\n" == (GOLDEN / name).read_text()
