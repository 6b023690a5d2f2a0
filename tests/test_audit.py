import json
import re
from pathlib import Path

import pytest

from enumerlab import audit, bitseq, cli, pairing, tree
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
from enumerlab.listmatrix import entry


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


def test_c8_coverage():
    assert run_claim("C8", 12).status == VERIFIED


def test_c9_refutation_and_witnesses():
    r = run_claim("C9", 12)
    assert r.status == REFUTED
    assert r.witnesses
    summary = r.witnesses[-1]
    assert summary["rows_checked"] == 4096
    assert summary["max_position"] <= 13
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
    # enumerating millions of items first
    monkeypatch.setenv("ENUMERLAB_BUDGET", "4096")
    reports = run_all(60)
    assert len(reports) == 10
    by_id = {r.claim_id: r for r in reports}
    assert by_id["C1"].status == NOT_FINITELY_CHECKABLE
    assert "error" in by_id["C1"].witnesses[0]
    # cheap closed-form claims still run at this depth
    assert by_id["C5"].status == VERIFIED


def test_run_all_propagates_internal_fault(monkeypatch):
    def broken(depth):
        raise AssertionError("witness failed revalidation")

    anchor, _ = audit._CLAIMS["C9"]
    monkeypatch.setitem(audit._CLAIMS, "C9", (anchor, broken))
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
    "moves, witness",
    [
        # two nodes of level 3 project to one pair
        ({(3, 5): (3, 2)}, {"pair": [2, 5], "node_a": [3, 2], "node_b": [3, 5]}),
        # a node of level 4 projects onto a pair of level 2
        ({(4, 0): (2, 1)}, {"pair": [1, 2], "node_a": [2, 1], "node_b": [4, 0]}),
    ],
    ids=["same-level", "across-levels"],
)
def test_c1_refutation_witness(monkeypatch, moves, witness):
    real = pairing.level_pairs

    def level_pairs(k):
        pairs = real(k)
        for (level, j), (to_level, to_j) in moves.items():
            if level == k:
                pairs[j] = real(to_level)[to_j]
        return pairs

    monkeypatch.setattr(pairing, "level_pairs", level_pairs)
    r = run_claim("C1", 6)
    assert r.status == REFUTED
    assert r.witnesses == [witness]


@pytest.mark.parametrize(
    "change",
    [lambda pairs: pairs + pairs[:1], lambda pairs: pairs[:-1]],
    ids=["padded-with-repeat", "one-short"],
)
def test_c1_level_of_wrong_length_is_internal_error(capsys, monkeypatch, change):
    real = pairing.level_pairs
    monkeypatch.setattr(
        pairing, "level_pairs", lambda k: change(real(k)) if k == 3 else real(k)
    )
    with pytest.raises(RuntimeError, match=r"^level_pairs\(3\) does not list 8 pairs$"):
        run_claim("C1", 6)
    assert cli.dispatch(["audit", "--claim", "C1", "--depth", "6"]) == cli.EXIT_INTERNAL
    assert capsys.readouterr() == (
        "",
        "internal error: RuntimeError: level_pairs(3) does not list 8 pairs\n",
    )


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
        # 16 endings collapse onto one node: the first 8 of the missing set
        # are taken before sorting
        (
            {format(j, "05b"): (5, 0) for j in range(16, 32)},
            6,
            REFUTED,
            [
                {
                    "missing": [
                        (5, 17), (5, 20), (5, 21), (5, 23),
                        (5, 24), (5, 27), (5, 30), (5, 31),
                    ],
                    "extra": [],
                }
            ],
        ),
        # an ending moves below the examined depth
        ({"111": (6, 0)}, 5, REFUTED, [{"missing": [(3, 7)], "extra": [(6, 0)]}]),
        # two endings swap levels: every level is wrong, their union is not
        ({"00": (3, 0), "000": (2, 0)}, 5, VERIFIED, []),
    ],
    ids=["one-moved", "16-missing", "extra", "levels-swapped"],
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


@pytest.mark.parametrize(
    "repeat, depth, witness",
    [
        # row 5 repeats row 3
        (lambda r: 3 if r == 5 else r, 6, {"width": 3, "size": 7, "missing": ["101"]}),
        # row 5 reads row 13, which agrees with it in the first 3 columns
        (lambda r: 13 if r == 5 else r, 6, {"width": 4, "size": 15, "missing": ["1010"]}),
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
    ids=["repeat", "high-bits", "many-repeat"],
)
def test_c8_refutation_witness(monkeypatch, repeat, depth, witness):
    real = bitseq.nat_row
    monkeypatch.setattr(bitseq, "nat_row", lambda r: real(repeat(r)))
    r = run_claim("C8", depth)
    assert r.status == REFUTED
    assert r.witnesses == [witness]


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
