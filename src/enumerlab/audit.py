"""Executable claim catalog.

Each claim with finitely checkable content runs at a caller-chosen depth and
returns Verified(depth), Refuted(witnesses), or NotFinitelyCheckable.  A
finite pass is never extrapolated to an infinite conclusion: Verified means
"no counterexample within the examined range", nothing more.

Witnesses are plain dicts built from public module operations, so a report
consumer can revalidate them with entry, BitSeq.bit_at and eq_prefix alone.

Claim ids:
  C1  tree-to-grid projection is injective across levels
  C2  boustrophedon walk encode/decode is a bijection
  C3  path endings at depths 1..i cover all non-root nodes of the depth-i tree
  C4  per-level path counts sum to the non-root node count
  C5  the all-ones path meets column 0 at row 2^k - 1, inclusive distance 2^k
  C6  the diagonal complement differs from every listed row (certificate battery)
  C7  even-row and odd-row halves of the matrix list are prefix-disjoint
  C8  the 2^i-by-i submatrix lists every length-i bit string exactly once
  C9  the matrix lists every infinite path -- REFUTED: rows have finite support
  C10 closed-form row labels match the step-by-step walk count

The exponential claims check one tree level at a time with set operations
over plain keys, and pay for witnesses only on a refutation, when they scan
again in (level, offset) order:
  C1  reads each level's image from pairing.level_pairs, checks it lists
      2^k pairs, and adds it to the pairs seen so far in one update; the
      level holds 2^k distinct pairs, none seen on an earlier level, exactly
      when the seen set grows by 2^k
  C3  keys the ending of every enumerated path (through tree.path_to_addr)
      by its heap index 2^k + j; level t must give exactly 2^t..2^(t+1)-1
  C8  reads each of the first 2^d rows once, as a d-bit nat_row block;
      width i keeps the low i bits and compares them with the enumerated
      paths of length i read as ints
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from . import bitseq, diagonal, listmatrix, pairing, tree
from .budget import BudgetError, check_budget

__all__ = [
    "VERIFIED",
    "REFUTED",
    "NOT_FINITELY_CHECKABLE",
    "CLAIM_IDS",
    "ClaimReport",
    "run_claim",
    "run_all",
    "report_to_dict",
    "reports_to_json",
    "reports_to_markdown",
]

VERIFIED = "verified"
REFUTED = "refuted"
NOT_FINITELY_CHECKABLE = "not_finitely_checkable"


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    anchor: str
    depth: int
    status: str
    witnesses: list = field(default_factory=list)
    elapsed_ns: int = 0

    def __post_init__(self) -> None:
        if self.status == REFUTED and not self.witnesses:
            raise ValueError("a refuted claim requires at least one witness")

    @property
    def elapsed_ms(self) -> int:
        """Whole milliseconds of elapsed_ns, the figure serialized reports carry."""
        return self.elapsed_ns // 1_000_000


def _battery() -> list[diagonal.Enumeration]:
    """Fixed enumeration battery for the certificate claims: an all-zeros
    list, the matrix, two interleavings, and the matrix with its own
    diagonal complement inserted at row 1."""
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


def _claim_c1(depth: int) -> tuple[str, list]:
    check_budget((1 << (depth + 1)) - 1)
    seen: set[pairing.GridPair] = set()
    for k in range(depth + 1):
        level = pairing.level_pairs(k)
        if len(level) != 1 << k:
            raise RuntimeError(f"level_pairs({k}) does not list {1 << k} pairs")
        before = len(seen)
        seen.update(level)
        if len(seen) != before + (1 << k):
            return REFUTED, [_c1_first_collision(k)]
    return VERIFIED, []


def _c1_first_collision(last: int) -> dict:
    """The first pair hit twice, scanning nodes in (k, j) order up to level
    `last`, with the node that hit it first."""
    first: dict[pairing.GridPair, tuple[int, int]] = {}
    for k in range(last + 1):
        level = pairing.level_pairs(k)
        for j in range(1 << k):
            p = level[j]
            if p in first:
                return {"pair": [p.m, p.n], "node_a": list(first[p]), "node_b": [k, j]}
            first[p] = (k, j)
    raise RuntimeError(f"level_pairs({last}) does not list {1 << last} pairs")


def _claim_c2(depth: int) -> tuple[str, list]:
    check_budget(depth)
    for i in range(depth):
        p = pairing.zigzag_decode(i)
        back = pairing.zigzag_encode(p)
        if back != i:
            return REFUTED, [{"index": i, "pair": [p.m, p.n], "reencoded": back}]
    # each anti-diagonal fully inside the range must map onto a contiguous
    # block of walk positions
    d = 0
    while (d + 1) * (d + 2) // 2 <= depth:
        lo = d * (d + 1) // 2
        hi = (d + 1) * (d + 2) // 2
        positions = {
            pairing.zigzag_encode(pairing.GridPair(m, d - m)) for m in range(d + 1)
        }
        if positions != set(range(lo, hi)):
            return REFUTED, [{"diagonal": d, "positions": sorted(positions)}]
        d += 1
    # spot-check the closed form against the literal walk
    walk = pairing.zigzag_walk()
    for i in range(min(depth, 1000)):
        stepped = next(walk)
        if pairing.zigzag_decode(i) != stepped:
            return REFUTED, [{"index": i, "walk_pair": list(stepped)}]
    return VERIFIED, []


def _claim_c3(depth: int) -> tuple[str, list]:
    check_budget((1 << (depth + 1)) - 2)
    # every enumerated path goes through path_to_addr; node (k, j) is keyed
    # by its heap index 2^k + j, so level t must give exactly 2^t..2^(t+1)-1
    for t in range(1, depth + 1):
        endings = {
            (1 << a.level) + a.offset
            for a in map(tree.path_to_addr, tree.paths_at_depth(t))
        }
        if len(endings) != 1 << t or not endings.issuperset(range(1 << t, 2 << t)):
            return _c3_all_levels(depth)
    return VERIFIED, []


def _c3_all_levels(depth: int) -> tuple[str, list]:
    """The claim over all levels at once, with (level, offset) tuple sets:
    a level that misses its own nodes may still be made up by another."""
    endings = set()
    for t in range(1, depth + 1):
        for p in tree.paths_at_depth(t):
            a = tree.path_to_addr(p)
            endings.add((a.level, a.offset))
    expected = {(k, j) for k in range(1, depth + 1) for j in range(1 << k)}
    if endings == expected:
        return VERIFIED, []
    missing = sorted(list(expected - endings)[:8])
    extra = sorted(list(endings - expected)[:8])
    return REFUTED, [{"missing": missing, "extra": extra}]


def _claim_c4(depth: int) -> tuple[str, list]:
    total = 0
    for i in range(1, depth + 1):
        total += 1 << i
        if total != tree.node_count(i):
            return REFUTED, [{"depth": i, "sum": total, "node_count": tree.node_count(i)}]
    # enumeration cross-check where it is cheap
    enum_total = 0
    for i in range(1, min(depth, 12) + 1):
        level_count = sum(1 for _ in tree.paths_at_depth(i))
        if level_count != 1 << i:
            return REFUTED, [{"depth": i, "enumerated": level_count}]
        enum_total += level_count
        if enum_total != tree.node_count(i):
            return REFUTED, [
                {"depth": i, "enumerated_sum": enum_total, "node_count": tree.node_count(i)}
            ]
    return VERIFIED, []


def _claim_c5(depth: int) -> tuple[str, list]:
    # The projection maps node (k, j) to (j, 2^k-1-j), which puts the
    # all-ones path at column 2^k-1.  The claim places it in column 0,
    # which holds only under the mirrored orientation (k, j) -> (2^k-1-j, j);
    # the verdict below is relative to that flag.
    witnesses = [{"orientation": "mirrored"}]
    for k in range(depth + 1):
        top = (1 << k) - 1
        addr = tree.path_to_addr("1" * k)
        if addr != pairing.NodeAddr(k, top):
            return REFUTED, [{"level": k, "node": [addr.level, addr.offset]}]
        mirrored = pairing.GridPair(top - addr.offset, addr.offset)
        if mirrored != pairing.GridPair(0, top):
            return REFUTED, [{"level": k, "pair": [mirrored.m, mirrored.n]}]
        # inclusive node count down column 0 from (0,0) to (0, 2^k-1)
        distance = top - 0 + 1
        if distance != 1 << k:
            return REFUTED, [{"level": k, "distance": distance}]
    return VERIFIED, witnesses


def _claim_c6(depth: int) -> tuple[str, list]:
    checked = []
    for E in _battery():
        certs = diagonal.certificates(E, depth)
        x = diagonal.antidiagonal(E)
        for cert in certs:
            if not diagonal.check_certificate(E, x, cert):
                return REFUTED, [
                    {
                        "enumeration": E.description,
                        "row": cert.row,
                        "position": cert.position,
                    }
                ]
        checked.append({"enumeration": E.description, "certificates": len(certs)})
    return VERIFIED, checked


def _claim_c7(depth: int) -> tuple[str, list]:
    even, odd = diagonal.split(listmatrix.matrix_enumeration())
    rows = min(depth, 64)
    for i in range(rows):
        for j in range(rows):
            if bitseq.eq_prefix(even.row(i), odd.row(j), depth) is None:
                return NOT_FINITELY_CHECKABLE, [
                    {
                        "even_row": i,
                        "odd_row": j,
                        "prefix_depth": depth,
                        "note": "prefixes agree to the tested depth; "
                        "disjointness not decidable at this depth",
                    }
                ]
    return VERIFIED, []


def _claim_c8(depth: int) -> tuple[str, list]:
    # row r's first `depth` bits, packed least-significant-bit first, so
    # its length-i prefix is the low i bits; each row is read once
    rows: list[int] = []
    for i in range(1, depth + 1):
        check_budget(1 << i)
        rows.extend(
            bitseq.nat_row(r).block(1, depth) for r in range(len(rows), 1 << i)
        )
        listed = set(map(((1 << i) - 1).__and__, rows))
        expected = {int(p[::-1], 2) for p in tree.paths_at_depth(i)}
        if listed != expected:
            strings = {format(b, f"0{i}b")[::-1] for b in listed}
            sample = sorted(set(tree.paths_at_depth(i)) - strings)[:8]
            return REFUTED, [{"width": i, "size": len(listed), "missing": sample}]
    return VERIFIED, []


def _claim_c9(depth: int) -> tuple[str, list]:
    if depth == 0:
        # a zero-depth probe examines no matrix entries, so the
        # completeness premise cannot be confronted with any row
        return NOT_FINITELY_CHECKABLE, []
    n_rows = 1 << depth
    check_budget(n_rows)
    all_ones = bitseq.ones()
    sample: list[dict] = []
    max_position = 0
    max_row = 0
    for r in range(n_rows):
        # first zero bit of r, 1-based: the first position where row r
        # disagrees with the all-ones sequence
        x = r
        pos = 1
        while x & 1:
            x >>= 1
            pos += 1
        if pos > r.bit_length() + 1 or pos > depth + 1:
            return NOT_FINITELY_CHECKABLE, [
                {"row": r, "position": pos, "note": "bound violated"}
            ]
        if pos > max_position:
            max_position = pos
            max_row = r
        if r < 8:
            sample.append(_disagreement_witness(r, pos))
    witnesses = sample + [_disagreement_witness(max_row, max_position)]
    for w in witnesses:
        seq = bitseq.nat_row(w["row"])
        if seq.bit_at(w["position"]) != w["row_bit"] or all_ones.bit_at(
            w["position"]
        ) != w["ones_bit"]:
            raise AssertionError(f"witness failed revalidation: {w}")
    # the diagonal complement of the matrix IS the missing all-ones path
    diag = diagonal.antidiagonal(listmatrix.matrix_enumeration())
    agree_to = min(256, depth + 1)
    if bitseq.eq_prefix(diag, all_ones, agree_to) is not None:
        return NOT_FINITELY_CHECKABLE, [
            {"note": "diagonal complement unexpectedly differs from all-ones"}
        ]
    witnesses.append(
        {
            "rows_checked": n_rows,
            "max_position": max_position,
            "diagonal_complement_is_all_ones_to": agree_to,
        }
    )
    return REFUTED, witnesses


def _disagreement_witness(r: int, pos: int) -> dict:
    return {"row": r, "position": pos, "row_bit": 0, "ones_bit": 1}


def _claim_c10(depth: int) -> tuple[str, list]:
    check_budget(depth * (depth + 1) // 2 + depth)
    walked = pairing.row_labels_by_walk(depth)
    for i in range(depth):
        closed = pairing.row_label(i)
        if closed != walked[i]:
            return REFUTED, [{"row": i, "closed_form": closed, "walk": walked[i]}]
    return VERIFIED, []


_CLAIMS = {
    "C1": (
        "projection of tree level k onto the anti-diagonal of sum 2^k-1 "
        "is injective, with disjoint images across levels",
        _claim_c1,
    ),
    "C2": (
        "the boustrophedon walk gives a bijection between walk positions "
        "and grid pairs",
        _claim_c2,
    ),
    "C3": (
        "endings of all paths of length 1..i are exactly the non-root "
        "nodes of the depth-i tree",
        _claim_c3,
    ),
    "C4": (
        "path counts per level sum to the non-root node count: "
        "sum of 2^t for t<=i equals 2^(i+1)-2",
        _claim_c4,
    ),
    "C5": (
        "the all-ones path meets column 0 at row 2^k-1, and the inclusive "
        "node distance from the origin equals the level size 2^k",
        _claim_c5,
    ),
    "C6": (
        "the diagonal complement of a listed enumeration differs from "
        "every listed row at the paired position",
        _claim_c6,
    ),
    "C7": (
        "the even-row and odd-row halves of the matrix list are disjoint, "
        "checked as prefix-distinctness",
        _claim_c7,
    ),
    "C8": (
        "the first 2^i rows restricted to i columns list every length-i "
        "bit string exactly once",
        _claim_c8,
    ),
    "C9": (
        "the matrix lists every infinite path: refuted, every row has "
        "finite support and the all-ones path is absent",
        _claim_c9,
    ),
    "C10": (
        "closed-form row labels agree with the literal step-by-step "
        "walk count",
        _claim_c10,
    ),
}

CLAIM_IDS = tuple(_CLAIMS)


def run_claim(claim_id: str, depth: int) -> ClaimReport:
    """Run one claim at the given depth.

    Raises KeyError for an unknown claim id and BudgetError when the depth
    implies an enumeration beyond the configured budget.
    """
    if claim_id not in _CLAIMS:
        raise KeyError(f"unknown claim id {claim_id!r}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    anchor, fn = _CLAIMS[claim_id]
    start = time.perf_counter_ns()
    status, witnesses = fn(depth)
    elapsed_ns = time.perf_counter_ns() - start
    return ClaimReport(claim_id, anchor, depth, status, witnesses, elapsed_ns)


def run_all(depth: int) -> list[ClaimReport]:
    """Run every claim in catalog order.

    A claim whose depth exceeds the budget becomes a not-finitely-checkable
    entry (with the BudgetError recorded as an "error" witness) rather than
    aborting the batch.  Every other exception propagates: a negative depth,
    a malformed ENUMERLAB_BUDGET or an internal fault must not pass for a
    verdict.
    """
    reports = []
    for claim_id in CLAIM_IDS:
        try:
            reports.append(run_claim(claim_id, depth))
        except BudgetError as exc:
            anchor, _ = _CLAIMS[claim_id]
            reports.append(
                ClaimReport(
                    claim_id,
                    anchor,
                    depth,
                    NOT_FINITELY_CHECKABLE,
                    [{"error": str(exc)}],
                    0,
                )
            )
    return reports


def report_to_dict(report: ClaimReport) -> dict:
    """Stable field names and order for serialized reports."""
    return {
        "claim": report.claim_id,
        "anchor": report.anchor,
        "depth": report.depth,
        "status": report.status,
        "witnesses": report.witnesses,
        "elapsed_ms": report.elapsed_ms,
    }


def reports_to_json(reports: list[ClaimReport]) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=2)


def reports_to_markdown(reports: list[ClaimReport]) -> str:
    lines = ["| claim | status | depth | witnesses |", "| --- | --- | --- | --- |"]
    for r in reports:
        lines.append(
            f"| {r.claim_id} | {r.status} | {r.depth} | {len(r.witnesses)} |"
        )
    lines.append("")
    for r in reports:
        lines.append(f"- **{r.claim_id}**: {r.anchor}")
    return "\n".join(lines) + "\n"
