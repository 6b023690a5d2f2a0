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

C1, C3 and C8 hold their state in flat memory, int arrays and byte flags,
never one Python object per node; C3 and C8 fill theirs by map pipelines
that run in C, and C4 holds a count:
  C1  reads each level k once from pairing.level_pairs, in one plain loop
      that keeps one flag per column and the m's in order, in an array of
      2^k items of the narrowest unsigned type that holds k bits, sized
      before the loop; the level verifies when every m + n is 2^k - 1, no
      coordinate is negative and no m repeats, so its 2^k pairs are
      distinct and cover every column.  A level of another length is an
      internal error, raised before any witness
  C3  flags the ending of every enumerated path (through tree.path_to_addr)
      at its heap index 2^k + j in one bytearray over all lengths; indices
      2..2^(depth+1)-1 must all be set, and any other goes to a small set;
      witnesses are the 8 smallest missing and extra keys
  C4  counts the enumerated paths of each level 1..i and compares their
      running sum with node_count(i)
  C8  reads each of its 2^d rows once, as a d-bit nat_row block, into one
      array of the narrowest unsigned type that holds d bits, so that a
      block too wide for that type is an internal error; width i verifies
      when the enumerated paths of length i, read as ints, and the rows'
      low i bits each set all of 2^i flags, so the rows list each key
      once; the sets of a witness are built only on the way to a refutation

Each _CLAIMS row gives the items its claim examines at a depth, and
run_claim checks them against the budget before the claim runs.

C7 reads each of its 2 * depth row prefixes once, the odd ones into a dict
from prefix to row, so no pair of rows is compared one by one.  C9 reads
where each of its 2^depth rows first differs from the all-ones path in one
pass in C, as bytes of r ^ (r + 1) bit lengths; max, index and the first 8
of them give its witnesses, and a witness or a diagonal complement that
does not read back as stated raises AssertionError.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import deque
from contextlib import suppress
from heapq import nsmallest
from itertools import chain, filterfalse, islice, repeat
from operator import and_, itemgetter, setitem, xor

from . import bitseq, diagonal, listmatrix, pairing, tree
from .budget import BudgetError, check_budget
from .record import Record, _repr_or_hex

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

_reversed = itemgetter(slice(None, None, -1))


class ClaimReport(Record):
    __slots__ = ("_claim_id", "_anchor", "_depth", "_status", "_witnesses", "_elapsed_ns")

    def __init__(
        self, claim_id: str, anchor: str, depth: int, status: str,
        witnesses: list | None = None, elapsed_ns: int = 0,
    ) -> None:
        witnesses = [] if witnesses is None else witnesses
        if status == REFUTED and not witnesses:
            raise ValueError("a refuted claim requires at least one witness")
        self._claim_id, self._anchor, self._depth = claim_id, anchor, depth
        self._status, self._witnesses, self._elapsed_ns = status, witnesses, elapsed_ns

    @property
    def elapsed_ms(self) -> int:
        """Whole milliseconds of elapsed_ns, the figure serialized reports carry."""
        return self.elapsed_ns // 1_000_000


def _battery() -> list[bitseq.Enumeration]:
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
    # pairs on anti-diagonals of different sums differ, so levels whose pairs
    # all lie on their own anti-diagonal share no pair
    for k in range(depth + 1):
        witness = _c1_level(k)
        if witness is not None:
            return REFUTED, [witness]
    return VERIFIED, []


def _c1_level(k: int) -> dict | None:
    """The refutation at level k, or None when its 2^k pairs all lie on the
    anti-diagonal of sum 2^k - 1 in N x N, where m < 2^k fixes the pair, and
    have distinct m.  The level is read once, in one pass that keeps a flag
    per column and the m's in offset order, in an array of 2^k items of k
    bits sized before the pass, so that it is never grown and copied; the
    witness is the first node, in offset order, off that anti-diagonal or on
    an earlier node's pair.  The level's length is judged before any witness
    is returned."""
    size = 1 << k
    pairs = iter(pairing.level_pairs(k))
    flags, ms, witness, j = bytearray(size), array(_unsigned(k), [0]) * size, None, -1
    for j, (m, n) in enumerate(pairs):
        if m + n != size - 1 or m < 0 or n < 0:
            witness = {"node": [k, j], "pair": [m, n], "sum": m + n}
            break
        if flags[m]:
            witness = {"pair": [m, n], "node_a": [k, ms.index(m)], "node_b": [k, j]}
            break
        # 2^k pairs with distinct m < 2^k take every column, so a pair past
        # them repeats an m or lies off the anti-diagonal: j < 2^k here
        flags[m], ms[j] = 1, m
    if j + 1 + sum(1 for _ in pairs) != size:
        raise RuntimeError(f"level_pairs({k}) does not list {size} pairs")
    # with no witness, the 2^k distinct m's in [0, 2^k) cover every column
    return witness


def _unsigned(bits: int) -> str:
    """The narrowest unsigned array type code whose items hold `bits` bits."""
    return next((code for code in "BHI" if bits <= 8 * array(code).itemsize), "Q")


def _covers(size: int, keys) -> bool:
    """Whether the keys take all `size` values, one byte flag each, in C."""
    flags = bytearray(size)
    deque(map(setitem, repeat(flags), keys, repeat(1)), maxlen=0)
    return flags.find(0) < 0


def _claim_c2(depth: int) -> tuple[str, list]:
    # decode inverts encode and follows the literal walk below the depth, so
    # each anti-diagonal's pairs, walked in order, encode onto its block
    walk = pairing.zigzag_walk()
    for i in range(depth):
        p = pairing.zigzag_decode(i)
        back = pairing.zigzag_encode(p)
        if back != i:
            return REFUTED, [{"index": i, "pair": [p.m, p.n], "reencoded": back}]
        stepped = next(walk)
        if p != stepped:
            return REFUTED, [{"index": i, "walk_pair": list(stepped)}]
    return VERIFIED, []


def _claim_c3(depth: int) -> tuple[str, list]:
    # heap index 2^k + j: one key per node (k, j), since NodeAddr keeps j < 2^k
    paths = chain.from_iterable(map(tree.paths_at_depth, range(1, depth + 1)))
    stop = 2 << depth
    seen, extra = bytearray(stop), set()
    for a in map(tree.path_to_addr, paths):
        key = (1 << a.level) + a.offset
        if 1 < key < stop:
            seen[key] = 1
        else:
            extra.add(key)
    if not extra and seen.find(0, 2) < 0:
        return VERIFIED, []
    missing = islice(filterfalse(seen.__getitem__, range(2, stop)), 8)
    return REFUTED, [{"missing": _c3_nodes(missing), "extra": _c3_nodes(nsmallest(8, extra))}]


def _c3_nodes(keys) -> list[tuple[int, int]]:
    """The (level, offset) nodes of heap keys."""
    return [(h.bit_length() - 1, h - (1 << (h.bit_length() - 1))) for h in keys]


def _claim_c4(depth: int) -> tuple[str, list]:
    total = 0
    for i in range(1, depth + 1):
        total += sum(1 for _ in tree.paths_at_depth(i))
        if total != tree.node_count(i):
            return REFUTED, [{"depth": i, "sum": total, "node_count": tree.node_count(i)}]
    return VERIFIED, []


def _claim_c5(depth: int) -> tuple[str, list]:
    # The projection maps node (k, j) to (j, 2^k-1-j), which puts the
    # all-ones path at column 2^k-1.  The claim places it in column 0,
    # which holds only under the mirrored orientation (k, j) -> (2^k-1-j, j);
    # the verdict below is relative to that flag.  At node (k, 2^k-1), the
    # mirrored pair (0, 2^k-1) and the inclusive distance 2^k are identities.
    for k in range(depth + 1):
        addr = tree.path_to_addr("1" * k)
        if addr != pairing.NodeAddr(k, (1 << k) - 1):
            return REFUTED, [{"level": k, "node": [addr.level, addr.offset]}]
    return VERIFIED, [{"orientation": "mirrored"}]


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
    # each odd row's prefix is read once, keyed to the first row that has
    # it, so the first even row found gives the first pair in row-major order
    odd_rows: dict[str, int] = {}
    for j in range(depth):
        odd_rows.setdefault(bitseq.prefix(odd.row(j), depth), j)
    for i in range(depth):
        j = odd_rows.get(bitseq.prefix(even.row(i), depth))
        if j is not None:
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
    rows = array(_unsigned(depth))
    for i in range(1, depth + 1):
        rows.extend(
            bitseq.nat_row(r).block(1, depth) for r in range(len(rows), 1 << i)
        )
        witness = _c8_width(rows, i)
        if witness is not None:
            return REFUTED, [witness]
    return VERIFIED, []


def _c8_width(rows: array, i: int) -> dict | None:
    """The refutation at width i, or None when the keys of the enumerated
    paths of length i, bit strings read as ints, and the low i bits of the
    2^i rows each take all 2^i values: then the rows list each key exactly
    once.  Sets are built only on the way to a refutation."""
    size = 1 << i
    with suppress(IndexError):  # a key past 2^i, which no row lists
        keys = map(int, map(_reversed, tree.paths_at_depth(i)), repeat(2))
        if _covers(size, keys) and _covers(size, map(and_, rows, repeat(size - 1))):
            return None
    missing = set(map(int, map(_reversed, tree.paths_at_depth(i)), repeat(2)))
    listed = set(map(and_, rows, repeat(size - 1)))
    sample = sorted(format(b, f"0{i}b")[::-1] for b in missing - listed)[:8]
    return {"width": i, "size": len(listed), "missing": sample}


def _claim_c9(depth: int) -> tuple[str, list]:
    if depth == 0:
        # a zero-depth probe examines no matrix entries, so the
        # completeness premise cannot be confronted with any row
        return NOT_FINITELY_CHECKABLE, []
    n_rows = 1 << depth
    # first zero bit of r, 1-based: the first position where row r disagrees
    # with the all-ones sequence, the bit length of r ^ (r + 1), <= depth + 1
    positions = bytes(map(int.bit_length, map(xor, range(n_rows), range(1, n_rows + 1))))
    max_position = max(positions)
    rows = chain(range(min(8, n_rows)), [positions.index(max_position)])
    witnesses = [{"row": r, "position": positions[r], "row_bit": 0, "ones_bit": 1} for r in rows]
    all_ones = bitseq.ones()
    for w in witnesses:
        if bitseq.eq_prefix(bitseq.nat_row(w["row"]), all_ones, w["position"]) != w["position"]:
            raise AssertionError(f"witness failed revalidation: {w}")
    # the diagonal complement of the matrix IS the missing all-ones path
    diag = diagonal.antidiagonal(listmatrix.matrix_enumeration())
    agree_to = min(256, depth + 1)
    if bitseq.eq_prefix(diag, all_ones, agree_to) is not None:
        raise AssertionError("diagonal complement unexpectedly differs from all-ones")
    witnesses.append(
        {
            "rows_checked": n_rows,
            "max_position": max_position,
            "diagonal_complement_is_all_ones_to": agree_to,
        }
    )
    return REFUTED, witnesses


def _claim_c10(depth: int) -> tuple[str, list]:
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
        lambda d: (2 << d) - 1,
        _claim_c1,
    ),
    "C2": (
        "the boustrophedon walk gives a bijection between walk positions "
        "and grid pairs",
        lambda d: d,
        _claim_c2,
    ),
    "C3": (
        "endings of all paths of length 1..i are exactly the non-root "
        "nodes of the depth-i tree",
        lambda d: (2 << d) - 2,
        _claim_c3,
    ),
    "C4": (
        "path counts per level sum to the non-root node count: "
        "sum of 2^t for t<=i equals 2^(i+1)-2",
        lambda d: (2 << d) - 2,
        _claim_c4,
    ),
    "C5": (
        "the all-ones path meets column 0 at row 2^k-1, and the inclusive "
        "node distance from the origin equals the level size 2^k",
        lambda d: d * (d + 1) // 2,
        _claim_c5,
    ),
    "C6": (
        "the diagonal complement of a listed enumeration differs from "
        "every listed row at the paired position",
        lambda d: len(_battery()) * d,
        _claim_c6,
    ),
    "C7": (
        "the even-row and odd-row halves of the matrix list are disjoint, "
        "checked as prefix-distinctness",
        lambda d: d * d,
        _claim_c7,
    ),
    "C8": (
        "the first 2^i rows restricted to i columns list every length-i "
        "bit string exactly once",
        lambda d: 1 << d,
        _claim_c8,
    ),
    "C9": (
        "the matrix lists every infinite path: refuted, every row has "
        "finite support and the all-ones path is absent",
        lambda d: 1 << d,
        _claim_c9,
    ),
    "C10": (
        "closed-form row labels agree with the literal step-by-step "
        "walk count",
        lambda d: d * (d + 1) // 2 + d,
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
        raise ValueError(f"depth must be >= 0, got {_repr_or_hex(depth)}")
    anchor, items, check = _CLAIMS[claim_id]
    start = time.perf_counter_ns()
    check_budget(items(depth))
    status, witnesses = check(depth)
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
            anchor = _CLAIMS[claim_id][0]
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
