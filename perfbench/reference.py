"""Independent references that check the benchmark's outputs.

Nothing here imports enumerlab: the program-language bit evaluator is
written from the grammar in the README, and the pointwise and command-line
checks use closed forms.  All checks run outside the timed region.
"""

from __future__ import annotations

import itertools
import json
import re

# sha256 of demos/output/figure{n}.svg, which `enumerlab fig n` reproduces
# byte for byte at default parameters
FIGURE_SHA256 = {
    1: "5190cffa12dfa8389bdc1e5e405ddb9acc7c30adad9ebc87a28bde27026d5c9d",
    2: "444c823117d9dbc737e9bdb022b1dcd4edb3a1bd1ce39e47b491adf4ec7cf0c8",
    3: "6a7e9df52415c352b318e9f87babc9edf34c5d199b468e077d079766f1681f00",
    4: "cd03425f232e049b406b32cff2987778926ca9ef21afa99d27eaf72a61e3f09f",
    5: "9489512e6ae7325d73cccdf368981002eb5c1743998b45c60a842dd02dc04437",
    6: "a28ec64c8dfbbef2f3ecea3d9465e70cd8b333425fa78abe6bf659c4b110c9d3",
}

CLAIMS = tuple(f"C{i}" for i in range(1, 11))

# ---------------------------------------------------------------- programs

_ARITY = {
    "zeros": 0, "ones": 0, "periodic": 1, "natrow": 1, "prepend": 2,
    "compl": 1, "diagc": 1, "figure5": 0, "const": 1, "interleave": 2,
    "spliteven": 1, "splitodd": 1, "insert": 3,
}
_TOKEN = re.compile(r"\s*(?:([a-z][a-z0-9]*)|([0-9]+)|([(),]))")


def parse(text: str) -> tuple:
    """Program text -> nested tuples (op, *args).  Iterative, so any nesting
    depth parses; literals stay strings except the nat of natrow/insert."""
    stack: list[list] = [[]]
    for name, digits, punct in _TOKEN.findall(text):
        if name and _ARITY[name] == 0:
            stack[-1].append((name,))
        elif name:
            stack.append([name])
        elif digits:
            stack[-1].append(digits)
        elif punct == ")":
            node = stack.pop()
            if node[0] == "natrow":
                node[1] = int(node[1])
            elif node[0] == "insert":
                node[2] = int(node[2])
            stack[-1].append(tuple(node))
    (program,) = stack[0]
    return program


def bit(node: tuple, i: int, row: int | None = None) -> int:
    """Bit i (1-based) of a sequence program, or of row `row` of an
    enumeration program.  One walk down the tree, no recursion."""
    flip = 0
    while True:
        op = node[0]
        if op == "zeros":
            return flip
        if op == "ones":
            return 1 ^ flip
        if op == "periodic":
            return int(node[1][(i - 1) % len(node[1])]) ^ flip
        if op == "natrow":
            return ((node[1] >> (i - 1)) & 1) ^ flip
        if op == "figure5":
            return ((row >> (i - 1)) & 1) ^ flip
        if op == "prepend":
            head = node[1]
            if i <= len(head):
                return int(head[i - 1]) ^ flip
            i -= len(head)
            node = node[2]
        elif op == "compl":
            flip ^= 1
            node = node[1]
        elif op == "diagc":  # bit i is the complement of bit i of row i-1
            flip ^= 1
            row = i - 1
            node = node[1]
        elif op == "const":
            row = None
            node = node[1]
        elif op == "interleave":
            node = node[1 + (row & 1)]
            row >>= 1
        elif op == "spliteven":
            row = 2 * row
            node = node[1]
        elif op == "splitodd":
            row = 2 * row + 1
            node = node[1]
        else:  # insert(E, k, s)
            k = node[2]
            if row == k:
                row = None
                node = node[3]
            else:
                row = row if row < k else row - 1
                node = node[1]


def complement_bit(program: tuple, i: int) -> int:
    """Bit i of the diagonal complement of an enumeration program."""
    return 1 - bit(program, i, row=i - 1)


# ---------------------------------------------------------------- closed forms


def triangular(d: int) -> int:
    return d * (d + 1) // 2


def walk_position(m: int, n: int) -> int:
    """Position of (m, n) on the boustrophedon walk: diagonal d = m + n
    starts at triangular(d); even diagonals run by m, odd ones by n."""
    d = m + n
    return triangular(d) + (m if d % 2 == 0 else n)


def row_label(i: int) -> int:
    return walk_position(0, i)


def lsb_bit(r: int, c: int) -> int:
    """Bit c (0-based, least significant first) of r, read off its binary
    numeral rather than by shifting."""
    digits = bin(r)[2:]
    return int(digits[-1 - c]) if c < len(digits) else 0


def row_prefix(r: int, n: int) -> str:
    return bin(r)[2:][::-1].ljust(n, "0")[:n]


def bit_strings(i: int) -> list[str]:
    return ["".join(bits) for bits in itertools.product("01", repeat=i)]


# ---------------------------------------------------------------- command line


def expected_stdout(argv: list[str]) -> str:
    """What the command prints, from closed forms and the reference
    evaluator (audit and fig are checked separately)."""
    cmd, action, *rest = argv
    nums = [int(a) for a in rest if a.isdigit()]
    if (cmd, action) == ("pair", "encode"):
        lines = [walk_position(nums[0], nums[1])]
    elif (cmd, action) == ("pair", "decode"):
        i = nums[0]
        d = _diagonal_of(i)
        r = i - triangular(d)
        m, n = (r, d - r) if d % 2 == 0 else (d - r, r)
        lines = [f"{m} {n}"]
    elif (cmd, action) == ("pair", "level"):
        top = (1 << nums[0]) - 1
        lines = [f"{j} {top - j}" for j in range(top + 1)]
    elif (cmd, action) == ("pair", "rowlabel"):
        lines = [row_label(nums[0])]
    elif (cmd, action) == ("tree", "paths"):
        lines = bit_strings(nums[0])
    elif (cmd, action) == ("tree", "count"):
        lines = [sum(1 << t for t in range(1, nums[0] + 1))]
    elif (cmd, action) == ("matrix", "entry"):
        lines = [lsb_bit(nums[0], nums[1])]
    elif (cmd, action) == ("matrix", "row"):
        lines = [row_prefix(nums[0], nums[1])]
    elif (cmd, action) == ("matrix", "submatrix"):
        lines = bit_strings(nums[0])
    elif (cmd, action) == ("matrix", "labels"):
        lines = [row_label(i) for i in range(nums[0])]
    else:
        program = parse(rest[0])
        rows = int(rest[2])
        if action == "apply":
            n = int(rest[4])
            lines = [
                f"row {r}: " + "".join(str(bit(program, i, row=r)) for i in range(1, n + 1))
                for r in range(rows)
            ]
            lines.append(
                "diagonal complement: "
                + "".join(str(complement_bit(program, i)) for i in range(1, n + 1))
            )
        else:
            certs = [
                {
                    "row": r,
                    "position": r + 1,
                    "left_bit": complement_bit(program, r + 1),
                    "right_bit": bit(program, r + 1, row=r),
                }
                for r in range(rows)
            ]
            return json.dumps(certs, indent=2) + "\n"
    return "".join(f"{line}\n" for line in lines)


def _diagonal_of(i: int) -> int:
    """Largest d with triangular(d) <= i, by bisection."""
    lo, hi = 0, 1
    while triangular(hi) <= i:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if triangular(mid) <= i else (lo, mid)
    return lo


# ---------------------------------------------------------------- audit


def audit_problems(reports: list[dict], depth: int) -> list[str]:
    """Check the verdicts of a full audit (C9 refuted, every other claim
    verified) and recheck C9's witnesses from bit arithmetic alone."""
    problems = []
    if [r["claim"] for r in reports] != list(CLAIMS):
        problems.append(f"claim ids {[r['claim'] for r in reports]}")
    for r in reports:
        want = "refuted" if r["claim"] == "C9" else "verified"
        if r["status"] != want or r["depth"] != depth:
            problems.append(f"{r['claim']}: {r['status']} at depth {r['depth']}")
        if r["claim"] != "C9":
            continue
        for w in r["witnesses"]:
            if "position" not in w:
                if w.get("rows_checked") != 1 << depth:
                    problems.append(f"C9 summary witness {w}")
                continue
            row, pos = w["row"], w["position"]
            first_zero = all((row >> (q - 1)) & 1 for q in range(1, pos))
            if (row >> (pos - 1)) & 1 != w["row_bit"] or w["row_bit"] != 0 or (
                w["ones_bit"] != 1 or not first_zero
            ):
                problems.append(f"C9 witness {w}")
    return problems


def audit_markdown_problems(text: str, depth: int) -> list[str]:
    rows = [line.split("|") for line in text.splitlines() if line.startswith("| C")]
    reports = [
        {"claim": c[1].strip(), "status": c[2].strip(), "depth": int(c[3]), "witnesses": []}
        for c in rows
    ]
    return audit_problems(reports, depth)


def audit_json_problems(text: str, depth: int) -> list[str]:
    return audit_problems(json.loads(text), depth)
