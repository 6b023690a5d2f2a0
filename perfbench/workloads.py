"""The benchmark's four workloads.

Each workload turns a seed into blocks of requests (`blocks`), serves one
request through the library (`serve`), says how much work a request asks
for (`work`) and checks an outcome against the references (`problems`).
A run stops only at a block boundary and serves every distinct request at
least once, so its mix does not depend on its length.  The library only
ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
import resource
import subprocess
import sys
from fractions import Fraction

import reference

from enumerlab import audit, bitseq, cli, diagonal, dsl, listmatrix, pairing


def _bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


class Workload:
    blocks_traced = 1

    def work(self, request) -> int:
        return 1

    def known_defect(self, request) -> str | None:
        """The exception type the seed code raises on this request, if it
        is a known defect; any other exception is a problem."""
        return None

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def comparable(self, outcome):
        """The part of an outcome that must repeat exactly."""
        return outcome


# ---------------------------------------------------------------- audit


class Audit(Workload):
    """Repeated `audit.run_all(DEPTH)`; one block is one call.  With a single
    distinct request, its tail is its own time."""

    DEPTH = 16
    min_requests = 3
    metric_names = ("audit_s", ("audit_tail_s", 0.90), "claims_per_s")

    def blocks(self, rng: random.Random) -> list[list]:
        return [[self.DEPTH]]

    def serve(self, depth):
        return [
            (r.claim_id, r.status, r.depth, r.witnesses) for r in audit.run_all(depth)
        ]

    def work(self, depth) -> int:
        return len(reference.CLAIMS)

    def problems(self, depth, out) -> list[str]:
        reports = [
            {"claim": c, "status": s, "depth": d, "witnesses": w} for c, s, d, w in out
        ]
        return reference.audit_problems(reports, depth)


# ---------------------------------------------------------------- programs

_DEEP_KINDS = {
    # name: (opening per level, leaf, closing per level, outer wrapper)
    "spliteven": ("spliteven(", "figure5", ")", "{}"),
    "splitodd": ("splitodd(", "figure5", ")", "{}"),
    "interleave": ("interleave(figure5,", "figure5", ")", "{}"),
    "insert": ("insert(", "figure5", ",3,ones)", "{}"),
    "compl": ("compl(", "ones", ")", "const({})"),
    "prepend": ("prepend(10,", "zeros", ")", "const({})"),
}
_DEEP_NESTING = (100, 300, 640, 1000)
# from this nesting on, the seed's recursive parser and evaluator raise
# RecursionError on some chain kinds (on every kind at 1000)
_RECURSION_DEFECT_NESTING = 640


def shallow_program(rng: random.Random, depth: int, want: str = "enum") -> str:
    """A random program over the whole grammar with operator nesting `depth`."""
    if want == "seq":
        if depth == 0:
            leaf = rng.randrange(4)
            if leaf < 2:
                return ("zeros", "ones")[leaf]
            if leaf == 2:
                return f"periodic({_bits(rng, rng.randint(1, 8))})"
            return f"natrow({rng.getrandbits(rng.randint(1, 64))})"
        op = rng.choice(("prepend", "compl", "diagc"))
        if op == "prepend":
            return f"prepend({_bits(rng, rng.randint(1, 8))},{shallow_program(rng, depth - 1, 'seq')})"
        if op == "compl":
            return f"compl({shallow_program(rng, depth - 1, 'seq')})"
        return f"diagc({shallow_program(rng, depth - 1)})"
    if depth == 0:
        return "figure5"
    op = rng.choice(("const", "interleave", "spliteven", "splitodd", "insert"))
    inner = shallow_program(rng, depth - 1, "seq" if op == "const" else "enum")
    if op == "const":
        return f"const({inner})"
    if op == "interleave":
        other = shallow_program(rng, rng.randrange(depth))
        return f"interleave({inner},{other})" if rng.random() < 0.5 else f"interleave({other},{inner})"
    if op == "insert":
        seq = shallow_program(rng, rng.randrange(depth), "seq")
        return f"insert({inner},{rng.randrange(10)},{seq})"
    return f"{op}({inner})"


def deep_program(kind: str, nesting: int) -> str:
    opening, leaf, closing, outer = _DEEP_KINDS[kind]
    return outer.format(opening * nesting + leaf + closing * nesting)


class Programs(Workload):
    """Program texts served like `diag apply` plus `diag cert`: shallow
    programs (nesting 1-6) at a long prefix, and a tail of deep chains."""

    ROWS, PREFIX = 8, 2048
    DEEP_ROWS, DEEP_PREFIX = 4, 64
    SHALLOW_PER_BLOCK, DEEP_PER_BLOCK = 18, 2
    N_BLOCKS = len(_DEEP_KINDS) * len(_DEEP_NESTING) // DEEP_PER_BLOCK
    SAMPLES = 8
    min_requests = (SHALLOW_PER_BLOCK + DEEP_PER_BLOCK) * N_BLOCKS
    blocks_traced = 2
    metric_names = ("program_p50_ms", ("program_p95_ms", 0.95), "bits_per_s")

    def blocks(self, rng: random.Random) -> list[list]:
        """Every kind/nesting pair of deep chain occurs once per 12 blocks,
        and each pair of blocks holds one chain of every nesting, so the two
        traced blocks always include the nestings that fail today."""
        kinds = {n: rng.sample(list(_DEEP_KINDS), len(_DEEP_KINDS)) for n in _DEEP_NESTING}
        combos = []
        for i in range(len(_DEEP_KINDS)):
            pair = [(kinds[n][i], n) for n in _DEEP_NESTING]
            rng.shuffle(pair)
            combos += pair
        deep = iter(combos)
        blocks = []
        for _ in range(self.N_BLOCKS):
            block = [
                (shallow_program(rng, rng.randint(1, 6)), self.ROWS, self.PREFIX)
                for _ in range(self.SHALLOW_PER_BLOCK)
            ]
            for _ in range(self.DEEP_PER_BLOCK):
                block.append((deep_program(*next(deep)), self.DEEP_ROWS, self.DEEP_PREFIX))
            rng.shuffle(block)
            blocks.append(block)
        return blocks

    def serve(self, request):
        text, rows, n = request
        E = dsl.eval_enum(dsl.parse(text))
        prefixes = tuple(bitseq.prefix(E.row(r), n) for r in range(rows))
        x = diagonal.antidiagonal(E)
        complement = bitseq.prefix(x, n)
        certs = diagonal.certificates(E, rows)
        rechecked = tuple(diagonal.check_certificate(E, x, c) for c in certs)
        bounds = bitseq.dyadic_bounds(x, n)
        agree = bitseq.eq_prefix(x, diagonal.antidiagonal(E), n)
        certs = tuple((c.row, c.position, c.left_bit, c.right_bit) for c in certs)
        return prefixes, complement, certs, rechecked, bounds, agree

    def known_defect(self, request) -> str | None:
        nesting = depth = 0
        for ch in request[0]:
            depth += (ch == "(") - (ch == ")")
            nesting = max(nesting, depth)
        return "RecursionError" if nesting >= _RECURSION_DEFECT_NESTING else None

    def work(self, request) -> int:
        """Bits requested: row and complement prefixes, two lookups per
        certificate and per recheck, the dyadic bounds, and both sides of
        the prefix comparison."""
        _, rows, n = request
        return rows * n + n + 4 * rows + n + 2 * n

    def problems(self, request, out) -> list[str]:
        text, rows, n = request
        program = reference.parse(text)
        prefixes, complement, certs, rechecked, bounds, agree = out
        rng = random.Random(text)
        problems = []
        for r, got in enumerate(prefixes):
            for i in [1, n] + rng.sample(range(1, n + 1), self.SAMPLES):
                if got[i - 1] != str(reference.bit(program, i, row=r)):
                    problems.append(f"row {r} bit {i}")
        for i in [1, n] + rng.sample(range(1, n + 1), self.SAMPLES):
            if complement[i - 1] != str(reference.complement_bit(program, i)):
                problems.append(f"complement bit {i}")
        want = tuple(
            (r, r + 1, reference.complement_bit(program, r + 1), reference.bit(program, r + 1, row=r))
            for r in range(rows)
        )
        if certs != want or rechecked != (True,) * rows:
            problems.append("certificates")
        low = Fraction(int(complement, 2), 1 << n)
        if bounds != (low, low + Fraction(1, 1 << n)) or agree is not None:
            problems.append("dyadic bounds or prefix comparison")
        if any(len(p) != n or set(p) - {"0", "1"} for p in prefixes + (complement,)):
            problems.append("prefix shape")
        return [f"{text[:60]}: {p}" for p in problems]


# ---------------------------------------------------------------- pointwise


# the smallest integer with more than 4300 decimal digits
_DECIMAL_DIGIT_LIMIT = 10 ** 4300


class Pointwise(Workload):
    """Single-value queries on integers of log-uniform bit length up to 2^16."""

    KINDS = ("roundtrip", "rowlabel", "entry", "node", "natbit")
    PER_KIND = 250
    min_requests = PER_KIND * len(KINDS)
    metric_names = ("query_p50_us", ("query_p99_us", 0.99), "queries_per_s")

    def blocks(self, rng: random.Random) -> list[list]:
        """One block.  Bit lengths are stratified: each kind gets one draw
        from each of PER_KIND equal slices of the log scale, so every seed
        has the same spread of sizes and the p99 does not hang on a few
        draws."""
        n = self.PER_KIND
        requests = []
        for kind in self.KINDS:
            for i in range(n):
                bits = max(1, int(2 ** (16 * (i + rng.random()) / n)))
                value = rng.getrandbits(bits) | (1 << (bits - 1))
                if kind == "node":
                    offset = rng.getrandbits(bits)
                    requests.append((kind, bits, offset, (1 << bits) - offset))
                elif kind in ("entry", "natbit"):
                    requests.append((kind, value, rng.randrange(bits + 8)))
                else:
                    requests.append((kind, value))
        rng.shuffle(requests)
        return [requests]

    def known_defect(self, request) -> str | None:
        """`nat_row` builds its decimal description eagerly, which Python
        refuses above 4300 digits."""
        if request[0] == "natbit" and request[1] >= _DECIMAL_DIGIT_LIMIT:
            return "ValueError"
        return None

    def serve(self, request):
        kind = request[0]
        if kind == "roundtrip":
            p = pairing.zigzag_decode(request[1])
            return p.m, p.n, pairing.zigzag_encode(p)
        if kind == "rowlabel":
            return pairing.row_label(request[1])
        if kind == "entry":
            return listmatrix.entry(request[1], request[2])
        if kind == "natbit":
            return bitseq.nat_row(request[1]).bit_at(request[2] + 1)
        _, level, offset, off_tree_n = request
        p = pairing.node_to_pair(pairing.NodeAddr(level, offset))
        a = pairing.pair_to_node(p)
        off = pairing.pair_to_node(pairing.GridPair(offset, off_tree_n))
        return p.m, p.n, a.level, a.offset, off

    def problems(self, request, out) -> list[str]:
        kind = request[0]
        if kind == "roundtrip":
            i = request[1]
            m, n, back = out
            ok = back == i and reference.walk_position(m, n) == i and m >= 0 and n >= 0
        elif kind == "rowlabel":
            ok = out == reference.row_label(request[1])
        elif kind in ("entry", "natbit"):
            ok = out == reference.lsb_bit(request[1], request[2])
        else:
            _, level, offset, _ = request
            ok = out == (offset, (1 << level) - 1 - offset, level, offset, None)
        return [] if ok else [f"{kind} query on {request[1].bit_length()}-bit input"]


# ---------------------------------------------------------------- cli


def _diag_request(rng: random.Random, action: str):
    text = shallow_program(rng, rng.randint(1, 3))
    rows = rng.randint(1, 6)
    if action == "apply":
        n = rng.randint(8, 64)
        return ["diag", "apply", text, "--rows", str(rows), "--prefix", str(n)]
    return ["diag", "cert", text, "--rows", str(rows), "--format", "json"]


class Cli(Workload):
    """The README's subcommands, each as a fresh `python -m enumerlab.cli`."""

    # run_all(8) takes about 8 ms, so an audit call costs about as much as
    # any other call; at depth 12 (130 ms) the three audits of a block made
    # up the slowest 15% alone and the p90 jumped between runs
    AUDIT_DEPTH = 8
    N_BLOCKS = 6
    min_requests = 20 * N_BLOCKS
    metric_names = ("cli_p50_ms", ("cli_p90_ms", 0.90), "invocations_per_s")

    def blocks(self, rng: random.Random) -> list[list]:
        blocks = []
        for _ in range(self.N_BLOCKS):
            big = lambda: str(rng.getrandbits(rng.randint(1, 40)))
            block = [
                ["pair", "encode", big(), big()],
                ["pair", "decode", big()],
                ["pair", "level", str(rng.randint(1, 6))],
                ["pair", "rowlabel", big()],
                ["tree", "paths", str(rng.randint(1, 8))],
                ["tree", "count", str(rng.randint(1, 60))],
                ["matrix", "entry", big(), str(rng.randrange(48))],
                ["matrix", "row", big(), "--prefix", str(rng.randint(1, 64))],
                ["matrix", "submatrix", str(rng.randint(1, 8))],
                ["matrix", "labels", str(rng.randint(1, 30))],
                _diag_request(rng, "apply"),
                _diag_request(rng, "apply"),
                _diag_request(rng, "cert"),
                _diag_request(rng, "cert"),
            ]
            for _ in range(3):
                fmt = rng.choice(("json", "markdown"))
                block.append(["audit", "--depth", str(self.AUDIT_DEPTH), "--format", fmt])
            for _ in range(3):
                block.append(["fig", str(rng.randint(1, 6))])
            rng.shuffle(block)
            blocks.append(block)
        return blocks

    def __init__(self):
        self.children_rss_kb = 0

    def serve(self, argv):
        """Reaped with wait4, so peak RSS counts the cli children only and
        not the benchmark's set-up processes."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "enumerlab.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=os.environ,
        )
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.children_rss_kb = max(self.children_rss_kb, usage.ru_maxrss)
        return proc.returncode, stdout

    def peak_rss_kb(self) -> int:
        return self.children_rss_kb

    def serve_in_process(self, argv):
        """The same command through `cli.dispatch`, output captured."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.dispatch(list(argv))
        return code, stdout.getvalue().encode()

    def comparable(self, outcome):
        if not isinstance(outcome, tuple):
            return outcome
        code, stdout = outcome
        return code, re.sub(rb'"elapsed_ms": [0-9]+', b"", stdout)

    def problems(self, argv, out) -> list[str]:
        code, stdout = out
        text = stdout.decode()
        want_code = 1 if argv[0] == "audit" else 0
        if argv[0] == "audit":
            depth = int(argv[2])
            check = reference.audit_json_problems if argv[4] == "json" else reference.audit_markdown_problems
            problems = check(text, depth)
        elif argv[0] == "fig":
            digest = hashlib.sha256(stdout).hexdigest()
            problems = [] if digest == reference.FIGURE_SHA256[int(argv[1])] else ["svg digest"]
        else:
            problems = [] if text == reference.expected_stdout(argv) else ["stdout"]
        if code != want_code:
            problems.append(f"exit code {code}")
        return [f"{' '.join(argv)[:60]}: {p}" for p in problems]


WORKLOADS = {"audit": Audit, "programs": Programs, "pointwise": Pointwise, "cli": Cli}
