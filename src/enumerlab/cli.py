"""Command-line frontend.

Subcommands: pair, tree, matrix, diag, audit, fig.  Exit status: 0 success,
1 when an audit run contains a refuted claim (still a successful run), 2 on
usage errors (a negative count or depth, a malformed ENUMERLAB_BUDGET
included), 3 on depth/budget errors, 4 on an internal fault (one
"internal error:" line on stderr, never a verdict).  Output is
byte-deterministic for fixed inputs; audit JSON includes an elapsed_ms
field that golden comparisons must exclude.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import audit, bitseq, diagonal, dsl, figures, listmatrix, pairing, tree
from .budget import BudgetError

__all__ = ["build_parser", "dispatch", "main"]

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enumerlab",
        description="Exact enumeration laboratory: grid bijections, tree "
        "paths, the truth-table matrix, diagonalization certificates, and "
        "an auditable claim catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pair = sub.add_parser("pair", help="grid pairs and the boustrophedon walk")
    pair_sub = pair.add_subparsers(dest="action", required=True)
    p = pair_sub.add_parser("encode", help="walk position of a grid pair")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p = pair_sub.add_parser("decode", help="grid pair at a walk position")
    p.add_argument("index", type=int)
    p = pair_sub.add_parser("level", help="grid pairs of one tree level")
    p.add_argument("k", type=int)
    p.add_argument("--budget", type=int, default=None)
    p = pair_sub.add_parser("rowlabel", help="walk position of the first element of a row")
    p.add_argument("i", type=int)

    tr = sub.add_parser("tree", help="finite truncations of the binary tree")
    tree_sub = tr.add_subparsers(dest="action", required=True)
    p = tree_sub.add_parser("paths", help="all root paths of one length")
    p.add_argument("i", type=int)
    p.add_argument("--budget", type=int, default=None)
    p = tree_sub.add_parser("count", help="non-root node count to a depth")
    p.add_argument("i", type=int)

    mx = sub.add_parser("matrix", help="the truth-table matrix")
    mx_sub = mx.add_subparsers(dest="action", required=True)
    p = mx_sub.add_parser("entry", help="one matrix bit")
    p.add_argument("r", type=int)
    p.add_argument("c", type=int)
    p = mx_sub.add_parser("row", help="prefix of one matrix row")
    p.add_argument("r", type=int)
    p.add_argument("--prefix", type=int, default=32)
    p = mx_sub.add_parser("submatrix", help="row prefixes of the 2^i by i submatrix")
    p.add_argument("i", type=int)
    p.add_argument("--budget", type=int, default=None)
    p = mx_sub.add_parser("labels", help="walk labels of the first N rows")
    p.add_argument("n", type=int)

    dg = sub.add_parser("diag", help="diagonal complement over a program enumeration")
    dg_sub = dg.add_subparsers(dest="action", required=True)
    for name, help_text in [
        ("apply", "print listed rows and the diagonal complement"),
        ("cert", "emit disagreement certificates"),
    ]:
        p = dg_sub.add_parser(name, help=help_text)
        p.add_argument("program", nargs="?", default=None)
        p.add_argument("--program-file", default=None)
        p.add_argument("--rows", type=int, default=8)
        if name == "apply":
            p.add_argument("--prefix", type=int, default=32)
        if name == "cert":
            p.add_argument("--format", choices=["json", "markdown"], default="json")

    au = sub.add_parser("audit", help="run the claim catalog")
    au.add_argument("--depth", type=int, default=10)
    au.add_argument("--claim", default=None, help="run a single claim (C1..C10)")
    au.add_argument("--format", choices=["json", "markdown"], default="json")
    au.add_argument("--out", default=None)

    fg = sub.add_parser("fig", help="render one of the six constructions as SVG")
    fg.add_argument("n", type=int, help="figure number, 1..6")
    fg.add_argument("--depth", type=int, default=None)
    fg.add_argument("--rows", type=int, default=None)
    fg.add_argument("--cols", type=int, default=None)
    fg.add_argument("--diagonals", type=int, default=None)
    fg.add_argument("--size", type=int, default=None)
    fg.add_argument("--out", default=None)

    return parser


def _load_program(args) -> str:
    if args.program is not None and args.program_file is not None:
        raise _UsageError("give a program either inline or via --program-file, not both")
    if args.program is not None:
        return args.program
    if args.program_file is not None:
        with open(args.program_file, encoding="utf-8") as fh:
            return fh.read().strip()
    raise _UsageError("a program is required (inline or --program-file)")


class _UsageError(Exception):
    pass


def _check_count(name: str, value: int) -> None:
    """A number of items to print must be a natural number."""
    if value < 0:
        raise _UsageError(f"{name} must be >= 0, got {value}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _run_pair(args) -> int:
    if args.action == "encode":
        print(pairing.zigzag_encode(pairing.GridPair(args.m, args.n)))
    elif args.action == "decode":
        p = pairing.zigzag_decode(args.index)
        print(f"{p.m} {p.n}")
    elif args.action == "level":
        for p in pairing.level_pairs(args.k, args.budget):
            print(f"{p.m} {p.n}")
    elif args.action == "rowlabel":
        print(pairing.row_label(args.i))
    return EXIT_OK


def _run_tree(args) -> int:
    if args.action == "paths":
        for path in tree.paths_at_depth(args.i, args.budget):
            print(path)
    elif args.action == "count":
        print(tree.node_count(args.i))
    return EXIT_OK


def _run_matrix(args) -> int:
    if args.action == "entry":
        print(listmatrix.entry(args.r, args.c))
    elif args.action == "row":
        print(bitseq.prefix(bitseq.nat_row(args.r), args.prefix))
    elif args.action == "submatrix":
        for row in sorted(listmatrix.submatrix_rows(args.i, args.budget)):
            print(row)
    elif args.action == "labels":
        _check_count("n", args.n)
        for i in range(args.n):
            print(pairing.row_label(i))
    return EXIT_OK


def _program_enumeration(text: str) -> diagonal.Enumeration:
    ast = dsl.parse(text)
    if ast.is_seq:
        raise _UsageError(
            "the diagonal operator needs an enumeration program, got a sequence"
        )
    return dsl.eval_enum(ast)


def _run_diag(args) -> int:
    _check_count("--rows", args.rows)
    text = _load_program(args)
    try:
        E = _program_enumeration(text)
    except dsl.ParseError as exc:
        raise _UsageError(f"program error at {exc.line}:{exc.column}: {exc.message}")
    if args.action == "apply":
        for r in range(args.rows):
            print(f"row {r}: {bitseq.prefix(E.row(r), args.prefix)}")
        x = diagonal.antidiagonal(E)
        print(f"diagonal complement: {bitseq.prefix(x, args.prefix)}")
        return EXIT_OK
    certs = diagonal.certificates(E, args.rows)
    x = diagonal.antidiagonal(E)
    for cert in certs:
        if not diagonal.check_certificate(E, x, cert):
            raise RuntimeError(f"certificate failed revalidation: {cert}")
    if args.format == "json":
        payload = [
            {
                "row": c.row,
                "position": c.position,
                "left_bit": c.left_bit,
                "right_bit": c.right_bit,
            }
            for c in certs
        ]
        print(json.dumps(payload, indent=2))
    else:
        for c in certs:
            print(
                f"row {c.row}: position {c.position}, "
                f"complement bit {c.left_bit}, row bit {c.right_bit}"
            )
    return EXIT_OK


def _run_audit(args) -> int:
    if args.claim is not None:
        reports = [audit.run_claim(args.claim, args.depth)]
    else:
        reports = audit.run_all(args.depth)
    if args.format == "json":
        text = audit.reports_to_json(reports) + "\n"
    else:
        text = audit.reports_to_markdown(reports)
    _emit(text, args.out)
    refuted = any(r.status == audit.REFUTED for r in reports)
    return EXIT_REFUTED if refuted else EXIT_OK


def _run_fig(args) -> int:
    svg = figures.render_figure(
        args.n,
        depth=args.depth,
        rows=args.rows,
        cols=args.cols,
        diagonals=args.diagonals,
        size=args.size,
    )
    _emit(svg, args.out)
    return EXIT_OK


_RUNNERS = {
    "pair": _run_pair,
    "tree": _run_tree,
    "matrix": _run_matrix,
    "diag": _run_diag,
    "audit": _run_audit,
    "fig": _run_fig,
}


def dispatch(argv: list[str]) -> int:
    """Parse argv and run the selected subcommand, mapping errors to the
    documented exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _RUNNERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
