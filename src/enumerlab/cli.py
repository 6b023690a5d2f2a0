"""Command-line frontend.

Subcommands: pair, tree, matrix, diag, audit, fig, all declared in one
table, `_COMMANDS`, that drives both the parser and the dispatch.  Exit
status: 0 success, 1 when an audit run contains a refuted claim (still a
successful run), 2 on usage errors (a negative count or depth, a malformed
ENUMERLAB_BUDGET, a file that cannot be read or written, a closed stdout
included), 3 on depth/budget errors, 4 on an internal fault (one
"internal error:" line on stderr, never a verdict).  Output is
byte-deterministic for fixed inputs; audit JSON includes an elapsed_ms
field that golden comparisons must exclude.

A process imports only what its command runs: each action of the table
names its module, which dispatch imports once the action is chosen, and
the parser is built in full only for the chosen command.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

__all__ = ["build_parser", "dispatch", "main"]

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# exception class -> exit status and the one line printed to stderr; the
# first matching row wins.  An enumerlab class is named "module.Class" and
# looked up only if its module is loaded: no instance exists before that.
_ERRORS = (
    ("budget.BudgetError", EXIT_BUDGET, "budget error: {}"),
    ("dsl.ParseError", EXIT_USAGE, "error: program error at {}"),
    ((ValueError, OSError), EXIT_USAGE, "error: {}"),
    (Exception, EXIT_INTERNAL, "internal error: {0.__class__.__name__}: {0}"),
)


def _error_class(cls):
    """The class of an _ERRORS row; one named "module.Class" is () while its
    module is not loaded."""
    if not isinstance(cls, str):
        return cls
    module, name = cls.split(".")
    return getattr(sys.modules.get(f"{__package__}.{module}"), name, ())


def _arg(*flags, **kwargs):
    """One argparse argument, as given to add_argument."""
    return flags, kwargs


def _count(name: str, value: int) -> int:
    """A number of items to print must be a natural number within the item
    budget."""
    from .budget import check_budget

    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    check_budget(value)
    return value


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _grid_pair(p) -> str:
    return f"{p.m} {p.n}"


def _enumeration(args):
    """The enumeration denoted by the program given inline or in a file."""
    from . import dsl

    _count("--rows", args.rows)
    if args.program is not None and args.program_file is not None:
        raise ValueError("give a program either inline or via --program-file, not both")
    text = args.program
    if args.program_file is not None:
        with open(args.program_file, encoding="utf-8") as fh:
            text = fh.read().strip()
    if text is None:
        raise ValueError("a program is required (inline or --program-file)")
    ast = dsl.parse(text)
    if ast.is_seq:
        raise ValueError("the diagonal operator needs an enumeration program, got a sequence")
    return dsl.eval_enum(ast)


def _diag_apply(diagonal, args):
    from .bitseq import prefix

    E = _enumeration(args)
    for r in range(args.rows):
        yield f"row {r}: {prefix(E.row(r), args.prefix)}"
    yield f"diagonal complement: {prefix(diagonal.antidiagonal(E), args.prefix)}"


def _diag_cert(diagonal, args) -> list[str]:
    E = _enumeration(args)
    certs = diagonal.certificates(E, args.rows)
    x = diagonal.antidiagonal(E)
    for cert in certs:
        if not diagonal.check_certificate(E, x, cert):
            raise RuntimeError(f"certificate failed revalidation: {cert}")
    if args.format == "json":
        import json

        fields = ("row", "position", "left_bit", "right_bit")
        return [json.dumps([{f: getattr(c, f) for f in fields} for c in certs], indent=2)]
    return [
        f"row {c.row}: position {c.position}, "
        f"complement bit {c.left_bit}, row bit {c.right_bit}"
        for c in certs
    ]


def _audit(audit, args) -> int:
    if args.claim is None:
        reports = audit.run_all(args.depth)
    else:
        reports = [audit.run_claim(args.claim, args.depth)]
    if args.format == "json":
        _emit(audit.reports_to_json(reports) + "\n", args.out)
    else:
        _emit(audit.reports_to_markdown(reports), args.out)
    refuted = any(r.status == audit.REFUTED for r in reports)
    return EXIT_REFUTED if refuted else EXIT_OK


_FIG_SIZES = ("depth", "rows", "cols", "diagonals", "size")


def _fig(figures, args) -> int:
    _emit(figures.render_figure(args.n, **{k: getattr(args, k) for k in _FIG_SIZES}), args.out)
    return EXIT_OK


_FORMAT = _arg("--format", choices=["json", "markdown"], default="json")
_PROGRAM = [_arg("program", nargs="?"), _arg("--program-file"), _arg("--rows", type=int, default=8)]

# audit.CLAIM_IDS, spelled out so that building the parser does not import
# audit; a test keeps the two equal
_CLAIM_IDS = tuple(f"C{i}" for i in range(1, 11))

# command -> (help, action -> (help, module, arguments, run)).  A command
# without actions has the single action None and takes its arguments
# itself.  `module` names the enumerlab module the action runs; `run` gets
# that module and the parsed arguments and returns the lines to print, or,
# for audit and fig, which write through _emit, the exit status.
_COMMANDS = {
    "pair": ("grid pairs and the boustrophedon walk", {
        "encode": ("walk position of a grid pair", "pairing",
                   [_arg("m", type=int), _arg("n", type=int)],
                   lambda pairing, a: [pairing.zigzag_encode(pairing.GridPair(a.m, a.n))]),
        "decode": ("grid pair at a walk position", "pairing", [_arg("index", type=int)],
                   lambda pairing, a: [_grid_pair(pairing.zigzag_decode(a.index))]),
        "level": ("grid pairs of one tree level", "pairing", [_arg("k", type=int)],
                  lambda pairing, a: map(_grid_pair, pairing.level_pairs(a.k))),
        "rowlabel": ("walk position of the first element of a row", "pairing",
                     [_arg("i", type=int)], lambda pairing, a: [pairing.row_label(a.i)]),
    }),
    "tree": ("finite truncations of the binary tree", {
        "paths": ("all root paths of one length", "tree", [_arg("i", type=int)],
                  lambda tree, a: tree.paths_at_depth(a.i)),
        "count": ("non-root node count to a depth", "tree", [_arg("i", type=int)],
                  lambda tree, a: [tree.node_count(a.i)]),
    }),
    "matrix": ("the truth-table matrix", {
        "entry": ("one matrix bit", "listmatrix", [_arg("r", type=int), _arg("c", type=int)],
                  lambda listmatrix, a: [listmatrix.entry(a.r, a.c)]),
        "row": ("prefix of one matrix row", "bitseq",
                [_arg("r", type=int), _arg("--prefix", type=int, default=32)],
                lambda bitseq, a: [bitseq.prefix(bitseq.nat_row(a.r), a.prefix)]),
        "submatrix": ("row prefixes of the 2^i by i submatrix", "listmatrix",
                      [_arg("i", type=int)],
                      lambda listmatrix, a: sorted(listmatrix.submatrix_rows(a.i))),
        "labels": ("walk labels of the first N rows", "pairing", [_arg("n", type=int)],
                   lambda pairing, a: map(pairing.row_label, range(_count("n", a.n)))),
    }),
    "diag": ("diagonal complement over a program enumeration", {
        "apply": ("print listed rows and the diagonal complement", "diagonal",
                  _PROGRAM + [_arg("--prefix", type=int, default=32)], _diag_apply),
        "cert": ("emit disagreement certificates", "diagonal", _PROGRAM + [_FORMAT],
                 _diag_cert),
    }),
    "audit": ("run the claim catalog", {None: (None, "audit", [
        _arg("--depth", type=int, default=10),
        _arg("--claim", choices=_CLAIM_IDS, metavar="CLAIM",
             help="run a single claim (C1..C10)"),
        _FORMAT,
        _arg("--out"),
    ], _audit)}),
    "fig": ("render one of the six constructions as SVG", {None: (None, "figures", [
        _arg("n", type=int, help="figure number, 1..6"),
        *(_arg(f"--{name}", type=int) for name in _FIG_SIZES),
        _arg("--out"),
    ], _fig)}),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command; given a command `only`, the other
    commands get no actions or arguments, which leaves the help and usage
    of the chosen command and of the parser itself as they are."""
    parser = argparse.ArgumentParser(
        prog="enumerlab",
        description="Exact enumeration laboratory: grid bijections, tree "
        "paths, the truth-table matrix, diagonalization certificates, and "
        "an auditable claim catalog.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, actions) in _COMMANDS.items():
        p = commands.add_parser(command, help=help_text)
        if only not in (None, command):
            continue
        if None not in actions:
            sub = p.add_subparsers(dest="action", required=True)
        for action, (action_help, _, arguments, _) in actions.items():
            target = p if action is None else sub.add_parser(action, help=action_help)
            for flags, kwargs in arguments:
                target.add_argument(*flags, **kwargs)
    return parser


def dispatch(argv: list[str]) -> int:
    """Parse argv and run the selected subcommand, mapping errors to the
    documented exit codes."""
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    _, module, _, run = _COMMANDS[args.command][1][getattr(args, "action", None)]
    try:
        status = run(importlib.import_module(f"{__package__}.{module}"), args)
        if not isinstance(status, int):
            for line in status:
                print(line)
            status = EXIT_OK
        # a closed stdout shows here, not in the flush at interpreter exit
        sys.stdout.flush()
        return status
    except Exception as exc:
        status, message = next(
            (s, m) for cls, s, m in _ERRORS if isinstance(exc, _error_class(cls))
        )
        if isinstance(exc, BrokenPipeError):
            # the reader closed stdout: send what is still buffered to
            # devnull, so the flush at exit prints no second message
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(message.format(exc), file=sys.stderr)
        return status


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
