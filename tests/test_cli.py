import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsl_corpus import corpus_asts
from enumerlab import audit, cli, diagonal, dsl
from enumerlab.bitseq import zeros
from enumerlab.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pair_encode(capsys):
    code, out, _ = run(capsys, "pair", "encode", "3", "0")
    assert code == 0
    assert out == "6\n"


def test_pair_decode(capsys):
    code, out, _ = run(capsys, "pair", "decode", "5")
    assert code == 0
    assert out == "2 0\n"


def test_pair_level(capsys):
    code, out, _ = run(capsys, "pair", "level", "2")
    assert code == 0
    assert out.splitlines() == ["0 3", "1 2", "2 1", "3 0"]


def test_pair_rowlabel(capsys):
    code, out, _ = run(capsys, "pair", "rowlabel", "5")
    assert (code, out) == (0, "20\n")


def test_tree_paths(capsys):
    code, out, _ = run(capsys, "tree", "paths", "2")
    assert code == 0
    assert out.splitlines() == ["00", "01", "10", "11"]


def test_tree_count(capsys):
    code, out, _ = run(capsys, "tree", "count", "10")
    assert (code, out) == (0, "2046\n")


def test_matrix_entry(capsys):
    assert run(capsys, "matrix", "entry", "16", "4")[:2] == (0, "1\n")


def test_matrix_row(capsys):
    code, out, _ = run(capsys, "matrix", "row", "11", "--prefix", "5")
    assert (code, out) == (0, "11010\n")


def test_matrix_submatrix(capsys):
    code, out, _ = run(capsys, "matrix", "submatrix", "2")
    assert code == 0
    assert out.splitlines() == ["00", "01", "10", "11"]


def test_matrix_labels(capsys):
    code, out, _ = run(capsys, "matrix", "labels", "7")
    assert code == 0
    assert out.splitlines() == ["0", "2", "3", "9", "10", "20", "21"]


def test_diag_apply(capsys):
    code, out, _ = run(
        capsys, "diag", "apply", "const(zeros)", "--rows", "2", "--prefix", "4"
    )
    assert code == 0
    assert out.splitlines() == [
        "row 0: 0000",
        "row 1: 0000",
        "diagonal complement: 1111",
    ]


def test_diag_cert_json(capsys):
    code, out, _ = run(capsys, "diag", "cert", "figure5", "--rows", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload == [
        {"row": 0, "position": 1, "left_bit": 1, "right_bit": 0},
        {"row": 1, "position": 2, "left_bit": 1, "right_bit": 0},
        {"row": 2, "position": 3, "left_bit": 1, "right_bit": 0},
    ]


def test_diag_cert_markdown(capsys):
    code, out, _ = run(capsys, "diag", "cert", "figure5", "--rows", "3", "--format", "markdown")
    assert code == 0
    assert out.splitlines() == [
        "row 0: position 1, complement bit 1, row bit 0",
        "row 1: position 2, complement bit 1, row bit 0",
        "row 2: position 3, complement bit 1, row bit 0",
    ]


@pytest.mark.parametrize(
    "command,message",
    [
        ("diag apply figure5 --program-file prog.txt",
         "give a program either inline or via --program-file, not both"),
        ("diag cert", "a program is required (inline or --program-file)"),
    ],
)
def test_program_source_usage_errors(capsys, command, message):
    code, out, err = run(capsys, *command.split())
    assert (code, out, err) == (cli.EXIT_USAGE, "", f"error: {message}\n")


def test_diag_program_file(capsys, tmp_path):
    path = tmp_path / "prog.txt"
    path.write_text("interleave(const(ones),const(zeros))\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "diag", "apply", "--program-file", str(path),
        "--rows", "1", "--prefix", "4",
    )
    assert code == 0
    assert "diagonal complement: 0101" in out


def test_diag_rejects_sequence_program(capsys):
    code, _, err = run(capsys, "diag", "apply", "ones")
    assert code == 2
    assert "enumeration" in err


def test_diag_reports_parse_position(capsys):
    code, _, err = run(capsys, "diag", "cert", "interleave(ones,zeros)")
    assert code == 2
    assert "1:12" in err


def test_audit_json_refuted_exit_code(capsys):
    code, out, _ = run(capsys, "audit", "--depth", "12", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert len(payload) == 10
    by_id = {item["claim"]: item["status"] for item in payload}
    assert by_id["C9"] == "refuted"


def test_audit_single_claim(capsys):
    code, out, _ = run(capsys, "audit", "--depth", "8", "--claim", "C2")
    assert code == 0
    assert json.loads(out)[0]["status"] == "verified"


def test_audit_markdown(capsys):
    code, out, _ = run(capsys, "audit", "--depth", "6", "--format", "markdown")
    assert code == 1
    assert out.startswith("| claim |")


def test_fig_to_file_deterministic(capsys, tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    assert run(capsys, "fig", "5", "--out", str(a))[0] == 0
    assert run(capsys, "fig", "5", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_fig6_labels(capsys, tmp_path):
    out_file = tmp_path / "fig6.svg"
    code, _, _ = run(capsys, "fig", "6", "--rows", "7", "--out", str(out_file))
    assert code == 0
    svg = out_file.read_text(encoding="utf-8")
    for label in ("0", "2", "3", "9", "10", "20", "21"):
        assert f">{label}</text>" in svg


def test_usage_error_exit_code(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "pair", "encode", "1")[0] == 2


def test_budget_error_exit_code(capsys):
    code, _, err = run(capsys, "tree", "paths", "30")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize(
    "command", ["audit --depth 14300 --claim C1", "tree paths 14300", "pair level 14300"]
)
def test_request_past_the_decimal_limit_is_budget_error(capsys, command):
    # the count of 2^14300 items or more has more decimal digits than Python
    # converts, so it prints in hex
    code, out, err = run(capsys, *command.split())
    assert (code, out) == (cli.EXIT_BUDGET, "")
    assert re.fullmatch(r"budget error: enumeration of 0x[0-9a-f]+ items exceeds budget of \d+\n", err)


def test_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("ENUMERLAB_BUDGET", "4")
    assert run(capsys, "tree", "paths", "3")[0] == 3
    assert run(capsys, "tree", "paths", "2")[0] == 0


@pytest.mark.parametrize(
    "command", ["matrix labels 100", "diag apply figure5 --rows 100", "diag cert figure5 --rows 100"]
)
def test_count_over_env_budget_is_budget_error(capsys, monkeypatch, command):
    monkeypatch.setenv("ENUMERLAB_BUDGET", "10")
    code, out, err = run(capsys, *command.split())
    assert (code, out) == (cli.EXIT_BUDGET, "")
    assert err == "budget error: enumeration of 100 items exceeds budget of 10\n"
    assert run(capsys, *command.replace("100", "10").split())[0] == cli.EXIT_OK


README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"


def readme_commands():
    """argv of every `enumerlab ...` line in the README."""
    return [
        shlex.split(line, comments=True)[1:]
        for line in README.read_text(encoding="utf-8").splitlines()
        if line.startswith("enumerlab ")
    ]


def out_in(argv, out_dir):
    """argv with its --out path moved into out_dir."""
    return [
        str(out_dir / arg) if i and argv[i - 1] == "--out" else arg
        for i, arg in enumerate(argv)
    ]


def test_readme_commands_match_golden(capsys, tmp_path):
    # stdout and exit status of every README command are pinned; audit
    # JSON is compared with elapsed_ms zeroed
    golden = json.loads((GOLDEN / "readme_commands.json").read_text(encoding="utf-8"))
    commands = readme_commands()
    assert [shlex.join(argv) for argv in commands] == list(golden)
    for argv in commands:
        code, out, err = run(capsys, *out_in(argv, tmp_path))
        out = re.sub(r'"elapsed_ms": [0-9]+', '"elapsed_ms": 0', out)
        assert {"exit": code, "stdout": out} == golden[shlex.join(argv)], argv
        assert err == ""


def test_readme_covers_command_table():
    documented = set()
    for argv in readme_commands():
        actions = cli._COMMANDS[argv[0]][1]
        documented.add((argv[0], None if None in actions else argv[1]))
    table = {(c, a) for c, (_, actions) in cli._COMMANDS.items() for a in actions}
    assert table == documented


def test_help_and_usage_text_match_golden(capsys, monkeypatch):
    # the top-level help, every command's and action's help, and a few
    # usage errors; argparse wraps to the width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads((GOLDEN / "help_text.json").read_text(encoding="utf-8"))
    helps = [["--help"]]
    for command, (_, actions) in cli._COMMANDS.items():
        helps.append([command, "--help"])
        helps += [[command, action, "--help"] for action in actions if action is not None]
    assert [shlex.join(argv) for argv in helps] == list(golden)[: len(helps)]
    for key, want in golden.items():
        code, out, err = run(capsys, *shlex.split(key))
        assert {"exit": code, "stdout": out, "stderr": err} == want, key


def test_every_module_reachable(capsys, tmp_path):
    # the README says the entry point exposes every module: run its
    # commands and record which enumerlab modules execute code
    commands = [out_in(argv, tmp_path) for argv in readme_commands()]
    assert len(commands) >= 14
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_globals.get("__name__"))

    sys.setprofile(profile)
    try:
        codes = [dispatch(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert set(codes) <= {0, 1}
    modules = ["pairing", "tree", "bitseq", "listmatrix", "diagonal", "dsl", "audit", "figures"]
    assert {f"enumerlab.{m}" for m in modules} <= entered


@pytest.mark.parametrize(
    "command,name",
    [
        ("diag apply figure5 --rows -2", "--rows"),
        ("diag cert figure5 --rows -2", "--rows"),
        ("matrix labels -3", "n"),
        ("fig 1 --size -1", "size"),
        ("fig 2 --depth -1", "depth"),
        ("fig 3 --depth -1", "depth"),
        ("fig 3 --size -1", "size"),
        ("fig 4 --diagonals -1", "diagonals"),
        ("fig 4 --size -1", "size"),
        ("fig 5 --rows -1", "rows"),
        ("fig 5 --cols -1", "cols"),
        ("fig 6 --rows -1", "rows"),
        ("fig 6 --cols -1", "cols"),
    ],
)
def test_negative_count_rejected(capsys, command, name):
    code, out, err = run(capsys, *command.split())
    assert (code, out) == (2, "")
    assert f"{name} must be >= 0, got -" in err


def test_audit_negative_depth_exit_code(capsys):
    code, out, err = run(capsys, "audit", "--depth", "-1")
    assert (code, out) == (2, "")
    assert "depth must be >= 0" in err


@pytest.mark.parametrize(
    "command",
    ["audit --depth 3", *(f"audit --claim C{k} --depth 0" for k in range(1, 11))],
    ids=["all", *(f"C{k}" for k in range(1, 11))],
)
def test_audit_malformed_env_budget_exit_code(capsys, monkeypatch, command):
    monkeypatch.setenv("ENUMERLAB_BUDGET", "abc")
    code, out, err = run(capsys, *command.split())
    assert (code, out) == (2, "")
    assert err == "error: ENUMERLAB_BUDGET must be a positive integer, got 'abc'\n"


def test_long_natrow_literal_exit_code(capsys):
    program = f"const(natrow({'7' * 5000}))"
    code, out, err = run(capsys, "diag", "apply", program, "--rows", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: program error at 1:14: ")
    assert "5000 digits" in err and "4300" in err


def test_diag_cert_revalidation_fault(capsys, monkeypatch):
    monkeypatch.setattr(diagonal, "check_certificate", lambda E, x, cert: False)
    code, out, err = run(capsys, "diag", "cert", "figure5", "--rows", "3")
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert err.startswith(
        "internal error: RuntimeError: certificate failed revalidation: "
    )
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command", ["audit --claim C6 --depth 4", "diag cert figure5 --rows 3"]
)
def test_complement_agreeing_with_a_row_is_internal_error(capsys, monkeypatch, command):
    monkeypatch.setattr(diagonal, "antidiagonal", lambda E: zeros())
    code, out, err = run(capsys, *command.split())
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert err == (
        "internal error: RuntimeError: diagonal complement agrees with row 0 at position 1\n"
    )


def test_internal_fault_exit_code(capsys, monkeypatch):
    def fault(depth):
        raise AssertionError("witness failed revalidation")

    monkeypatch.setattr(audit, "run_all", fault)
    code, out, err = run(capsys, "audit", "--depth", "3")
    assert (code, out) == (4, "")
    assert err == "internal error: AssertionError: witness failed revalidation\n"


def test_diag_cert_revalidation_fault_under_optimize():
    # python -O strips assert statements; the revalidation must survive it
    program = (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit('python -O did not take effect')\n"
        "from enumerlab import cli, diagonal\n"
        "diagonal.check_certificate = lambda E, x, cert: False\n"
        "sys.exit(cli.dispatch(['diag', 'cert', 'figure5', '--rows', '3']))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", program], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        "internal error: RuntimeError: certificate failed revalidation: "
    )
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["diag", "apply", "--program-file", "{tmp}/missing.txt"],
        ["audit", "--depth", "2", "--out", "{tmp}/missing/x.json"],
        ["fig", "5", "--out", "{tmp}/missing/x.svg"],
    ],
    ids=["program-file", "audit-out", "fig-out"],
)
def test_io_error_is_usage_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2] No such file or directory: ")
    assert err.count("\n") == 1


def _cli_process(argv, stdout):
    """`python -m enumerlab.cli argv` with block-buffered stdout, as from a shell."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen(
        [sys.executable, "-m", "enumerlab.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env,
    )


def test_stdout_closed_midway_is_usage_error():
    # the reader goes away after one line, like `enumerlab tree paths 18 | head -1`
    proc = _cli_process(["tree", "paths", "18"], subprocess.PIPE)
    assert proc.stdout.readline() == b"000000000000000000\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == "error: [Errno 32] Broken pipe\n"


def test_stdout_closed_before_start_is_usage_error():
    # the output fits the buffer, so the pipe error shows only on a flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = _cli_process(["pair", "encode", "3", "0"], write_end)
    os.close(write_end)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("command", ["pair level 3", "tree paths 3", "matrix submatrix 3"])
def test_budget_flag_is_gone(capsys, command):
    code, out, err = run(capsys, *command.split(), "--budget", "0")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --budget 0" in err


def test_unknown_claim_rejected_by_parser(capsys):
    code, out, err = run(capsys, "audit", "--claim", "C11")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "enumerlab audit: error: argument --claim: invalid choice: 'C11' (choose from "
        + ", ".join(repr(c) for c in audit.CLAIM_IDS) + ")"
    )


def test_internal_key_error_exit_code(capsys, monkeypatch):
    def fault(claim_id, depth):
        raise KeyError("lookup inside a claim")

    monkeypatch.setattr(audit, "run_claim", fault)
    code, out, err = run(capsys, "audit", "--claim", "C2")
    assert (code, out) == (4, "")
    assert err == "internal error: KeyError: 'lookup inside a claim'\n"


@pytest.mark.parametrize("program,column", [("natrow(²)", 8), ("const(natrow(١٢٣))", 14)])
def test_non_ascii_program_rejected(capsys, program, column):
    code, out, err = run(capsys, "diag", "apply", program)
    assert (code, out) == (2, "")
    assert err == f"error: program error at 1:{column}: unexpected character {program[column - 1]!r}\n"


# every (command, action) row of the table with the arguments it takes;
# file arguments are left out, so no example reads or writes a file
_ROWS = [
    (command, action, [a for a in arguments if a[0][0] not in ("--out", "--program-file")])
    for command, (_, actions) in cli._COMMANDS.items()
    for action, (_, _, arguments, _) in actions.items()
]
_PROGRAM_TEXTS = sorted({dsl.unparse(ast) for ast in corpus_asts(size=60)})


@st.composite
def table_argv(draw):
    """An argv argparse accepts, built from one row of the command table."""
    command, action, arguments = draw(st.sampled_from(_ROWS))
    argv = [command] if action is None else [command, action]
    for (name, *_), kwargs in arguments:
        if kwargs.get("type") is int:
            value = str(draw(st.integers(min_value=-3, max_value=64)))
        elif "choices" in kwargs:
            value = draw(st.sampled_from(kwargs["choices"]))
        else:
            value = draw(
                st.sampled_from(_PROGRAM_TEXTS)
                | st.text(max_size=12).filter(lambda t: not t.startswith("-"))
            )
        if not name.startswith("-"):
            argv.append(value)
        elif draw(st.booleans()):
            argv += [name, value]
    return argv


@settings(max_examples=300, deadline=None)
@given(table_argv())
def test_any_table_argv_exits_cleanly(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("ENUMERLAB_BUDGET", "4096")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = dispatch(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2, 3), (argv, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)
