import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from enumerlab import cli, diagonal
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


def test_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("ENUMERLAB_BUDGET", "4")
    assert run(capsys, "tree", "paths", "3")[0] == 3
    assert run(capsys, "tree", "paths", "2")[0] == 0


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands(out_dir):
    """argv of every `enumerlab ...` line in the README, with --out paths
    moved into out_dir."""
    commands = []
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("enumerlab "):
            argv = shlex.split(line, comments=True)[1:]
            if "--out" in argv:
                i = argv.index("--out") + 1
                argv[i] = str(out_dir / argv[i])
            commands.append(argv)
    return commands


def test_every_module_reachable(capsys, tmp_path):
    # the README says the entry point exposes every module: run its
    # commands and record which enumerlab modules execute code
    commands = readme_commands(tmp_path)
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


def test_audit_malformed_env_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("ENUMERLAB_BUDGET", "abc")
    code, out, err = run(capsys, "audit", "--depth", "3")
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


def test_internal_fault_exit_code(capsys, monkeypatch):
    def fault(depth):
        raise AssertionError("witness failed revalidation")

    monkeypatch.setattr(cli.audit, "run_all", fault)
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
