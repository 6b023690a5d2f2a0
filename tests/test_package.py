"""The package surface and what a process imports: `import enumerlab`
loads none of its modules, each public name comes from its module on first
use, and a command loads only the modules it runs."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import enumerlab

SRC = str(Path(enumerlab.__file__).resolve().parents[1])

# module -> the public names the package re-exports from it
SURFACE = {
    "bitseq": "BitSeq Enumeration PositionError complement dyadic_bounds eq_prefix nat_row "
    "ones periodic prefix prepend zeros",
    "budget": "DEFAULT_BUDGET BudgetError enumeration_budget",
    "diagonal": "Certificate antidiagonal certificates check_certificate constant insert "
    "interleave split",
    "pairing": "GridPair NodeAddr level_pairs node_to_pair pair_to_node row_label "
    "zigzag_decode zigzag_encode",
    "tree": "children node_count path_to_addr paths_at_depth prefix_chain",
}
NAMES = {name: module for module, names in SURFACE.items() for name in names.split()}


def modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running `code`.  Without
    site (-S), nothing but the interpreter's own start-up is loaded first."""
    program = f"import sys\n{code}\nsys.stderr.write('\\n' + ' '.join(sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", program], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.rsplit("\n", 1)[-1].split())


def test_import_loads_no_module():
    loaded = modules_after("import enumerlab")
    assert "enumerlab" in loaded
    assert not {m for m in loaded if m.startswith("enumerlab.")}


def modules_after_command(argv: str, status: int = 0) -> set[str]:
    """The modules a fresh interpreter holds after `enumerlab argv`
    returned `status`."""
    return modules_after(
        "from enumerlab import cli\n"
        f"status = cli.dispatch({argv.split()!r})\n"
        "sys.stdout.flush()\n"
        f"assert status == {status}, status\n"
    )


@pytest.mark.parametrize(
    "argv", ["pair encode 3 0", "tree paths 4", "matrix row 5", "fig 1"]
)
def test_command_loads_only_what_it_runs(argv):
    loaded = modules_after_command(argv)
    assert "enumerlab.cli" in loaded
    assert not {"enumerlab.audit", "enumerlab.dsl", "dataclasses", "fractions"} & loaded


@pytest.mark.parametrize(
    "argv,status",
    [
        ("diag apply figure5 --rows 2 --prefix 8", 0),
        ("diag cert figure5 --rows 5", 0),
        ("diag cert figure5 --rows 5 --format json", 0),
        ("audit --depth 3", 1),
    ],
)
def test_records_load_no_dataclasses(argv, status):
    loaded = modules_after_command(argv, status)
    assert {"enumerlab.dsl", "enumerlab.diagonal"} & loaded
    assert not {"dataclasses", "inspect"} & loaded


def test_names_come_from_their_modules():
    assert sorted(enumerlab.__all__) == sorted(NAMES)
    for name, module in NAMES.items():
        home = importlib.import_module(f"enumerlab.{module}")
        assert getattr(enumerlab, name) is getattr(home, name), name
        # cached in the package after the first use
        assert vars(enumerlab)[name] is getattr(home, name)


def test_dir_lists_every_name():
    assert set(enumerlab.__all__) <= set(dir(enumerlab))
    assert "__version__" in dir(enumerlab)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from enumerlab import *", namespace)
    assert set(enumerlab.__all__) <= set(namespace)
    assert namespace["NodeAddr"] is enumerlab.NodeAddr


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        enumerlab.no_such_name
    assert not hasattr(enumerlab, "no_such_name")


def test_modules_import_from_the_package():
    from enumerlab import audit, cli, dsl

    assert (audit.__name__, cli.__name__, dsl.__name__) == (
        "enumerlab.audit", "enumerlab.cli", "enumerlab.dsl"
    )


def test_claim_choices_are_the_catalog():
    from enumerlab import audit, cli

    arguments = cli._COMMANDS["audit"][1][None][2]
    claim = next(kwargs for flags, kwargs in arguments if flags == ("--claim",))
    assert tuple(claim["choices"]) == audit.CLAIM_IDS


def test_no_source_check_relies_on_assert():
    # python -O strips assert statements, and with them any check they make
    files = sorted(Path(enumerlab.__file__).parent.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert at lines {lines}"


def test_every_source_file_parses_as_python_3_10():
    # the oldest grammar pyproject.toml allows; API use needs a 3.10 interpreter to check
    root = Path(SRC).parent
    files = [p for d in ("src", "tests", "demos", "perfbench") for p in (root / d).rglob("*.py")]
    assert files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
