"""The loading contract: a fresh process loads only the modules its command runs.

``import predegree`` loads no submodule, ``import predegree.cli`` loads only
``cli`` and ``polynomial``, and each command loads ``chow``, ``linalg``,
``quadric``, ``segre``, ``tangent`` and ``json`` only if it runs them.  Each
check runs in a fresh interpreter, because this test process has loaded every
module already.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import predegree

SRC = Path(predegree.__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "bench" / "cli_golden.json").read_text())
DEFERRED = {"predegree.chow", "predegree.linalg", "predegree.quadric", "predegree.segre", "predegree.tangent", "json"}

CLI = {"predegree.cli", "predegree.polynomial"}
QUADRIC = CLI | {"predegree.linalg", "predegree.quadric"}
SEGRE = CLI | {"predegree.chow", "predegree.segre"}
MEMBER_1000 = "member --matrix 1" + ",0" * 15
# Each command's stdout: the golden bytes, or the value given here.
STDOUT = {**GOLDEN, "deg-so --m 5": "384\n", "deg-po --m 4": "40\n", MEMBER_1000: "true\n"}


def fresh_modules(code: str) -> tuple[str, set[str]]:
    """Run code in a fresh interpreter; return its stdout and the predegree submodules and json it loaded."""
    report = "\nimport sys\nprint('LOADED', *(m for m in sys.modules if m == 'json' or m.startswith('predegree.')))\n"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code + report], env=env, capture_output=True, text=True, check=True)
    out, _, loaded = proc.stdout.rpartition("LOADED")
    return out, set(loaded.split())


def test_import_predegree_loads_no_submodule():
    assert fresh_modules("import predegree")[1] == set()


def test_import_cli_defers_quadric_segre_tangent_and_json():
    loaded = fresh_modules("import predegree.cli")[1]
    assert loaded == CLI
    assert loaded.isdisjoint(DEFERRED)


@pytest.mark.parametrize(
    "command,modules",
    [
        ("deg-so --m 5", CLI),
        ("deg-po --m 4", CLI),
        ("deg-so --m 60 --json", CLI | {"json"}),
        ("segre-class --factors 3,7", SEGRE),
        ("coeff --i 8 --double", SEGRE),
        (MEMBER_1000, QUADRIC),
        ("predegree quadric --n 4", QUADRIC),
        ("predegree quadric --n 4 --json", QUADRIC | {"json"}),
        ("predegree quadric --n 3", QUADRIC | SEGRE),
        ("table --which 1", QUADRIC | SEGRE),
        ("table --which 2", QUADRIC | SEGRE),
        ("verify tangents --seed 0 --samples 20", QUADRIC | {"predegree.tangent", "json"}),
    ],
    ids=["deg-so", "deg-po", "deg-so-json", "segre-class", "coeff", "member", "quadric-n4", "quadric-n4-json",
         "quadric-n3", "table-1", "table-2", "verify"],
)
def test_each_command_loads_exactly_its_modules(command, modules):
    out, loaded = fresh_modules(f"from predegree import cli\ncli.main({command.split()!r})")
    assert out == STDOUT[command]
    assert loaded == modules


def defining_modules() -> dict[str, list[str]]:
    """Each top-level name defined in a submodule's source -> the submodules that define it."""
    defined: dict[str, list[str]] = {}
    for path in sorted(SRC.joinpath("predegree").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                defined.setdefault(name, []).append(path.stem)
    return defined


def test_public_names_are_their_defining_modules_objects():
    defined = defining_modules()
    assert len(predegree.__all__) == 35
    for name in predegree.__all__:
        modules = defined.get(name, [])
        assert len(modules) == 1, name
        assert getattr(predegree, name) is getattr(importlib.import_module(f"predegree.{modules[0]}"), name)
        assert name in dir(predegree)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from predegree import *", namespace)
    assert all(namespace[name] is getattr(predegree, name) for name in predegree.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        predegree.no_such_name
