"""The loading contract: a fresh process loads only the modules its command runs.

``import predegree`` loads no submodule, and the command line loads ``quadric``,
``segre``, ``tangent`` and ``json`` only for the commands that use them.  Each
check runs in a fresh interpreter, because this test process has loaded every
module already.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import predegree

SRC = Path(predegree.__file__).resolve().parent.parent
DEFERRED = {"predegree.quadric", "predegree.segre", "predegree.tangent", "json"}


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
    assert fresh_modules("import predegree.cli")[1].isdisjoint(DEFERRED)


def test_deg_so_loads_none_of_the_deferred_modules():
    out, loaded = fresh_modules("from predegree import cli\ncli.main(['deg-so', '--m', '5'])")
    assert out == "384\n"
    assert loaded.isdisjoint(DEFERRED)


def test_verify_loads_tangent():
    out, loaded = fresh_modules("from predegree import cli\ncli.main(['verify', 'tangents', '--samples', '1'])")
    assert '"all_passed": true' in out
    assert {"predegree.tangent", "json"} <= loaded


@pytest.mark.parametrize(
    "argv,output",
    [("['member', '--matrix', '1' + ',0' * 15]", "true\n"), ("['predegree', 'quadric', '--n', '4']", "1 + 2t")],
    ids=["member", "quadric-n4"],
)
def test_member_and_quadric_n4_load_neither_segre_nor_tangent(argv, output):
    out, loaded = fresh_modules(f"from predegree import cli\ncli.main({argv})")
    assert out.startswith(output)
    assert "predegree.quadric" in loaded
    assert loaded.isdisjoint({"predegree.segre", "predegree.tangent"})


def test_quadric_p3_loads_segre():
    out, loaded = fresh_modules("from predegree import cli\ncli.main(['predegree', 'quadric', '--n', '3'])")
    assert out.startswith("1 + 2t + 4t^2")
    assert "predegree.segre" in loaded


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
