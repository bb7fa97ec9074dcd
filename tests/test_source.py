"""Rules on the package source itself."""

import ast
import sys
from pathlib import Path

import predegree


def test_no_assert_statements_in_package():
    # Invariants must raise real exceptions: `python -O` strips assert.
    paths = sorted(Path(predegree.__file__).parent.glob("*.py"))
    assert paths
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def package_nodes():
    """(file name, node) for every AST node of every module of the package."""
    paths = sorted(Path(predegree.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_no_true_division_in_package():
    # `/` on two ints gives a float; exact code divides Fractions or uses //.
    offenders = [
        f"{name}:{node.lineno}"
        for name, node in package_nodes()
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert offenders == []


def test_package_imports_only_stdlib():
    # The runtime needs only the standard library, as the README promises.
    offenders = []
    for name, node in package_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        offenders += [
            f"{name}:{node.lineno} {m}" for m in modules if m.split(".")[0] not in sys.stdlib_module_names
        ]
    assert offenders == []


def test_float_is_named_only_in_linalg():
    # One number rule: linalg.exact alone decides what a float input means.
    offenders = [
        f"{name}:{node.lineno}"
        for name, node in package_nodes()
        if isinstance(node, ast.Name) and node.id == "float" and name != "linalg.py"
    ]
    assert offenders == []


def test_package_modules_use_every_import():
    # A name a module imports and never reads is dead code; __init__.py re-exports on purpose.
    offenders = []
    for path in sorted(Path(predegree.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


def test_package_modules_read_every_private_name():
    # A module-level _name is for its own module: if that module never reads it, nothing does.
    offenders = []
    for path in sorted(Path(predegree.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, node.lineno))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(n.id, node.lineno) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        offenders += [
            f"{path.name}:{line} {name}"
            for name, line in defined
            if name.startswith("_") and not name.startswith("__") and name not in loaded
        ]
    assert offenders == []


def test_cli_alone_serializes_json():
    # One serialization point: cli.main applies the JSON integer rule to the whole payload.
    importers, dumps_calls = set(), []
    for name, node in package_nodes():
        if isinstance(node, ast.Import) and "json" in [alias.name for alias in node.names]:
            importers.add(name)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            importers.add(name)
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "json.dumps":
            dumps_calls.append(f"{name}:{node.lineno}")
    assert importers == {"cli.py"}
    assert len(dumps_calls) == 1 and dumps_calls[0].startswith("cli.py:")


def test_package_lines_fit_in_120_characters():
    offenders = [
        f"{path.name}:{number} ({len(line)} characters)"
        for path in sorted(Path(predegree.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 120
    ]
    assert offenders == []
