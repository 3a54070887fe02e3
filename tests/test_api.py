"""The public API is what the package itself and README's "Library use"
need, and the documented library use runs.

A name in ``metaline.__all__`` that neither the package's own modules
reference nor README's library code calls is API kept for the tests
alone: it belongs in ``tests/oracles.py``, or nowhere.  The oracles stay
independent of the package, so they import nothing from it.
"""

import ast
import re
from pathlib import Path

import metaline

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "metaline"


def _library_use_blocks() -> list[str]:
    """The python code blocks of README's "Library use" section, in order."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def _called_names(tree: ast.AST) -> set[str]:
    """Names called in ``tree``, directly or through an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            while isinstance(func, ast.Attribute):
                func = func.value
            if isinstance(func, ast.Name):
                names.add(func.id)
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read or taken as attributes in a module, each top-level function
    or class not counting the references in its own body."""
    names = set()
    for stmt in tree.body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.discard(stmt.name)
        names |= found
    return names


def test_public_names_are_used_by_package_or_readme():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _referenced_names(ast.parse(path.read_text()))
    for block in _library_use_blocks():
        used |= _called_names(ast.parse(block))
    unused = sorted(set(metaline.__all__) - used)
    assert not unused, f"public names only the tests use: {unused}"


def test_commands_compute_and_main_writes():
    """No ``cmd_*`` takes ``out``, writes a CSV or names an output file: it
    returns its tables, and ``main`` is the one caller of ``_write_csv``."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())

    def calls(node):
        return {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                for n in ast.walk(node) if isinstance(n, ast.Call)}

    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    commands = [f for f in functions if f.name.startswith("cmd_")]
    assert len(commands) == 5
    for f in commands:
        assert "out" not in [a.arg for a in f.args.args + f.args.kwonlyargs], f.name
        assert not calls(f) & {"_write_csv", "output_name"}, f.name
    assert [f.name for f in functions if "_write_csv" in calls(f)] == ["main"]


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [m for m in imported if m.split(".")[0] == "metaline"]


def test_readme_library_use_runs(capsys):
    blocks = _library_use_blocks()
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    ratio = float(capsys.readouterr().out)
    assert 0.0 < ratio <= 1.0
    assert len(namespace["edges"]) == len(namespace["counts"]) == 50


# the path reruns import the modules whose tests they rerun; every other
# shared helper lives in conftest.py or oracles.py
RERUNS = {"test_band_solver": {"test_acceptance", "test_cli"}}


def test_test_modules_import_only_what_they_rerun():
    tests = ROOT / "tests"
    names = {path.stem for path in tests.glob("test_*.py")}
    for path in sorted(tests.glob("test_*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {(node.module or "").split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert imported & names == RERUNS.get(path.stem, set()), \
            (path.name, sorted(imported & names))
