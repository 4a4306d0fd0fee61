"""Every source and test file parses as Python 3.10, the oldest version pyproject.toml allows,
no package module imports a name it never uses, and only the modules that
read files raise MalformedFile.

CI lists a 3.10 entry, but a machine without a 3.10 interpreter never runs
it; this check catches newer syntax under any interpreter.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src", "tests") for path in (ROOT / folder).rglob("*.py"))
# every package module but __init__.py, whose imports are the public API
MODULES = sorted(path for path in (ROOT / "src" / "welldesc").glob("*.py")
                 if path.name != "__init__.py")
# imports no code in their module reads: perfbench/spans.py wraps them on the
# modules that import them, to time or count the kernel calls a pass makes
TRACER_ONLY = {"svdd.py": {"eval_kernel", "kernel_row"}, "baselines.py": {"gram"}}
# the modules that read files: config files, well CSVs and model files
FILE_READERS = {"cli.py", "dataio.py", "persist.py"}


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_file_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("code", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "def first[T](items: list[T]) -> T:\n    return items[0]\n",
], ids=["except-star", "type-parameters"])
def test_newer_syntax_is_rejected(code):
    with pytest.raises(SyntaxError):
        ast.parse(code, feature_version=(3, 10))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_package_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used == TRACER_ONLY.get(path.name, set())


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_file_readers_raise_malformed_file(path):
    """A value or shape fault elsewhere has its own error type; a file's
    reader names the file in its MalformedFile."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    raised = {node.id for stmt in ast.walk(tree) if isinstance(stmt, ast.Raise) and stmt.exc
              for node in ast.walk(stmt.exc) if isinstance(node, ast.Name)}
    assert "MalformedFile" not in raised or path.name in FILE_READERS
