"""Every source and test file parses as Python 3.10, the oldest version pyproject.toml allows.

CI lists a 3.10 entry, but a machine without a 3.10 interpreter never runs
it; this check catches newer syntax under any interpreter.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src", "tests") for path in (ROOT / folder).rglob("*.py"))


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
