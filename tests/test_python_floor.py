"""Every Python file of the project parses as Python 3.10.

``pyproject.toml`` declares ``requires-python = ">=3.10"``; the tests run
on a newer interpreter, which accepts syntax 3.10 does not (``except*``,
``type`` statements, PEP 695 generics).  ``ast.parse`` with
``feature_version=(3, 10)`` rejects such syntax, so each file under
``src/``, ``tests/``, ``benchmarks/`` and ``demos/`` is parsed that way.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path.relative_to(ROOT)
    for folder in ("src", "tests", "benchmarks", "demos")
    for path in (ROOT / folder).rglob("*.py")
)


def test_the_floor_is_the_declared_one():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()


def test_every_folder_holds_python_files():
    assert {path.parts[0] for path in FILES} == {"src", "tests", "benchmarks", "demos"}


@pytest.mark.parametrize("path", FILES, ids=str)
def test_file_parses_as_python_3_10(path):
    source = (ROOT / path).read_text()
    ast.parse(source, filename=str(path), feature_version=(3, 10))


def test_the_floor_rejects_newer_syntax():
    """``except*`` came in 3.11: the check sees it."""
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
