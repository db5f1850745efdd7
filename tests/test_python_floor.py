"""The sources parse under the oldest Python that pyproject.toml admits."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def python_floor() -> tuple[int, int]:
    """The (major, minor) of pyproject.toml's requires-python lower bound."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text).groups()
    return int(major), int(minor)


def test_the_floor_is_declared():
    assert python_floor() == (3, 10)
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_with_the_floor_grammar(path):
    """Syntax newer than the floor, such as ``except*`` (3.11), fails to
    parse here. Only the grammar is checked: a standard-library function or
    argument added after the floor still goes unnoticed."""
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=python_floor())
