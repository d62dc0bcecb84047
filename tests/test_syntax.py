"""Every Python file of the project parses as the oldest Python it supports.

This is a syntax check only: ``ast.parse(..., feature_version=(3, 10))``
rejects grammar newer than 3.10 (``except*``, type-parameter lists, nested
same-quote f-strings and the like). It does not catch a library call or a
runtime behaviour that 3.10 lacks.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)


def test_oldest_version_is_the_declared_minimum():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups() == tuple(map(str, OLDEST))


def test_every_source_test_and_demo_file_parses_as_the_oldest_version():
    paths = sorted(p for folder in ("src", "tests", "demos") for p in (ROOT / folder).rglob("*.py"))
    assert len(paths) > 20
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, "\n".join(failures)
