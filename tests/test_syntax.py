"""Every Python file of the project parses as the oldest Python it supports.

The version check is a syntax check only:
``ast.parse(..., feature_version=(3, 10))`` rejects grammar newer than 3.10
(``except*``, type-parameter lists, nested same-quote f-strings and the
like). It does not catch a library call or a runtime behaviour that 3.10
lacks. The package source also holds no more lines over 100 characters than
``LONG_LINES``, so that count can only fall.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)
LONG_LINES = 46  # lower it when a change shortens one of them


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


def test_the_package_source_holds_no_more_long_lines_than_the_ceiling():
    long = [f"{path.relative_to(ROOT)}:{number}" for path in sorted((ROOT / "src").rglob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if len(line) > 100]
    assert len(long) <= LONG_LINES, f"{len(long)} lines over 100 characters:\n" + "\n".join(long)
