"""The package imports nothing beyond the standard library and numpy.

Every file under ``src/`` is parsed with ``ast``. The root of each absolute
import in it, at module level or inside a function, must be a standard
library module, ``scorefusion`` itself, or a dependency that
``pyproject.toml`` declares.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEPENDENCIES = {"numpy"}


def _import_roots(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_the_allowed_dependencies_are_the_declared_ones():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)^\]", text, re.M | re.S).group(1)
    assert set(re.findall(r'^\s*"([A-Za-z0-9_.-]+)', block, re.M)) == DEPENDENCIES


def test_sources_import_only_the_standard_library_and_numpy():
    paths = sorted((ROOT / "src").rglob("*.py"))
    assert len(paths) > 5
    roots = {(path.relative_to(ROOT).as_posix(), root) for path in paths for root in _import_roots(path)}
    assert DEPENDENCIES <= {root for _, root in roots}  # the walk sees nested imports too
    foreign = sorted(f"{name}: imports {root}" for name, root in roots
                     if root not in sys.stdlib_module_names and root not in DEPENDENCIES | {"scorefusion"})
    assert not foreign, "\n".join(foreign)
