"""Every file the package writes goes through one writer, ``data._write_whole``.

A static check of ``src/``: outside that helper no code may call
``write_text`` or ``write_bytes``, or ``open`` (the builtin or any ``.open``
method) with a mode that writes (one holding ``w``, ``x``, ``a`` or ``+``) or
one that is not a string literal. The one exception is the ``"a"`` append in
``OracleCache.update``: the score cache grows by appends, and its reader
drops a torn last row.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, enclosing function's qualified name, mode) of each write allowed outside the helper
ALLOWED = {("oracle.py", "OracleCache.update", "a")}
HELPER = ("data.py", "_write_whole")


def _mode(call: ast.Call):
    """The mode of an ``open`` call: "r" when none is given, None when it is not a string literal."""
    # open(file, mode) and io.open(file, mode) take it second, Path.open(mode) first
    given = [kw.value for kw in call.keywords if kw.arg == "mode"] or (
        call.args[1:2] if isinstance(call.func, ast.Name) else call.args[:2])
    literal = [node.value for node in given if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return literal[-1] if literal else None if given else "r"


def writes_outside_the_helper(source: str, filename: str) -> list:
    """``file:line: what`` for each call in ``source`` that writes a file outside the helper."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and (filename, scope) != HELPER:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("write_text", "write_bytes"):
                found.append(f"{filename}:{node.lineno}: {name}")
            elif name == "open":
                mode = _mode(node)
                if (mode is None or set(mode) & set("wxa+")) and (filename, scope, mode) not in ALLOWED:
                    found.append(f"{filename}:{node.lineno}: open with mode {mode!r}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_the_package_writes_files_only_through_the_helper():
    paths = sorted((ROOT / "src").rglob("*.py"))
    assert len(paths) > 10
    found = [hit for path in paths for hit in writes_outside_the_helper(path.read_text(encoding="utf-8"), path.name)]
    assert not found, "write through data._write_whole:\n" + "\n".join(found)


def test_the_check_finds_every_kind_of_write():
    source = (
        "def save(path, mode):\n"
        "    Path(path).write_text('x')\n"
        "    path.write_bytes(b'x')\n"
        "    open(path, 'w')\n"
        "    open(path, mode='xb')\n"
        "    path.open('a')\n"
        "    open(path, 'r+')\n"
        "    open(path, mode)\n"
        "    open(path), open(path, 'rb'), path.open(encoding='utf-8')\n"
        "class OracleCache:\n"
        "    def update(self):\n"
        "        open(self.path, 'a')\n"
        "        open(self.path, 'w')\n"
        "def _write_whole(path, mode):\n"
        "    open(path, mode)\n"
    )
    assert writes_outside_the_helper(source, "oracle.py") == [
        "oracle.py:2: write_text", "oracle.py:3: write_bytes", "oracle.py:4: open with mode 'w'",
        "oracle.py:5: open with mode 'xb'", "oracle.py:6: open with mode 'a'",
        "oracle.py:7: open with mode 'r+'", "oracle.py:8: open with mode None",
        "oracle.py:13: open with mode 'w'", "oracle.py:15: open with mode None",
    ]
    in_data = writes_outside_the_helper(source, "data.py")  # where the append is not allowed, but the helper is
    assert in_data[-2:] == ["data.py:12: open with mode 'a'", "data.py:13: open with mode 'w'"]
