"""Every oracle score that a run or command buys is bought in one place, ``harness._pay``.

A static check of ``harness.py`` and ``cli.py``: outside ``_pay`` neither file
may use ``attach_scores`` or ``score_batch``, whether by calling it, passing it
on or importing it under another name, and whether it is looked up as a bare
name or as an attribute (``oracle.score_batch``). Importing either under its
own name is not a use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = ("harness.py", "cli.py")
PAYERS = {"attach_scores", "score_batch"}
PAYER = "_pay"


def uses_outside_the_payer(source: str, filename: str) -> tuple:
    """(``file:line: name`` of each use of a payer name in ``source`` outside ``_pay``,
    (scope, line) of each use inside it)."""
    outside, inside = [], []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if isinstance(node, ast.alias) and node.name in PAYERS and node.asname not in (None, node.name):
            outside.append(f"{filename}:{node.lineno}: {node.name} imported as {node.asname}")
        elif isinstance(node, (ast.Name, ast.Attribute)) and name in PAYERS:
            if scope == PAYER:
                inside.append((scope, node.lineno))
            else:
                outside.append(f"{filename}:{node.lineno}: {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return outside, inside


def test_harness_and_cli_buy_scores_only_in_the_payer():
    outside, inside = [], []
    for name in FILES:
        path = ROOT / "src" / "scorefusion" / name
        found = uses_outside_the_payer(path.read_text(encoding="utf-8"), name)
        outside += found[0]
        inside += [(name, *use) for use in found[1]]
    assert not outside, f"buy oracle scores through harness.{PAYER}:\n" + "\n".join(outside)
    assert [(name, scope) for name, scope, _ in inside] == [("harness.py", PAYER)]


def test_the_check_finds_a_second_payer():
    source = (
        "from .oracle import attach_scores, score_batch\n"
        "from .oracle import score_batch as buy\n"
        "def _pay(cfg, ds, provider):\n"
        "    return attach_scores(ds, provider)\n"
        "def fit_inputs(cfg, ds, provider):\n"
        "    ds = attach_scores(ds, provider)\n"
        "    z = oracle.score_batch(provider, ds, column=True)\n"
        "    return list(map(score_batch, [provider], [ds]))\n"
        "class Runner:\n"
        "    def run(self):\n"
        "        def _pay():\n"
        "            return score_batch(self.provider, self.ds)\n"
    )
    outside, inside = uses_outside_the_payer(source, "cli.py")
    assert outside == ["cli.py:2: score_batch imported as buy", "cli.py:6: attach_scores",
                       "cli.py:7: score_batch", "cli.py:8: score_batch", "cli.py:12: score_batch"]
    assert inside == [(PAYER, 4)]
