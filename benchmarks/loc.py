"""``make loc``'s second to fourth lines: code-only lines under a source
tree, the ``MiningOptions`` inventory, and the length of ``mine()``.

A line counts when it carries at least one token that is not a comment,
and is not part of a docstring — so deleting comments or docstrings
never shows up as a reduction (the simplicity guide does not count it
as one).  The inventory lists every ``mine()`` option field, with the
number of values of each enumerated one (its CLI ``choices``), so a
change that grows or shrinks the option surface shows it.  The length
of ``mine()`` counts every line from its ``def`` to its last, docstring
included (ROADMAP item 2's budget for it).  Usage:
``python benchmarks/loc.py src/repro``.
"""

import ast
import io
import sys
import tokenize
from dataclasses import fields
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def option_inventory() -> str:
    from repro.flocks.options import MiningOptions

    names = []
    for option in fields(MiningOptions):
        cli = option.metadata["cli"]
        if "choices" in cli:
            names.append(f"{option.name}({len(cli['choices'])})")
        else:
            names.append(option.name)
    return f"{len(names):>7} MiningOptions fields: {' '.join(names)}"


def mine_length(root: Path) -> str:
    source = (root / "flocks" / "mining.py").read_text()
    (node,) = [
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == "mine"
    ]
    lines = node.end_lineno - node.lineno + 1
    return f"{lines:>7} lines in mine() (docstring included)"


if __name__ == "__main__":
    root = Path(sys.argv[1])
    total = sum(code_lines(p.read_text()) for p in root.rglob("*.py"))
    print(f"{total:>7} code-only (no blank, comment or docstring lines)")
    sys.path.insert(0, str(root.resolve().parent))
    print(option_inventory())
    print(mine_length(root))
