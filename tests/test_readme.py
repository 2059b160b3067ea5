"""The README's library sketch runs and gives the results its comments state."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library sketch\n+```python\n(.*?)^```", text, re.S | re.M).group(1)
    comments = {
        tok.start[0]: tok.string
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    stated, got = [], []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            # "# engine -> RESULT" or "# RESULT"
            stated.append(comments[node.lineno][1:].rsplit("->", 1)[-1].strip())
            got.append(str(eval(compile(ast.Expression(node.value), "README", "eval"),
                                namespace)))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert stated == ["#.##", "#.##", "SweepOutcome(cases=8191, failures=[])"]
    assert got == stated
