"""The README's Python quick start runs and states true values.

Both ``python`` blocks run in one namespace, line by line.  A line that
is a bare expression with a trailing comment states its value: the
comment starts with a Python literal, and evaluating the expression
must give that literal.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_readme_python_blocks_state_true_values():
    blocks = python_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    stated = 0
    for block in blocks:
        for line in block.splitlines():
            code, _, comment = line.partition(" #")
            if not code.strip():
                continue
            statement = ast.parse(code.strip()).body[0]
            if comment and isinstance(statement, ast.Expr):
                literal = re.split(r"\s+—|\s{2,}", comment.strip())[0]
                expected = ast.literal_eval(literal)
                assert eval(code.strip(), namespace) == expected, line
                stated += 1
            else:
                exec(code.strip(), namespace)
    assert stated == 7
