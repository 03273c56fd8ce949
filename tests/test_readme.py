"""The README's library quick tour runs and prints what its comments say."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1, "expected exactly one python block in README.md"
    return blocks[0]


def test_quick_tour_values_match_comments():
    source = _quick_tour()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(compile(code, README.name, "exec"), namespace)
            continue
        line = lines[stmt.end_lineno - 1]
        comment = line[line.index("#", stmt.end_col_offset) + 1:].strip()
        value = repr(eval(compile(code, README.name, "eval"), namespace))
        assert re.match(re.escape(value) + r"(?![\w'.])", comment), (code, value, comment)
        checked += 1
    assert checked >= 4
