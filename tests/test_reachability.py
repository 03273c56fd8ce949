"""Every module-level name in src/qlocc is reached: some other statement of the package
references it, or qlocc/__init__.py exports it.  A name that only tests call belongs in the
tests (conftest.py holds such references)."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qlocc"

# Reached from outside the package only: benchmarks/harness/layers.py traces io.sweep_csv
# by name.
ALLOWED = {"io.sweep_csv"}


def _defined(stmt):
    """The names a top-level statement defines: functions, classes and assignments."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced(stmt):
    """Every name a statement reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _is_click_command(stmt):
    """A function registered by a @<group>.command(...) decorator."""
    return isinstance(stmt, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
        for d in stmt.decorator_list
    )


def _unreached():
    """(module.name, is a click command) for each name no other statement references."""
    statements = [
        (path.stem, stmt)
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    reads = [_referenced(stmt) for _, stmt in statements]
    unreached = []
    for k, (module, stmt) in enumerate(statements):
        others = set().union(*(r for j, r in enumerate(reads) if j != k))
        unreached += [(f"{module}.{name}", _is_click_command(stmt))
                      for name in _defined(stmt) if name not in others]
    return unreached


def test_every_module_level_name_is_reached():
    unreached = _unreached()
    stray = [name for name, command in unreached if not command and name not in ALLOWED]
    assert stray == [], f"no src code references these names: {stray}"
    # the allowance stays exact: an allowed name that gains a caller leaves the list
    assert ALLOWED <= {name for name, _ in unreached}


def test_the_guard_sees_a_stray_name(tmp_path, monkeypatch):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "states.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef _orphan():\n    return _orphan\n")
    monkeypatch.setitem(globals(), "PACKAGE", tmp_path)
    assert ("states._orphan", False) in _unreached()
