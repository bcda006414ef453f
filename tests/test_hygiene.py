"""Source hygiene: no top-level helper in the package goes unused, every
function the benchmark's tracer wraps still exists, and the CLI's import
leaves the Shannon-only dependency unloaded."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyperflow"


def _without_reexports(text: str) -> str:
    """A package `__init__.py` with its imports and `__all__` blanked out, line
    numbers kept: re-exporting a name is not a use of it."""
    lines = text.splitlines(keepends=True)
    for node in ast.parse(text).body:
        names_all = isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        )
        if isinstance(node, (ast.Import, ast.ImportFrom)) or names_all:
            for i in range(node.lineno - 1, node.end_lineno):
                lines[i] = "\n"
    return "".join(lines)


def _searched_texts() -> dict:
    paths = [
        *sorted((ROOT / "src").rglob("*.py")),
        *sorted((ROOT / "tests").rglob("*.py")),
        *sorted((ROOT / "perfbench").rglob("*.py")),
        ROOT / "pyproject.toml",
    ]
    texts = {p: p.read_text() for p in paths}
    return {p: _without_reexports(t) if p.name == "__init__.py" else t for p, t in texts.items()}


def _top_level_definitions():
    """(dotted name, name, path, first line, last line) of every top-level
    function and class of the package, decorators included."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield f"{module}.{node.name}", node.name, path, first, node.end_lineno


def _words(text: str) -> Counter:
    return Counter(re.findall(r"\w+", text))


def test_every_top_level_definition_is_referenced():
    texts = _searched_texts()
    words = sum((_words(t) for t in texts.values()), Counter())
    unused = []
    for dotted, name, path, first, last in _top_level_definitions():
        own = "".join(texts[path].splitlines(keepends=True)[first - 1 : last])
        if words[name] == _words(own)[name]:
            unused.append(dotted)
    assert unused == []


def test_every_traced_function_exists(monkeypatch):
    # perfbench/spans.py wraps these by module and name; a rename would pass
    # the suite and break only a traced benchmark run
    spec = importlib.util.spec_from_file_location("_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    missing = [
        f"{mod_name}.{fn_name}"
        for mod_name, fn_name, _, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(mod_name), fn_name, None))
    ]
    assert spans.TARGETS and missing == []


def test_importing_the_cli_leaves_mpmath_unloaded():
    # only Shannon entropy needs mpmath, so no other question pays for its import
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    check = "import sys, hyperflow.cli; sys.exit('mpmath' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", check], env=env, timeout=60).returncode == 0
