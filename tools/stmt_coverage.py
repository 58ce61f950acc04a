"""List the statements of ``src/ivit`` that a pytest run never executes.

Usage (from the repository root)::

    python tools/stmt_coverage.py [pytest args ...]

With no arguments it runs ``pytest -q tests``. The run happens in this process
under ``sys.settrace``, and ``threading.settrace`` covers the threads that the
evaluation pool starts, so every statement a test reaches is seen. Subprocesses
are not traced.

A statement is an ``ast.stmt`` node that compiles to bytecode; docstrings are
not statements. A compound statement (``if``, ``for``, ``def``, ...) counts by
its header lines only, a simple one by all of its lines, and it ran if any of
those lines raised a ``line`` event. The script prints each never-run
statement as ``file:line: source`` and then a summary line, and exits with
pytest's exit code.

Tracing slows the suite down by about half, so this is a tool, not a test.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ivit"


def _code_lines(code) -> set[int]:
    """The lines that ``code`` or a code object nested in it has bytecode on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    body = getattr(parent, "body", None)
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str) and bool(body) and body[0] is node)


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement that are not lines of a nested statement."""
    children = [child for field in ("body", "orelse", "finalbody", "handlers", "cases")
                for child in getattr(node, field, None) or ()]
    if not children:
        return range(node.lineno, node.end_lineno + 1)
    return range(node.lineno, min(child.lineno for child in children))


def statements(path: Path) -> dict[int, range]:
    """Map each executable statement's first line to its own lines."""
    source = path.read_text()
    tree = ast.parse(source, str(path))
    executable = _code_lines(compile(source, str(path), "exec"))
    out = {}
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt) or _is_docstring(node, parent):
                continue
            own = _own_lines(node)
            if executable.intersection(own):
                out[node.lineno] = own
    return out


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    package = str(PACKAGE)
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or ["-q", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for first, own in sorted(statements(path).items()):
            total += 1
            if not any((str(path), line) in hits for line in own):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{total - missed} of {total} statements in {PACKAGE.relative_to(ROOT)} ran; "
          f"{missed} never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
