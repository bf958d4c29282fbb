"""List the statements of ``src/gtprob`` that neither the tests nor the demos run.

Usage (from the repository root)::

    python tools/uncovered.py [extra pytest arguments]

The script runs ``pytest.main`` on ``tests/`` and then every
``demos/*.py``, all in this process, under a line tracer installed with
``sys.settrace`` and ``threading.settrace``.  The tracer records lines only
in frames whose code lives under ``src/gtprob``.  It then walks each
module's ``ast`` and prints every statement none of whose own lines ran,
grouped by module, followed by one summary line.  A compound statement
(``if``, ``for``, ``def``, ...) counts as run when its header ran or any
statement inside it did; docstrings and ``global``/``nonlocal``
declarations, which compile to no code, are skipped.

Tests that start ``gtprob`` in a subprocess (the console-script, unknown
flag and depth-cap tests in ``tests/test_cli.py``) are not traced, so a
line only they reach is listed as never run; so is the
``if __name__ == "__main__"`` block of ``cli.py``.

The tracer makes the suite about three times slower, so Hypothesis deadlines are
switched off for the run, and the wall-time budgets of
``tests/test_acceptance.py`` may fail; a failing test still traces every
line it ran.  The summary line names each test that failed under the
tracer, or else gives pytest's exit status.  Uses only the
standard library besides pytest and Hypothesis, which the tests need
anyway; not part of the test suite.
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gtprob"


def _traced_lines(run):
    """What ``run()`` returns, and the lines of ``PACKAGE`` that ran during
    it, by file name."""
    hits: dict[str, set[int]] = defaultdict(set)
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _own_lines(node: ast.stmt) -> range:
    """The lines of ``node`` outside the statements nested in it."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(node.lineno, body[0].lineno - 1) + 1)
    return range(first, node.end_lineno + 1)


def _statements(tree: ast.Module):
    """Every statement that compiles to code."""
    for parent in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            nodes = getattr(parent, field, None)
            for node in nodes if isinstance(nodes, list) else []:
                if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
                    continue
                if not _is_docstring(node, parent):
                    yield node


def _unrun(path: Path, lines: set[int]) -> tuple[int, list[ast.stmt]]:
    """How many statements ``path`` has, and those that never ran."""
    tree = ast.parse(path.read_text(), str(path))
    stmts = list(_statements(tree))
    ran: set[int] = set()

    def visit(node: ast.stmt) -> bool:
        hit = any(n in lines for n in _own_lines(node))
        for child in ast.iter_child_nodes(node):
            nested = child.body if isinstance(child, ast.ExceptHandler) else [child]
            for sub in nested:
                if isinstance(sub, ast.stmt):
                    hit = visit(sub) or hit
        if hit:
            ran.add(id(node))
        return hit

    for node in tree.body:
        visit(node)
    return len(stmts), [s for s in stmts if id(s) not in ran]


class _Failures:
    """A pytest plugin that keeps the node ids of failed tests, in order."""

    def __init__(self):
        self.ids: list[str] = []

    def pytest_runtest_logreport(self, report):
        if report.failed and report.nodeid not in self.ids:
            self.ids.append(report.nodeid)


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    with contextlib.suppress(ImportError):
        from hypothesis import settings

        settings.register_profile("uncovered", deadline=None)
        settings.load_profile("uncovered")

    demos = sorted((ROOT / "demos").glob("*.py"))
    failures = _Failures()

    def run_all() -> int:
        status = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", *argv], plugins=[failures])
        for demo in demos:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
                runpy.run_path(str(demo), run_name="__main__")
        return status

    status, hits = _traced_lines(run_all)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count, unrun = _unrun(path, hits.get(str(path), set()))
        total += count
        missed += len(unrun)
        if unrun:
            print(f"{path.relative_to(ROOT)}")
            source = path.read_text().splitlines()
            for node in sorted(unrun, key=lambda n: n.lineno):
                print(f"  {node.lineno}: {source[node.lineno - 1].strip()[:90]}")
    tests = f"{', '.join(failures.ids)} failed under the tracer" if failures.ids else f"pytest exit {int(status)}"
    print(f"{missed} of {total} statements in src/gtprob never ran ({tests}, {len(demos)} demos)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
