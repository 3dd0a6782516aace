"""Reach map: the function-body statements of ``src/twoside`` that tier-1 never runs.

Run from the repository root (``python tests/reach.py``); it takes no
options and pytest never collects it. It runs the tier-1 suite in this
process under a ``sys.settrace`` line tracer, then prints, for each
statement inside a function or method of ``src/twoside/*.py`` that produced
no line event, ``file:line in function: first line of the statement``, and
a count. Under the tracer the suite takes about 1.5 minutes on a 2-vCPU VM,
some 4 times its untraced time.

It exits nonzero when the suite fails or when a statement other than the
``_TINY`` clamps of the Lentz continued fractions in ``specfun`` never ran;
those clamps want arguments at the edge of the float range.

A test that runs the package in a subprocess (the import probes of
``tests/test_cli.py`` and ``tests/test_bench_tracer.py``) is not traced, so
what only such a test reaches is listed as never run. Besides pytest, which
runs the suite, it imports only the standard library.
"""

from __future__ import annotations

import ast
import re
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twoside"

# the statements that may stay unreached: `c = _TINY` or `d = _TINY` in specfun
_CLAMP = re.compile(r"[cd] = _TINY")

_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith)


def _statement_lines(node: ast.stmt) -> range:
    """The lines whose line event shows that ``node`` ran."""
    if isinstance(node, (ast.Try, ast.Global, ast.Nonlocal)):
        return range(0)  # no event of their own; a try's body is counted
    if isinstance(node, _COMPOUND):
        return range(node.lineno, node.body[0].lineno)  # the header, not the body
    return range(node.lineno, node.end_lineno + 1)


def _body_statements(function: ast.FunctionDef | ast.AsyncFunctionDef):
    """Every statement of the body, nested blocks included, but not nested functions' bodies."""
    body = function.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]  # the docstring is not executed
    stack = list(reversed(body))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            stack.extend(reversed(getattr(node, field, [])))
        for handler in getattr(node, "handlers", []):
            stack.extend(reversed(handler.body))


def statements() -> list[tuple[str, int, str, range, str]]:
    """(file, line, function, lines, source) for every function-body statement."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for function in ast.walk(ast.parse(source, filename=str(path))):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in _body_statements(function):
                lines = _statement_lines(node)
                if lines:
                    found.append((str(path), node.lineno, function.name, lines,
                                  text[node.lineno - 1].strip()))
    return sorted(found, key=lambda s: (s[0], s[1]))


def run_suite() -> tuple[int, set[tuple[str, int]]]:
    """Run tier-1 under the line tracer; its exit status and the (file, line) events seen."""
    import pytest

    package = str(PACKAGE)
    seen: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        # only frames of the package get the line tracer
        return local if frame.f_code.co_filename.startswith(package) else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), seen


def main() -> int:
    status, seen = run_suite()
    every = statements()
    never = [s for s in every if not any((s[0], line) in seen for line in s[3])]
    for path, line, function, _, source in never:
        print(f"{Path(path).relative_to(ROOT)}:{line} in {function}: {source}")
    print(f"{len(never)} of {len(every)} function-body statements never ran "
          f"(pytest exit status {status})")
    unexpected = [s for s in never
                  if Path(s[0]).name != "specfun.py" or not _CLAMP.fullmatch(s[4])]
    if unexpected:
        print(f"{len(unexpected)} of them are not a _TINY clamp of specfun")
    return status or int(bool(unexpected))


if __name__ == "__main__":
    sys.exit(main())
