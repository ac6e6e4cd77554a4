"""List the lines of `src/mcgompertz/` that the test suite never runs.

    python tools/uncovered.py [pytest arguments...]

Runs pytest in this process, from the root of the checkout, under a
`sys.settrace` hook that records every line executed in the package's own
files and nothing else.  It then prints, per module, the executable lines
that never ran, with their source: the lines of each code object's
`co_lines`, docstrings left out (comments and blank lines have none).

Only this thread of this process is seen (no test starts threads).  Code
that a test runs in a subprocess, such as `python -m mcgompertz.cli` or
the fresh interpreters of `tests/test_startup.py`, counts as not run.
Under the hook the suite takes about twice as long, so this is not part
of the test run.  The exit status is pytest's.
"""

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mcgompertz"


def executable_lines(path):
    """(line numbers with bytecode, outside docstrings; source lines)."""
    source = path.read_text(encoding="utf-8")
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                docs.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines - docs, source.splitlines()


def run_traced(argv):
    """pytest.main(argv) under the hook: (exit code, {filename: lines run})."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran = {}

    def on_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        # the call itself runs the code object's first line
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return on_line

    sys.settrace(on_call)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
    return code, ran


def main(argv):
    os.chdir(ROOT)
    code, ran = run_traced(argv)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines, text = executable_lines(path)
        never = sorted(lines - ran.get(str(path), set()))
        total += len(lines)
        missed += len(never)
        print(f"{path.name}: {len(never)} of {len(lines)} executable lines never ran")
        for n in never:
            print(f"  {n}: {text[n - 1].strip()}")
    print(f"total: {missed} of {total} executable lines never ran (pytest exit {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
