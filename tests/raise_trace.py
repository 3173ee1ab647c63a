"""List every ``raise`` in ``src/qdpsim`` that the tier-1 suite never runs.

Run from the repository root::

    python tests/raise_trace.py [extra pytest arguments]

It finds each ``raise`` statement with ``ast``, runs the suite in this
process under a ``sys.settrace`` line tracer that follows only the package's
functions holding a ``raise``, and prints every ``raise`` whose line never
ran.  It exits 1 if there is one, with pytest's code if the suite itself
fails, and 0 otherwise.  The file name does not match ``test_*.py``, so
pytest does not collect it.
"""

import ast
import dis
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "qdpsim")


def raise_lines() -> dict:
    """Each package file's real path, mapped to the line numbers of its ``raise``s."""
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.realpath(os.path.join(PACKAGE, name))
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read(), filename=path)
            found[path] = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    return found


def main(argv) -> int:
    wanted = raise_lines()
    ran = set()
    by_code = {}  # code object -> (its file, the raise lines in its body), or None

    def raises_in(code):
        path = os.path.realpath(code.co_filename)
        lines = wanted.get(path, set()).intersection(line for _, line in dis.findlinestarts(code))
        return (path, lines) if lines else None

    def trace_calls(frame, event, arg):
        code = frame.f_code
        if code not in by_code:
            by_code[code] = raises_in(code)
        found = by_code[code]
        if found is None:
            return None
        path, lines = found

        def trace_lines(frame, event, arg):
            if event == "line" and frame.f_lineno in lines:
                ran.add((path, frame.f_lineno))
            return trace_lines

        return trace_lines

    sys.path.insert(0, SRC)
    import pytest

    sys.settrace(trace_calls)
    try:
        code = pytest.main(["-q", os.path.join(ROOT, "tests"), *argv])
    finally:
        sys.settrace(None)
    if code != 0:
        print(f"the test suite failed (pytest exit {code}); no raise report", file=sys.stderr)
        return int(code)
    missed = sorted((path, line) for path, lines in wanted.items() for line in lines
                    if (path, line) not in ran)
    total = sum(len(lines) for lines in wanted.values())
    for path, line in missed:
        print(f"unexecuted raise: {os.path.relpath(path, ROOT)}:{line}")
    print(f"{total - len(missed)} of {total} raise statements in src/qdpsim ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
