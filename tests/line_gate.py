"""Run the test suite in process under a line tracer, and fail if a line
of ``src/ammknn`` is never reached through the command line.

From the repository root::

    PYTHONPATH=src python tests/line_gate.py -q --continue-on-collection-errors

The arguments go to pytest. ``sys.settrace`` records the lines that a
frame of a package file reaches while a ``cli.main`` frame is on the
stack, as a user reaches them, and every line that runs while pytest
collects, which covers the module and class bodies run at import. A line
that only a test calling the package's internals reaches is not counted,
so no check or function that only tests use can stay; tests that run the
package in a subprocess add nothing. A line is executable when an
instruction of some code object compiled from its file is on it
(``co_lines``). Each executable line that was not reached is printed as
``path:line: text``, and the exit status is 1, unless ``ALLOWED`` names
it. Under the tracer the suite took 88 s, against 41 s without it (2-core
Xeon, Python 3.11.7).
"""

import os
import sys
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ammknn"

# (file, stripped line text) of the lines no in-process test can reach
ALLOWED = {
    ("cli.py", "sys.exit(main())"),  # the body of the __main__ guard
}


def executable_lines(path):
    """The line numbers of ``path`` that hold an instruction."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


class _Scope:
    """Whether a reached line counts: while pytest collects, or while a
    ``cli.main`` frame is on the stack."""

    def __init__(self):
        self.collecting = True
        self.mains = 0  # cli.main frames on the stack

    def pytest_collection_finish(self, session):
        self.collecting = False


def traced_run(args):
    """pytest's exit status on ``args``, and the lines reached in each
    package file within ``_Scope``, by file name."""
    prefix = str(PACKAGE) + os.sep
    main_file = str(PACKAGE / "cli.py")
    scope = _Scope()
    reached = defaultdict(set)

    def is_main(code):
        return code.co_name == "main" and code.co_filename == main_file

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        elif event == "return" and is_main(frame.f_code):
            scope.mains -= 1  # also when main leaves by an exception
        return local

    def trace(frame, event, arg):
        # a call event starts each frame and each resumption of a generator
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        if is_main(frame.f_code):
            scope.mains += 1
            return local
        return local if scope.mains or scope.collecting else None

    sys.settrace(trace)
    try:
        status = pytest.main(args, plugins=[scope])
    finally:
        sys.settrace(None)
    return status, {os.path.basename(name): lines for name, lines in reached.items()}


def main(args):
    status, reached = traced_run(args)
    if status != 0:
        return status
    unreached = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        executable = executable_lines(path)
        total += len(executable)
        for line in sorted(executable - reached.get(path.name, set())):
            if (path.name, text[line - 1].strip()) not in ALLOWED:
                unreached += 1
                print(f"{path}:{line}: {text[line - 1].strip()}")
    print(
        f"line gate: {unreached} of {total} executable lines of {PACKAGE} "
        "unreached through cli.main"
    )
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
