"""Run the test suite in process under a line tracer, and fail if a line
of ``src/ammknn`` is never reached, or an ``if`` or ``while`` test never
goes both ways, through the command line.

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
``path:line: text``, unless ``ALLOWED`` names it.

Under the same scope the tracer records, for each frame, the pairs of
(previous line, line) it ran, a return from the frame counting as line
0; an exception forgets the previous line, so a jump to a handler is no
pair. An ``if`` or ``while`` whose body starts below its test went true
when a pair leads from a line of its test into its body, and false when
one leads from its test to a line outside both. Each such test that did
not go both ways is printed as ``path:line: text (never true)`` or
``(never false)``, unless ``ONE_SIDED`` names it with its reason. Line
pairs cannot see the branches within one line: a one-line ``if x: y``,
a conditional expression, ``and`` and ``or``, and a comprehension's
filter are not checked. The exit status is 1 when a line or a test is
printed. In dev mode with warnings as errors, the suite of 814 tests took
61 and 55 s under the tracer, against 27 and 31 s without it (two runs
each, 2-core Xeon, Python 3.11.7).

``mutation_gate.py`` runs the same tracer over every frame, with
``by_test``, to learn which lines each test reaches.
"""

import ast
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

# (file, stripped text of the test's first line) -> why it goes one way only
ONE_SIDED = {
    ("cli.py", 'if __name__ == "__main__":'): "true only when the module is run as a script",
}

RETURN = 0  # the line a pair leads to when its frame returns


def executable_lines(path):
    """The line numbers of ``path`` that hold an instruction."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def branches(path):
    """(first line, lines of the test, lines of the body) of each ``if``
    and ``while`` of ``path`` whose body starts below its test."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.If, ast.While)) and node.body[0].lineno > node.test.end_lineno:
            yield (
                node.lineno,
                range(node.lineno, node.test.end_lineno + 1),
                range(node.body[0].lineno, node.body[-1].end_lineno + 1),
            )


def sides(test, body, pairs):
    """Whether a pair of ``pairs`` leads from ``test`` into ``body``, and
    whether one leads from ``test`` to a line outside both."""
    taken = [line for previous, line in pairs if previous in test and line not in test]
    return any(line in body for line in taken), any(line not in body for line in taken)


def _asserted_in_body(item, excinfo):
    """Whether ``excinfo`` is an ``AssertionError`` raised by the body of
    the test function of ``item`` itself."""
    if not excinfo.errisinstance(AssertionError):
        return False
    tb = excinfo.tb
    while tb.tb_next:
        tb = tb.tb_next
    return tb.tb_frame.f_code is item.function.__code__


class _Scope:
    """Which frames the tracer records, and what was running when each
    started.

    A frame counts while pytest collects or while a ``cli.main`` frame is
    on the stack; with ``by_test``, every frame of a package file counts.
    ``running`` is the node id of the test being run, ``("fixture",
    name)`` while a fixture is set up, ``("module", node id)`` while a
    test module is collected (and imported), and ``""`` outside all of
    these. ``failed`` holds the node ids of the tests that failed, except
    those whose only failure is an ``AssertionError`` raised in the test
    function's own body: the package calls before it returned, as when a
    test measuring memory counts the tracer's own allocations; those
    are in ``asserted``.
    """

    def __init__(self, by_test):
        self.collecting = True
        self.mains = 0  # cli.main frames on the stack
        self.by_test = by_test
        self.running = ""
        self.fixtures = {}  # test node id -> the names of the fixtures it uses
        self.failed = set()
        self.asserted = set()  # the tests that failed at such an AssertionError

    def pytest_collection_finish(self, session):
        self.collecting = False
        self.fixtures = {item.nodeid: set(item.fixturenames) for item in session.items}

    @pytest.hookimpl(wrapper=True)
    def pytest_make_collect_report(self, collector):
        if not isinstance(collector, pytest.Module):
            return (yield)
        self.running = ("module", collector.nodeid)
        try:
            return (yield)
        finally:
            self.running = ""

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_makereport(self, item, call):
        report = yield
        if report.failed:
            own = call.when == "call" and _asserted_in_body(item, call.excinfo)
            (self.asserted if own else self.failed).add(item.nodeid)
        return report

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_protocol(self, item):
        self.running = item.nodeid
        try:
            return (yield)
        finally:
            self.running = ""

    @pytest.hookimpl(wrapper=True)
    def pytest_fixture_setup(self, fixturedef):
        outer, self.running = self.running, ("fixture", fixturedef.argname)
        try:
            return (yield)
        finally:
            self.running = outer


def traced_run(args, by_test=False):
    """pytest's exit status on ``args``, the (previous line, line) pairs
    run in each package file within ``_Scope``, by (what was running when
    the frame started, file name), and the ``_Scope``."""
    prefix = str(PACKAGE) + os.sep
    main_file = str(PACKAGE / "cli.py")
    scope = _Scope(by_test)
    ran = defaultdict(set)

    def is_main(code):
        return code.co_name == "main" and code.co_filename == main_file

    def importing(frame):
        """Whether the body of a package module is on the stack of ``frame``."""
        while frame is not None and not (
            frame.f_code.co_name == "<module>" and frame.f_code.co_filename.startswith(prefix)
        ):
            frame = frame.f_back
        return frame is not None

    def tracer(frame):
        """A frame's own tracer; each resumption of a generator gets a new
        one. What the package runs as it is imported is every test's."""
        code = frame.f_code
        running = scope.running
        if running and running[0] == "module" and importing(frame):
            running = ""
        pairs = ran[running, os.path.basename(code.co_filename)]
        previous = None

        def local(frame, event, arg):
            nonlocal previous
            if event == "line":
                pairs.add((previous, frame.f_lineno))
                previous = frame.f_lineno
            elif event == "return":
                pairs.add((previous, RETURN))
                if is_main(code):
                    scope.mains -= 1  # also when main leaves by an exception
            elif event == "exception":
                previous = None
            return local

        return local

    def trace(frame, event, arg):
        # a call event starts each frame and each resumption of a generator
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        if is_main(frame.f_code):
            scope.mains += 1
            return tracer(frame)
        counts = scope.by_test or scope.mains or scope.collecting
        return tracer(frame) if counts else None

    sys.settrace(trace)
    try:
        status = pytest.main(args, plugins=[scope])
    finally:
        sys.settrace(None)
    return status, ran, scope


def main(args):
    status, traced, _ = traced_run(args)
    if status != 0:
        return status
    ran = defaultdict(set)
    for (_, name), pairs in traced.items():
        ran[name] |= pairs
    unreached = total = one_sided = tests = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        pairs = ran.get(path.name, set())
        reached = {line for _, line in pairs}
        executable = executable_lines(path)
        total += len(executable)
        for line in sorted(executable - reached):
            if (path.name, text[line - 1].strip()) not in ALLOWED:
                unreached += 1
                print(f"{path}:{line}: {text[line - 1].strip()}")
        for line, test, body in sorted(branches(path)):
            tests += 1
            went = sides(test, body, pairs)
            if all(went) or (path.name, text[line - 1].strip()) in ONE_SIDED:
                continue
            one_sided += 1
            never = " and ".join(n for n, w in zip(("true", "false"), went) if not w)
            print(f"{path}:{line}: {text[line - 1].strip()} (never {never})")
    print(
        f"line gate: {unreached} of {total} executable lines of {PACKAGE} "
        f"unreached, {one_sided} of {tests} if and while tests one-sided, through cli.main"
    )
    return 1 if unreached or one_sided else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
