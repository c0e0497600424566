"""Swap one operator at a time in the scoring core, run the tests that
reach it against each such mutant, and fail unless every mutant is
killed or ``SURVIVORS`` names it with its reason.

From the repository root::

    PYTHONPATH=src python tests/mutation_gate.py

The swaps are ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``,
``is`` and ``is not``, ``in`` and ``not in``, ``+`` and ``-``, ``*`` and
``/`` (also as ``+=``, ``-=``, ``*=`` and ``/=``), and ``and`` and
``or``, each way, at every such operator of ``MODULES``. A mutant swaps
one operator token in the source, so every other byte and every line
number stays; a swapped ``and`` or ``or`` swaps every operator of its
expression.

First the suite runs once in process under ``line_gate``'s tracer,
which records the package lines each test reaches in any frame, the
lines each fixture reaches as it is set up, and the lines each test
module reaches as it is imported. A test is charged with the lines of
every fixture it uses and those of its own module's import; what runs
as the package itself is imported, and anything else outside a test,
is charged to every test. A test that fails under the tracer may have
stopped short, so it runs on every mutant, unless its only failure is
an ``AssertionError`` raised in its own body, as when a test measuring
memory counts the tracer's allocations: the package code it called ran
to the end. A mutant runs on the tests charged with a line of the
statement that holds its operator, up to the operator's last line, in
a fresh temporary copy of ``COPIED`` (so the copy's hypothesis database
starts empty), as ``pytest -x -p no:cacheprovider --hypothesis-seed=0``
with bytecode writing off and its address space capped at ``MEMORY``
bytes, ``JOBS`` mutants at once. Before any mutant, the unchanged copy
must pass every test some mutant runs, named by the same node ids and
under the same cap, so that a failure is the mutant's and every node id
is found. A mutant is killed when pytest exits 1 (a test failed, a
runaway allocation among them), 2 (a module failed to import) or 4 (a
node id is not found: its module failed to import), or runs past
``TIMEOUT`` seconds, and survives when pytest passes or no test reaches
it; any other exit status, such as 5 (no test collected), is an error
of the gate.

The report on stdout opens with the traced run's pytest summary, which
names each test that failed under the tracer but shows no traceback,
and a line naming the tests charged by their lines although they
failed there. Then it lists each mutant as ``status file:line: old ->
new in expression``. The exit status is 1 when a survivor is not in
``SURVIVORS``, an entry of ``SURVIVORS`` names no survivor, or pytest
ends a mutant's run with an exit status that is neither a pass nor a
kill.
"""

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from line_gate import PACKAGE, traced_run

ROOT = PACKAGE.parents[1]
MODULES = ("knn", "preprocess", "report", "frame", "pipeline", "config")
COPIED = ("src", "tests", "perfbench", "README.md")  # what the tests read
PYTEST = ("-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0")
JOBS = 2  # mutants run at once
TIMEOUT = 120  # seconds a mutant may run; the whole suite takes about 30 s
MEMORY = 2**30  # bytes of address space each pytest may map; the whole suite maps about 200 MB
# each pytest caps its own address space before it starts, so a runaway
# allocation raises MemoryError, a failed test, whatever the host's memory
PYTHON = (
    f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, {(MEMORY, MEMORY)}); "
    "import pytest; sys.exit(pytest.console_main())"
)

# each swapped operator's token, and the operator it becomes
SWAPS = {
    ast.Lt: ("<", ast.LtE), ast.LtE: ("<=", ast.Lt),
    ast.Gt: (">", ast.GtE), ast.GtE: (">=", ast.Gt),
    ast.Eq: ("==", ast.NotEq), ast.NotEq: ("!=", ast.Eq),
    ast.Is: ("is", ast.IsNot), ast.IsNot: ("is not", ast.Is),
    ast.In: ("in", ast.NotIn), ast.NotIn: ("not in", ast.In),
    ast.Add: ("+", ast.Sub), ast.Sub: ("-", ast.Add),
    ast.Mult: ("*", ast.Div), ast.Div: ("/", ast.Mult),
    ast.And: ("and", ast.Or), ast.Or: ("or", ast.And),
}
# an operator token between two operands, after brackets, space and comments
TOKEN = re.compile(rb"(?:[\s()\\]|#[^\n]*)*(is\s+not|not\s+in|[^\s()\\#]+)")

# (file, the swapped expression with its space collapsed, "old -> new") ->
# why the mutant survives: it gives the same outputs, as the docstring
# paragraph named proves, or it changes only speed, which the named
# end-to-end metric of perfbench/run.py guards
SURVIVORS = {
    ("knn.py", "1.0 + 1e-12 + len(subject) * 1e-15", "+ -> -"):
        "knn docstring, 'Why the order is the naive one': 1e-12 alone is over nine times the "
        "combined error for up to about 1000 features, and the mutant's margin is below 1.0 "
        "only beyond that; the 1e-15 per feature is there for wider rows",
    ("knn.py", "b <= a * margin + 1e-150", "<= -> <"):
        "knn docstring, 'Why the order is the naive one': two rows exactly at the margin are "
        "in the order of their sums either way, so a near-tie there changes no ranking",
    ("knn.py", "x <= reach", "<= -> <"):
        "knn docstring, 'Why the order is the naive one': reach is at least tau's bound, and "
        "a row at or beyond that bound sums to more than each of the limit rows at or under "
        "tau, so it is never ranked",
    ("knn.py", "a <= bound", "<= -> <"):
        "knn docstring, 'Why the order is the naive one': a row exactly at tau's bound sums "
        "to more than each of the limit rows at or under tau, so it is never ranked",
    ("knn.py", "len(order) - 4 * limit", "- -> +"):
        "speed only, pass_s of loocv and score-cohort: the clamp keeps the block 4 * limit "
        "rows long at the top sums; any block of at least limit rows gives a tu of at least "
        "tau (knn docstring, 'The window'), so a shorter one only widens W",
    ("preprocess.py", "squares <= n * (n * 2.0 ** -52 * mean) ** 2", "<= -> <"):
        "_spread docstring: equal values sum to at most a quarter of the bound, or to 0.0 "
        "when the bound is 0.0, so no constant column lies at it and loses its scan",
    ("preprocess.py", "n * 2.0 ** -52", "* -> /"):
        "speed only, pass_s of prepare-wide: the bound grows by 2**104, so every column is "
        "scanned for equal values, and the scan is exact",
    ("frame.py", "math.hypot(*cells) <= BOUND / 10", "<= -> <"):
        "speed only, pass_s of prepare-wide: at equality every cell is within BOUND / 10, "
        "and the cell by cell check the mutant runs accepts each of them",
    ("pipeline.py", "len(rows) == _BLOCK_ROWS", "== -> !="):
        "speed only, pass_s of prepare-wide: kept rows move into the columns one at a time "
        "instead of 256, the same cells either way",
}


class Mutant:
    """One swap: the mutated source of one package file."""

    def __init__(self, path, source, line, expression, swap, edits):
        self.file = path.name
        self.line = line
        self.key = (path.name, " ".join(expression.split()), swap)
        edited = bytearray(source)
        for start, end, text in sorted(edits, reverse=True):  # later offsets first
            edited[start:end] = text
        self.source = bytes(edited)
        self.tests = ()
        self.status = "unreached"

    def __str__(self):
        return f"{self.status} {self.file}:{self.line}: {self.key[2]} in {self.key[1]}"


def operators(node):
    """(left operand, right operand, operator, its index in ``node.ops``)
    of each operator of ``node``."""
    if isinstance(node, ast.Compare):
        lefts = [node.left, *node.comparators]
        return list(zip(lefts, node.comparators, node.ops, range(len(node.ops))))
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        left, right = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value)
        return [(left, right, node.op, None)]
    if isinstance(node, ast.BoolOp):
        return [(a, b, node.op, None) for a, b in zip(node.values, node.values[1:])]
    return []


def swapped(tree, at, index, new):
    """``ast.dump`` of ``tree`` with the ``at``-th node of its walk given
    the operator ``new`` (at ``index`` of a comparison's operators)."""
    node = list(ast.walk(tree))[at]
    if index is None:
        node.op = new()
    else:
        node.ops[index] = new()
    return ast.dump(tree)


def mutants(path):
    """Each mutant of ``path``, with the range of lines whose tests it
    runs on."""
    source = path.read_bytes()
    tree = ast.parse(source)
    starts = [0]  # the byte offset of each line
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    statement = {}  # node -> its innermost enclosing statement
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            statement[child] = child if isinstance(child, ast.stmt) else statement[parent]

    def offset(line, col):
        return starts[line - 1] + col

    for at, node in enumerate(ast.walk(tree)):
        found = [site for site in operators(node) if type(site[2]) in SWAPS]
        # all the operators of an and or or are one swap; brackets keep the
        # swapped one and any and or or it holds grouped as they were
        brackets = [
            edit
            for n in [node, *(v for v in node.values if isinstance(v, ast.BoolOp))]
            for edit in [(offset(n.lineno, n.col_offset),) * 2 + (b"(",),
                         (offset(n.end_lineno, n.end_col_offset),) * 2 + (b")",)]
        ] if isinstance(node, ast.BoolOp) else []
        for group in [found] if brackets else [[f] for f in found]:
            old, new = SWAPS[type(group[0][2])]
            swap = f"{old} -> {SWAPS[new][0]}"
            edits = []
            for left, right, _, _ in group:
                begin = offset(left.end_lineno, left.end_col_offset)
                token = TOKEN.match(source[begin : offset(right.lineno, right.col_offset)])
                text = token[1][:-1] if isinstance(node, ast.AugAssign) else token[1]
                if b" ".join(text.split()) != old.encode():
                    raise ValueError(f"{path}:{left.end_lineno}: {token[1]!r} is not {old!r}")
                start = begin + token.start(1)
                edits.append((start, start + len(text), SWAPS[new][0].encode()))
            line = source.count(b"\n", 0, edits[0][0]) + 1
            first, last = (group[0][0], group[-1][1]) if isinstance(node, ast.Compare) else (node, node)
            expression = source[offset(first.lineno, first.col_offset) : offset(last.end_lineno, last.end_col_offset)]
            mutant = Mutant(path, source, line, expression.decode(), swap, edits + brackets)
            if ast.dump(ast.parse(mutant.source)) != swapped(ast.parse(source), at, group[0][3], new):
                raise ValueError(f"{path}:{line}: {swap} does not parse as that swap")
            yield mutant, range(statement[node].lineno, node.end_lineno + 1)


def charged(traced, fixtures):
    """The node ids of the tests charged with each line, by file name."""
    users = {}  # ("fixture", name) or ("module", node id) -> the tests it serves
    for test, names in fixtures.items():
        for key in [("module", test.split("::")[0]), *(("fixture", name) for name in names)]:
            users.setdefault(key, set()).add(test)
    tests = {}
    for (running, name), pairs in traced.items():
        if isinstance(running, tuple):
            who = users.get(running, set())
        else:
            who = {running} if running else set(fixtures)
        lines = tests.setdefault(name, {})
        for _, line in pairs:
            lines.setdefault(line, set()).update(who)
    return tests


def run(tests, mutant=None):
    """pytest's exit status on ``tests`` in a fresh copy holding
    ``mutant``, or None when a mutant's run went past ``TIMEOUT``
    seconds; the unchanged copy runs without a limit."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(ROOT / name, copy / name)
        if mutant is not None:
            (copy / "src" / "ammknn" / mutant.file).write_bytes(mutant.source)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        timeout = None if mutant is None else TIMEOUT
        try:
            return subprocess.run(
                [sys.executable, "-c", PYTHON, *PYTEST, *tests], cwd=copy, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout,
            ).returncode
        except subprocess.TimeoutExpired:
            return None


def judge(mutant):
    if mutant.tests:
        status = run(mutant.tests, mutant)
        mutant.status = (
            "timeout" if status is None else "survived" if status == 0
            else "killed" if status in (1, 2, 4) else f"pytest exit {status}"
        )
    return mutant


def main():
    _, traced, scope = traced_run(
        ["-q", "--tb=no", "-p", "no:cacheprovider", "--hypothesis-seed=0", f"--rootdir={ROOT}",
         str(ROOT / "tests")],
        by_test=True,
    )
    if scope.failed:
        print(f"mutation gate: run on every mutant, as they failed under the tracer: {sorted(scope.failed)}")
    if scope.asserted - scope.failed:
        print(
            "mutation gate: charged by their lines, as they failed under the tracer only at their "
            f"own assertion: {sorted(scope.asserted - scope.failed)}"
        )
    tests = charged(traced, scope.fixtures)
    order = list(scope.fixtures)  # collection order
    found = []
    for module in MODULES:
        lines = tests.get(f"{module}.py", {})
        for mutant, span in mutants(PACKAGE / f"{module}.py"):
            reached = scope.failed.union(*(lines.get(line, ()) for line in span))
            mutant.tests = [test for test in order if test in reached]
            found.append(mutant)
    selected = set().union(*(m.tests for m in found))
    if run([test for test in order if test in selected]) != 0:
        print("mutation gate: the unchanged copy fails, or does not find, the tests mutants run")
        return 1
    started = time.monotonic()
    done = []
    with ThreadPoolExecutor(JOBS) as pool:
        for mutant in pool.map(judge, found):
            print(mutant, flush=True)
            done.append(mutant)
    survivors = [m for m in done if m.status in ("survived", "unreached")]
    allowed = [m for m in survivors if m.key in SURVIVORS]
    killed = [m for m in done if m.status in ("killed", "timeout")]
    failed = [m for m in done if m not in killed and m not in allowed]  # survivors and errors
    stale = sorted(set(SURVIVORS) - {m.key for m in survivors})
    for m in failed:
        print(m)
    for key in stale:
        print(f"allowlisted, but no such survivor: {key}")
    print(
        f"mutation gate: {len(done)} mutants of {', '.join(MODULES)}: {len(killed)} killed "
        f"({sum(m.status == 'timeout' for m in done)} by the timeout), "
        f"{len(allowed)} allowlisted, {len(failed)} not, in {time.monotonic() - started:.0f} s, "
        f"on {sum(len(m.tests) for m in done) / len(done):.1f} tests a mutant"
    )
    return 1 if failed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
