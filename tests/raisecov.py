"""Which refusals and branches does the suite reach? An opt-in pytest
plugin that lists every ``raise`` statement in the otaconsensus package
that a test session never executes, and then every other statement no test
executes, docstrings excluded:

    PYTHONPATH=src:tests python -m pytest -p raisecov

It traces the package's own frames line by line (``sys.settrace``, and
``threading.settrace`` for threads started later) and, at the end of the
session, prints each ``raise`` no test reached as ``file:line``, then each
unreached statement the same way, so a dead branch shows up as an
unreached refusal does. A simple statement is reached when any of its
lines is; a compound one (``if``, ``for``, ``def``, ...) when a line of its
header is. A line reached only inside a subprocess the suite starts does
not count. The default test run does not load it.

The full suite leaves four raises unreached, each a standing
certification in ROADMAP.md, and no other statement but one inside the
first of their branches and ``cli.entry``'s lines, which only the installed
console script runs. ``UNREACHED`` names them by file, enclosing function
and source text, so that an edit above them moves no entry. When the
statements left unreached are not exactly those, the plugin prints the
difference and the session exits with status 1.

The tracer's own allocations land in tracemalloc's peaks, which the
memory tests in ``tests/test_kernel.py`` bound. It keeps the set of lines
reached, so it allocates only when it first meets a line, and those tests
pass under it.
"""
from __future__ import annotations

import ast
import io
import os
import sys
import threading
import tokenize
from importlib.util import find_spec
from pathlib import Path

#: The statements the full suite leaves unreached, as (file, enclosing
#: function, source text): the four certified raises, then the statement
#: before the first of them and cli.entry's two lines.
UNREACHED = {
    ("analysis.py", "matrix_oracle",
     'raise DegenerateStateError(f"node {j} has nonpositive denominator at step {k}: {float(x[j])!r}")'),
    ("analysis.py", "stationary_limit", 'raise RuntimeError(f"stationary solve left fixed-point residual {residual!r}")'),
    ("analysis.py", "stationary_limit", 'raise RuntimeError(f"per-node limit identity violated by {worst!r}")'),
    ("protocol.py", "prop1_weights",
     'raise ValueError(f"columns must sum to 1 within {COLUMN_SUM_TOL}, worst error {col_err}")'),
    ("analysis.py", "matrix_oracle", "j = int(np.argmin(x))"),
    ("cli.py", "entry", "sys.exit(main())"),
    ("cli.py", "<module>", "entry()"),
}


class RaiseCoverage:
    def __init__(self):
        self.root = Path(find_spec("otaconsensus").origin).resolve().parent
        self.statements = {}  # (file, first line) -> the lines that reach the statement
        self.names = {}  # (file, first line) -> (file name, enclosing function, source text)
        self.raises = set()
        for path in sorted(self.root.glob("*.py")):
            source = path.read_text(encoding="utf-8")
            # each line without its comment: a statement is named by its code
            cut = {t.start[0]: t.start[1] for t in tokenize.generate_tokens(io.StringIO(source).readline)
                   if t.type == tokenize.COMMENT}
            lines = [line[: cut.get(i)] for i, line in enumerate(source.splitlines(), start=1)]
            for node, function in _statements(ast.parse(source), "<module>"):
                body = getattr(node, "body", None)  # a compound statement's header ends at its body
                last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
                reach = range(node.lineno, max(last, node.lineno) + 1)
                self.statements[str(path), node.lineno] = reach
                text = " ".join(" ".join(lines[i - 1] for i in reach).split())
                self.names[str(path), node.lineno] = path.name, function, text
                if isinstance(node, ast.Raise):
                    self.raises.add((str(path), node.lineno))
        self.files = {path for path, _ in self.statements}
        self.ours = {}  # a code object's file name -> whether it is a package file
        self.reached = set()
        self.missed = set()

    def _call(self, frame, event, arg):
        """The global tracer: only the package's frames are traced line by line."""
        name = frame.f_code.co_filename
        ours = self.ours.get(name)
        if ours is None:
            ours = self.ours[name] = os.path.realpath(name) in self.files
        return self._line if ours else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.reached.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def pytest_sessionstart(self, session):
        sys.settrace(self._call)
        threading.settrace(self._call)

    def pytest_sessionfinish(self, session):
        sys.settrace(None)
        threading.settrace(None)
        reached = {(os.path.realpath(name), line) for name, line in self.reached}
        self.missed = {(path, first) for (path, first), lines in self.statements.items()
                       if not any((path, line) in reached for line in lines)}
        if {self.names[s] for s in self.missed} != UNREACHED and session.exitstatus == 0:
            session.exitstatus = 1

    def pytest_terminal_summary(self, terminalreporter):
        missed = self.missed
        for title, found in (("raise statements", missed & self.raises), ("other statements", missed - self.raises)):
            terminalreporter.section(f"raisecov: {len(found)} {title} never executed")
            for path, line in sorted(found):
                terminalreporter.write_line(f"{Path(path).relative_to(self.root.parent)}:{line}")
        named = {self.names[s] for s in missed}
        if named != UNREACHED:
            terminalreporter.section("raisecov: the unreached statements differ from UNREACHED", red=True)
            for sign, found in (("+ unreached", named - UNREACHED), ("- reached or gone", UNREACHED - named)):
                for name, function, text in sorted(found):
                    terminalreporter.write_line(f"{sign}: {name} {function}: {text}")


def _statements(tree, function):
    """Each statement under tree but docstrings, with the qualified name of
    the function or class that encloses it, "<module>" at the top."""
    for node in ast.iter_child_nodes(tree):
        inner = function
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = node.name if function == "<module>" else f"{function}.{node.name}"
        if isinstance(node, ast.stmt) and not _is_docstring(node):
            yield node, function
        yield from _statements(node, inner)


def _is_docstring(node) -> bool:
    """A bare string statement, which compiles to no instruction."""
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def pytest_configure(config):
    config.pluginmanager.register(RaiseCoverage(), "raisecov-tracer")
