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
certification in ROADMAP.md, and no other statement but those inside their
four branches and ``cli.entry``'s lines, which only the installed console
script runs.

The tracer's own allocations land in tracemalloc's peaks, which the
memory tests in ``tests/test_kernel.py`` bound. It keeps the set of lines
reached, so it allocates only when it first meets a line, and those tests
pass under it.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from importlib.util import find_spec
from pathlib import Path


class RaiseCoverage:
    def __init__(self):
        self.root = Path(find_spec("otaconsensus").origin).resolve().parent
        self.statements = {}  # (file, first line) -> the lines that reach the statement
        self.raises = set()
        for path in sorted(self.root.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.stmt) or _is_docstring(node):
                    continue
                body = getattr(node, "body", None)  # a compound statement's header ends at its body
                last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
                self.statements[str(path), node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
                if isinstance(node, ast.Raise):
                    self.raises.add((str(path), node.lineno))
        self.files = {path for path, _ in self.statements}
        self.ours = {}  # a code object's file name -> whether it is a package file
        self.reached = set()

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

    def pytest_terminal_summary(self, terminalreporter):
        reached = {(os.path.realpath(name), line) for name, line in self.reached}
        missed = {(path, first) for (path, first), lines in self.statements.items()
                  if not any((path, line) in reached for line in lines)}
        for title, found in (("raise statements", missed & self.raises), ("other statements", missed - self.raises)):
            terminalreporter.section(f"raisecov: {len(found)} {title} never executed")
            for path, line in sorted(found):
                terminalreporter.write_line(f"{Path(path).relative_to(self.root.parent)}:{line}")


def _is_docstring(node) -> bool:
    """A bare string statement, which compiles to no instruction."""
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def pytest_configure(config):
    config.pluginmanager.register(RaiseCoverage(), "raisecov-tracer")
