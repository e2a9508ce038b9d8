"""Which refusals does the suite reach? An opt-in pytest plugin that lists
every ``raise`` statement in the otaconsensus package that a test session
never executes:

    PYTHONPATH=src:tests python -m pytest -p raisecov

It traces the package's own frames line by line (``sys.settrace``, and
``threading.settrace`` for threads started later) and, at the end of the
session, prints each ``raise`` no test reached as ``file:line``. A raise
reached only inside a subprocess the suite starts does not count. The
default test run does not load it.

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
        self.raises = {
            (str(path), node.lineno)
            for path in sorted(self.root.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Raise)
        }
        self.files = {path for path, _ in self.raises}
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
        missed = sorted(self.raises - {(os.path.realpath(name), line) for name, line in self.reached})
        terminalreporter.section(f"raisecov: {len(missed)} raise statements never executed")
        for path, line in missed:
            terminalreporter.write_line(f"{Path(path).relative_to(self.root.parent)}:{line}")


def pytest_configure(config):
    config.pluginmanager.register(RaiseCoverage(), "raisecov-tracer")
