"""Each benchmark workload's invocation passes that workload's own output
checks, so a change to the program that breaks one fails here first."""
import importlib.util
import sys
from pathlib import Path

import pytest

from otaconsensus.cli import main

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # its dataclasses look it up
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_workload_passes_its_checks(name, seed, tmp_path, capsys):
    prepared = workloads.prepare(name, seed, tmp_path)
    assert main(prepared.argv) == 0
    capsys.readouterr()
    problems, node_steps = workloads.check(name, prepared, tmp_path / "out")
    assert problems == [] and node_steps > 0
