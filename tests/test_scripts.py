import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["reproduce_tic", "reproduce_tvc"])
def test_reproduce_script_runs(name, monkeypatch, capsys):
    script = runpy.run_path(str(SCRIPTS / f"{name}.py"))
    monkeypatch.setattr(sys, "argv", [f"{name}.py", "--n", "6", "--seeds", "1"])
    script["main"]()
    out = capsys.readouterr().out
    assert out.startswith("n=6 p=0.5 algorithm=")
    # header, then one row for seed 0
    assert any(line.split()[:1] == ["0"] for line in out.splitlines())
