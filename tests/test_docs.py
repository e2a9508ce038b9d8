"""README's Python example runs as written, and the numbers it states are
the code's, so the documented API cannot drift from the code."""
import re
from pathlib import Path

from otaconsensus import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    converged, iterations, error = capsys.readouterr().out.split()
    assert (converged, iterations) == ("True", "32") and float(error) < 1e-9


def test_readme_states_the_writer_block_size():
    stated = re.findall(r"about (\d+) reals\s+each", README.read_text())
    assert stated == [str(cli.CHUNK_VALUES)]
