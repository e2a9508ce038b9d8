"""README's Python example runs as written, and the numbers it states are
the code's, so the documented API cannot drift from the code."""
import csv
import json
import re
from pathlib import Path

from otaconsensus import cli

README = Path(__file__).resolve().parents[1] / "README.md"
CONFIGS = README.parent / "configs"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    converged, iterations, error = capsys.readouterr().out.split()
    assert (converged, iterations) == ("True", "32") and float(error) < 1e-9


def test_readme_states_the_writer_block_size():
    stated = re.findall(r"about (\d+) reals\s+each", README.read_text())
    assert stated == [str(cli.CHUNK_VALUES)]


def _sci(x: float, digits: int) -> str:
    """x as README prints it: 2.1e-9, not 2.1e-09."""
    mantissa, exponent = f"{x:.{digits}e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def _ran(capsys, tmp_path, command, config, *overrides) -> Path:
    """The output directory of one CLI invocation on a shipped config."""
    out = tmp_path / str(len(list(tmp_path.iterdir())))
    cli.main([command, str(CONFIGS / config), "-o", str(out), *overrides])
    capsys.readouterr()
    return out


def _sweep_rows(capsys, tmp_path, config) -> list[dict]:
    return list(csv.DictReader((_ran(capsys, tmp_path, "sweep", config) / "sweep.csv").read_text().splitlines()))


def test_readme_states_the_programs_numbers(capsys, tmp_path):
    # the verify thresholds' large-start failures and the "Reproducing the
    # paper" sweeps, at the precision README prints them
    text = " ".join(README.read_text().split())
    verify = {}
    for mean in ("1e3", "1e4"):
        out = _ran(capsys, tmp_path, "verify", "tvc10.cfg", "--set", f"initial=random_mean({mean}, 1)")
        rows = {r["check_name"]: r for r in json.loads((out / "verify.json").read_text())}
        verify[mean] = [rows[f"{kind}_equivariance"] for kind in ("scale", "shift")]
    (scale, shift), both = verify["1e3"], verify["1e4"]
    assert not scale["passed"] and shift["passed"] and not any(r["passed"] for r in both)
    assert (f"`initial = random_mean(1e3, 1)` fails `scale_equivariance` ({_sci(scale['measured_error'], 2)} "
            f"> 1e-12), and `random_mean(1e4, 1)` fails both rows ({_sci(both[0]['measured_error'], 2)} and "
            f"{_sci(both[1]['measured_error'], 2)})") in text

    rows = _sweep_rows(capsys, tmp_path, "algorithm_sweep.cfg")
    assert all(r["converged"] == "true" for r in rows)
    most = {a: max(int(r["iterations_used"]) for r in rows if r["value"] == a) for a in ("tic", "tvc")}
    assert f"tic within {most['tic']} steps and tvc within {most['tvc']}." in text

    rows = _sweep_rows(capsys, tmp_path, "noise_sweep.cfg")
    errors = [_sci(float(r["final_max_error"]), 1) for r in rows if r["seed"] == "0"]
    assert f"on seed 0 the final error reads {errors[0]}, {errors[1]} and {errors[2]}." in text
