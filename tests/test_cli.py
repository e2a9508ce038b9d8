import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from otaconsensus import cli
from otaconsensus.channel import FADING_ARGS, ChannelProcess, FadingModel
from otaconsensus.cli import (
    ConfigError,
    build_parser,
    config_echo,
    fmt_float,
    main,
    parse_config,
    parse_sweep,
    run_verify_suite,
    to_json,
    write_trajectory_csv,
)
from otaconsensus.floattext import float_fields, node_words, trajectory_rows
from otaconsensus.protocol import InitialStates
from otaconsensus.simulator import INITIAL_ARGS, NonFiniteStateError, Trajectory, _drive, run, run_group
from otaconsensus.topology import TOPOLOGY_ARGS, TopologySpec, generate_topology
from standin import Blocks

MINIMAL = """\
n = 10
topology = erdos_renyi(0.5)
algorithm = tic
fading = half_normal(1.0)
initial = random_mean(1.0, 1.0)
seed = 42
"""


@pytest.fixture
def minimal_cfg(tmp_path):
    p = tmp_path / "minimal.cfg"
    p.write_text(MINIMAL)
    return p


# ---------------------------------------------------------------- parsing


def test_minimal_config_fills_defaults(minimal_cfg):
    cfg = parse_config(str(minimal_cfg))
    assert cfg.n == 10 and cfg.seed == 42 and cfg.algorithm == "tic"
    assert cfg.self_weight == 1.0
    assert cfg.noise_std == 0.0
    assert cfg.tol == 1e-9
    assert cfg.tol_window == 10
    assert cfg.max_iters == 5000
    assert cfg.epsilon == 1e-3
    assert cfg.B == 1
    assert cfg.deep_fade is False
    assert cfg.topology.kind == "erdos_renyi" and cfg.topology.p == 0.5
    assert cfg.fading.kind == "half_normal" and cfg.fading.scale == 1.0
    assert cfg.initial.kind == "random_mean"


def test_override_applied_last(minimal_cfg):
    cfg = parse_config(str(minimal_cfg), ["seed=7"])
    base = parse_config(str(minimal_cfg))
    assert cfg.seed == 7
    assert cfg == type(cfg)(**{**base.__dict__, "seed": 7})


def test_unknown_key_names_location(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(MINIMAL + "bogus = 1\n")
    with pytest.raises(ConfigError, match=r"c\.cfg:7: unknown key 'bogus'"):
        parse_config(str(p))


def test_unknown_override_key(minimal_cfg):
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        parse_config(str(minimal_cfg), ["bogus=1"])


def test_type_mismatch_names_key_and_line(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(MINIMAL.replace("n = 10", "n = ten"))
    with pytest.raises(ConfigError, match=r"c\.cfg:1: key 'n' needs an integer"):
        parse_config(str(p))


def test_invariant_violation_rejected(minimal_cfg):
    with pytest.raises(ConfigError, match="n must be at least 2"):
        parse_config(str(minimal_cfg), ["n=1"])


def test_duplicate_key_rejected(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(MINIMAL + "seed = 9\n")
    with pytest.raises(ConfigError, match="duplicate key 'seed'"):
        parse_config(str(p))


def test_missing_required_key(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("n = 4\n")
    with pytest.raises(ConfigError, match="missing required config key"):
        parse_config(str(p))


def test_malformed_line(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("just some words\n")
    with pytest.raises(ConfigError, match=r"c\.cfg:1: expected 'key = value'"):
        parse_config(str(p))


def test_unknown_section(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("[plotting]\n")
    with pytest.raises(ConfigError, match=r"unknown section \[plotting\]"):
        parse_config(str(p))


def test_bool_parsing_strict(minimal_cfg):
    cfg = parse_config(str(minimal_cfg), ["algorithm=tvc", "deep_fade=true"])
    assert cfg.deep_fade is True
    with pytest.raises(ConfigError, match="true or false"):
        parse_config(str(minimal_cfg), ["deep_fade=yes"])


def test_pair_scales_parsing(minimal_cfg):
    cfg = parse_config(str(minimal_cfg), ["pair_scales=0-1:2.0, 2-3:0.5"])
    assert cfg.pair_scales == (((0, 1), 2.0), ((2, 3), 0.5))
    with pytest.raises(ConfigError, match="i-j:scale"):
        parse_config(str(minimal_cfg), ["pair_scales=garbage"])


def test_call_form_validation(minimal_cfg):
    with pytest.raises(ConfigError, match="unknown fading"):
        parse_config(str(minimal_cfg), ["fading=rayleigh(1.0)"])
    with pytest.raises(ConfigError, match="exactly one argument"):
        parse_config(str(minimal_cfg), ["fading=half_normal(1.0, 2.0)"])
    with pytest.raises(ConfigError, match="exactly two arguments"):
        parse_config(str(minimal_cfg), ["initial=random_mean(1.0)"])
    with pytest.raises(ConfigError, match="no arguments"):
        parse_config(str(minimal_cfg), ["topology=ring(3)"])


def test_fading_invariants_surface_as_config_errors(minimal_cfg):
    with pytest.raises(ConfigError, match="gain > 0"):
        parse_config(str(minimal_cfg), ["fading=constant(0.0)"])


def test_sweep_parsing(tmp_path):
    p = tmp_path / "s.cfg"
    p.write_text(MINIMAL + "[sweep]\nparameter = self_weight\nvalues = 0.0, 1.0\nseeds = 1, 2\n")
    cfg, sweep = parse_sweep(str(p))
    assert sweep.parameter == "self_weight"
    assert [(value, c.self_weight, c.seed) for value, c in sweep.runs] == [
        ("0.0", 0.0, 1), ("0.0", 0.0, 2), ("1.0", 1.0, 1), ("1.0", 1.0, 2),
    ]


def test_sweep_requires_block(minimal_cfg):
    with pytest.raises(ConfigError, match=r"\[sweep\] section"):
        parse_sweep(str(minimal_cfg))


def test_sweep_rejects_unknown_parameter(tmp_path):
    p = tmp_path / "s.cfg"
    p.write_text(MINIMAL + "[sweep]\nparameter = bogus\nvalues = 1\n")
    with pytest.raises(ConfigError, match="unknown parameter 'bogus'"):
        parse_sweep(str(p))


def test_sweep_rejects_empty_values(tmp_path):
    p = tmp_path / "s.cfg"
    p.write_text(MINIMAL + "[sweep]\nparameter = seed\nvalues = ,\n")
    with pytest.raises(ConfigError, match="at least one value"):
        parse_sweep(str(p))


def test_sweep_over_seed_forbids_seeds_list(tmp_path):
    p = tmp_path / "s.cfg"
    p.write_text(MINIMAL + "[sweep]\nparameter = seed\nvalues = 1, 2\nseeds = 3\n")
    with pytest.raises(ConfigError, match="drop the 'seeds' list"):
        parse_sweep(str(p))


def test_sweep_reads_its_file_once(tmp_path, monkeypatch):
    reads = 0
    read_sections = cli._read_sections

    def counted(path):
        nonlocal reads
        reads += 1
        return read_sections(path)

    monkeypatch.setattr(cli, "_read_sections", counted)
    assert main(["sweep", str(CONFIG_DIR / "self_weight_sweep.cfg"), "-o", str(tmp_path)]) == 0
    assert reads == 1


def test_sweep_refuses_bad_value_before_any_run(tmp_path, monkeypatch, capsys):
    p = tmp_path / "s.cfg"
    p.write_text(MINIMAL + "[sweep]\nparameter = self_weight\nvalues = 0.5, x\n")
    runs = 0

    def counted(configs):
        nonlocal runs
        runs += 1
        return run_group(configs)

    monkeypatch.setattr(cli, "run_group", counted)
    assert main(["sweep", str(p), "-o", str(tmp_path / "o")]) == 2
    assert runs == 0
    assert f"config error: {p}:9: key 'self_weight' needs a number, got 'x'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("entry, message", [
    ("-2", "seed must be nonnegative, got -2"),
    ("x", "key 'seeds' needs an integer, got 'x'"),
], ids=["negative", "non-integer"])
def test_sweep_labels_a_bad_seeds_entry_with_its_line(entry, message, tmp_path, monkeypatch, capsys):
    # every faulty seeds entry is refused by its file:line before any run
    lines = (CONFIG_DIR / "noise_sweep.cfg").read_text().splitlines()
    assert lines[14].startswith("seeds = ")
    lines[14] = f"seeds = 1, {entry}"
    (tmp_path / "ns.cfg").write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_group", None)  # a run that started would fail here
    assert main(["sweep", "ns.cfg", "-o", "o"]) == 2
    assert capsys.readouterr().err == f"config error: ns.cfg:15: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("override, message", [
    ("topology=ring(", "override: key 'topology' has malformed value 'ring('"),
    ("initial=explicit()", "override: explicit needs at least one value"),
    ("n", "override 'n' must look like key=value"),
], ids=["malformed-call", "explicit-without-values", "no-equals-sign"])
def test_run_refuses_a_faulty_override(override, message, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", str(CONFIG_DIR / "tic10.cfg"), "-o", str(out), "--set", override]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("block, message", [
    ("parameter = seed\nvalues = 1\nfoo = 1\n", "s.cfg:10: unknown sweep key 'foo'"),
    ("values = 1\n", "s.cfg: [sweep] needs 'parameter'"),
    ("parameter = seed\n", "s.cfg: [sweep] needs 'values'"),
    ("parameter = self_weight\nvalues = 1\nseeds = ,\n", "s.cfg:10: empty seeds list"),
], ids=["unknown-key", "no-parameter", "no-values", "empty-seeds"])
def test_sweep_refuses_a_faulty_block(block, message, tmp_path, monkeypatch, capsys):
    (tmp_path / "s.cfg").write_text(MINIMAL + "[sweep]\n" + block)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "s.cfg", "-o", "o"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------- serialization


def test_fmt_float_canonical():
    assert fmt_float(1.0) == "1"
    assert fmt_float(1e-9) == "1.0000000000000001e-09"
    assert float(fmt_float(0.1)) == 0.1
    with pytest.raises(ValueError):
        fmt_float(float("nan"))


def reference_trajectory_csv(trajectory) -> str:
    """The per-record f-string writer the block writer replaced."""
    lines = ["step,node,y_tilde,x_tilde,mu"]
    steps, n = trajectory.mu.shape
    for k in range(steps):
        for j in range(n):
            y, x, mu = trajectory.y_tilde[k, j], trajectory.x_tilde[k, j], trajectory.mu[k, j]
            lines.append(f"{k},{j},{fmt_float(y)},{fmt_float(x)},{fmt_float(mu)}")
    return "\n".join(lines) + "\n"


def test_trajectory_csv_matches_reference_on_edge_values(tmp_path):
    y = np.array([[-1.5, -0.0, 5e-324, 1e300], [float(2**53 + 1), 3.0, -7.0, 0.1]])
    x = np.array([[1.0, 2.0, 1.7976931348623157e308, -2.5e-310], [1e-300, 0.0, 42.0, 1 / 3]])
    trajectory = Trajectory(y, x, -y / 3)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, trajectory)
    assert path.read_bytes() == reference_trajectory_csv(trajectory).encode()


@pytest.mark.parametrize("algorithm", ["tic", "tvc", "baseline"])
def test_trajectory_csv_matches_reference_on_runs(minimal_cfg, tmp_path, algorithm):
    trajectory, _ = run(parse_config(str(minimal_cfg), [f"algorithm={algorithm}", "max_iters=60"]))
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, trajectory)
    assert path.read_bytes() == reference_trajectory_csv(trajectory).encode()


def test_trajectory_csv_refuses_first_non_finite_entry(tmp_path):
    y = np.ones((3, 2))
    y[2, 1] = np.inf
    mu = np.ones((3, 2))
    mu[1, 0] = np.nan
    path = tmp_path / "trajectory.csv"
    with pytest.raises(NonFiniteStateError, match=r"non-finite mu=nan at step 1, node 0"):
        write_trajectory_csv(path, Trajectory(y, np.ones((3, 2)), mu))
    assert not path.exists()


def field_texts(values) -> list[str]:
    """What the trajectory writer's float_fields makes of each value."""
    return [row.tobytes().translate(None, b"\0").decode() for row in float_fields(values)]


def assert_fields_are_17g(values):
    values = np.asarray(values, dtype=float)
    assert field_texts(values) == ["%.17g" % x for x in values.tolist()]


FIELD_EDGE_VALUES = [
    0.100002288818359375, 0.0319843292236328125, 7.04077911376953125,  # exact ties at the 17th digit
    1e-4, float(np.nextafter(1e-4, 0)),
    0.99999999999999994, 9999.9999999999982,  # the last doubles below a decade
    1e4, 1e16, 9999999999999998.0, float(2**53 + 1),
    1.0, 100.0, -0.0, 5e-324, float(np.finfo(float).max),
]


def test_float_fields_edge_values():
    assert_fields_are_17g(FIELD_EDGE_VALUES + [-x for x in FIELD_EDGE_VALUES])


def test_float_fields_seeded_sample_across_scales():
    rng = np.random.default_rng(20260)
    values = 10 ** rng.uniform(-6, 20, 100_000) * rng.choice([-1.0, 1.0], 100_000)
    assert_fields_are_17g(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_float_fields_match_17g(values):
    assert_fields_are_17g(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_float_fields_match_17g_on_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert_fields_are_17g(values[np.isfinite(values)])


@pytest.mark.parametrize("overrides", [
    ["n=200", "topology=ring", "max_iters=300", "tol=1e-300"],
    ["n=2", "max_iters=450", "tol=1e-300"],
    ["n=7", "max_iters=1"],
    ["initial=random_mean(0, 1e-5)", "max_iters=95", "tol=1e-300"],
    ["initial=random_mean(1e9, 1)", "max_iters=95", "tol=1e-300"],
], ids=["n200-ring", "n2", "n7-one-step", "below-1e-4", "above-1e4"])
def test_trajectory_csv_matches_reference_in_uneven_blocks(overrides, tmp_path):
    # the writer formats whole steps in blocks of about CHUNK_VALUES reals;
    # none of these runs fills its last block, and the last two send values
    # of both signs outside [1e-4, 1e4) through the scalar route
    steps, n = run_csv_matches_reference(overrides, tmp_path)
    assert steps % max(1, cli.CHUNK_VALUES // (3 * n)) != 0


def test_trajectory_csv_matches_reference_in_full_blocks(tmp_path):
    # an n = 200 ring whose rows fill every block, the last one included
    block = cli.CHUNK_VALUES // (3 * 200)
    rows = 300 // block * block
    steps, n = run_csv_matches_reference(["n=200", "topology=ring", f"max_iters={rows - 1}", "tol=1e-300"], tmp_path)
    assert steps == rows and steps % block == 0


def run_csv_matches_reference(overrides, tmp_path):
    """`run` of tic10.cfg with `overrides` writes the reference writer's
    trajectory.csv; the trajectory's (steps, n)."""
    config = str(CONFIG_DIR / "tic10.cfg")
    argv = ["run", config, "-o", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 0
    trajectory, _ = run(parse_config(config, overrides))
    assert (tmp_path / "trajectory.csv").read_bytes() == reference_trajectory_csv(trajectory).encode()
    return trajectory.mu.shape


def test_trajectory_rows_footprint_per_real():
    # the formatter's working set is what bounds cli.CHUNK_VALUES under
    # test_n200_trajectory_memory_is_bounded's write_peak: one block of it
    # at n = 200, the writer's first (step 0's x_tilde = 1 takes the decade
    # check's second product), measured 79.5 bytes per real
    n = 200
    steps = cli.CHUNK_VALUES // (3 * n)
    trajectory, _ = run(parse_config(str(CONFIG_DIR / "tic10.cfg"),
                                     [f"n={n}", "topology=ring", f"max_iters={steps}", "tol=1e-300"]))
    columns = [c[:steps] for c in (trajectory.y_tilde, trajectory.x_tilde, trajectory.mu)]
    nodes = node_words(n)
    tracemalloc.start()
    try:
        trajectory_rows(0, nodes, *columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    reals = 3 * steps * n
    assert peak < 89 * reals, (f"floattext.trajectory_rows holds {peak / reals:.1f} bytes per real, "
                               f"over 89: a new temporary in the formatter")


def test_run_non_finite_output_exit_three(minimal_cfg, tmp_path, monkeypatch, capsys):
    # a non-finite value reaching the writer is a program fault, not a config error
    y = np.ones((3, 2))
    y[2, 1] = np.nan
    real_run = cli.run
    monkeypatch.setattr(cli, "run", lambda cfg: (Trajectory(y, np.ones((3, 2)), y), real_run(cfg)[1]))
    assert main(["run", str(minimal_cfg), "-o", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ")
    assert "non-finite y_tilde=nan at step 2, node 1" in err


def test_to_json_shapes():
    doc = {"a": True, "b": None, "c": [1, 2.5], "d": {"e": "x\"y"}}
    text = to_json(doc)
    assert '"a": true' in text
    assert '"b": null' in text
    assert '"c": [' in text
    assert '"x\\"y"' in text
    import json

    assert json.loads(text) == {"a": True, "b": None, "c": [1, 2.5], "d": {"e": 'x"y'}}


def test_to_json_leaves_are_stdlib_json():
    # every key and non-float leaf is json.dumps's (short escapes for
    # \b \t \n \f \r); floats keep 17 significant digits
    c0 = "".join(map(chr, range(0x20))) + '"\\é'
    doc = {c0: c0, "i": np.int64(-7), "t": (1, 0.1), "e": {}, "l": [], "u": ()}
    text = to_json(doc)
    assert json.loads(text) == {c0: c0, "i": -7, "t": [1, 0.1], "e": {}, "l": [], "u": []}
    assert "\\u0000" in text and "\\b\\t\\n\\u000b\\f\\r" in text and "é" in text
    assert '"i": -7' in text and '"e": {}' in text and '"u": []' in text
    assert "  0.10000000000000001\n" in text


def test_config_echo_covers_all_keys(minimal_cfg):
    echo = config_echo(parse_config(str(minimal_cfg)))
    assert set(echo) == {
        "n", "topology", "topology_symmetric", "algorithm", "fading", "initial",
        "self_weight", "noise_std", "epsilon", "B", "deep_fade", "max_iters",
        "tol", "tol_window", "seed", "pair_scales",
    }


# Sets every key, most away from their defaults. The edge list is never read
# while parsing, so its path need not exist.
EVERY_KEY = """\
n = 4
topology = edge_list(nets/square.edges)
topology_symmetric = false
algorithm = tvc
fading = uniform(0.25, 0.75)
initial = explicit(1e300, -1.5, 0, 0.1)
seed = 9
self_weight = 0.5
noise_std = 1e-6
epsilon = 0.01
B = 3
deep_fade = true
max_iters = 77
tol = 1e-5
tol_window = 4
pair_scales = 2-3:0.5, 0-1:2
"""

EVERY_KEY_ECHO = """\
{
  "n": 4,
  "topology": "edge_list(nets/square.edges)",
  "topology_symmetric": false,
  "algorithm": "tvc",
  "fading": "uniform(0.25, 0.75)",
  "initial": "explicit(1.0000000000000001e+300, -1.5, 0, 0.10000000000000001)",
  "self_weight": 0.5,
  "noise_std": 9.9999999999999995e-07,
  "epsilon": 0.01,
  "B": 3,
  "deep_fade": true,
  "max_iters": 77,
  "tol": 1.0000000000000001e-05,
  "tol_window": 4,
  "seed": 9,
  "pair_scales": "2-3:0.5,0-1:2"
}"""


def test_config_echo_pinned_for_every_key(tmp_path):
    p = tmp_path / "every.cfg"
    p.write_text(EVERY_KEY)
    assert to_json(config_echo(parse_config(str(p)))) == EVERY_KEY_ECHO


def _assert_echo_round_trips(path, out_dir):
    """Writing the echo back as key = value lines gives the same config."""
    cfg = parse_config(str(path))
    lines = [
        f"{key} = {value if isinstance(value, str) else to_json(value)}\n"
        for key, value in config_echo(cfg).items()
    ]
    echoed = out_dir / "echoed.cfg"
    echoed.write_text("".join(lines))
    assert parse_config(str(echoed)) == cfg


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")) + ["every-key"])
def test_config_echo_round_trips_shipped_configs(name, tmp_path):
    path = CONFIG_DIR / name
    if name == "every-key":
        path = tmp_path / "every.cfg"
        path.write_text(EVERY_KEY)
    _assert_echo_round_trips(path, tmp_path)


_positive = st.floats(min_value=5e-324, max_value=1e300)
_nonnegative = st.floats(min_value=0.0, max_value=1e300)
# at most six values within +/-1e300 keep an explicit list's sum finite
_finite = st.floats(-1e300, 1e300)


@st.composite
def _config_texts(draw):
    n = draw(st.integers(2, 6))
    algorithm = draw(st.sampled_from(["tic", "tvc", "baseline"]))
    keys = {
        "n": str(n),
        "topology": draw(st.one_of(
            st.sampled_from(["ring", "complete", "edge_list(nets/square.edges)"]),
            st.floats(min_value=1e-9, max_value=1.0).map(lambda p: f"erdos_renyi({p!r})"),
        )),
        "algorithm": algorithm,
        "fading": draw(st.one_of(
            _positive.map(lambda g: f"constant({g!r})"),
            _positive.map(lambda s: f"half_normal({s!r})"),
            st.lists(_positive, min_size=2, max_size=2).map(sorted).map(
                lambda lh: f"uniform({lh[0]!r}, {lh[1]!r})"
            ),
        )),
        "initial": draw(st.one_of(
            st.lists(_finite, min_size=n, max_size=n).map(
                lambda vs: "explicit(" + ", ".join(map(repr, vs)) + ")"
            ),
            # target within +/-1e300 keeps the range's ends and width finite
            st.tuples(st.floats(-1e300, 1e300), _nonnegative).map(
                lambda t: f"random_mean({t[0]!r}, {t[1]!r})"
            ),
        )),
        "seed": str(draw(st.integers(0, 2**63))),
    }
    optional = {
        "topology_symmetric": st.sampled_from(["true", "false"]),
        "self_weight": _nonnegative.map(repr),
        "noise_std": _nonnegative.map(repr),
        "epsilon": _positive.map(repr),
        "B": st.integers(1, 50).map(str),
        "deep_fade": st.sampled_from(["true", "false"] if algorithm == "tvc" else ["false"]),
        "max_iters": st.integers(1, 10**6).map(str),
        "tol": _positive.map(repr),
        "tol_window": st.integers(1, 50).map(str),
        "pair_scales": st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _positive),
            max_size=3 if algorithm != "baseline" else 0,
        ).map(lambda ps: ", ".join(f"{a}-{b}:{s!r}" for a, b, s in ps)),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            keys[key] = draw(values)
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


@given(text=_config_texts())
@settings(max_examples=60, deadline=None)
def test_config_echo_round_trips(text, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("echo")
    path = out_dir / "drawn.cfg"
    path.write_text(text)
    _assert_echo_round_trips(path, out_dir)


# swept keys with strategies whose every value is valid in any drawn config
_SWEEPABLE = {
    "self_weight": _nonnegative.map(repr),
    "noise_std": _nonnegative.map(repr),
    "max_iters": st.integers(1, 10**6).map(str),
    "tol": _positive.map(repr),
    "seed": st.integers(0, 2**63).map(str),
}


@given(text=_config_texts(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_sweep_runs_match_per_run_parsing(text, data, tmp_path_factory):
    # each run's config is the one a whole-file parse with the value and seed
    # applied as overrides gives
    parameter = data.draw(st.sampled_from(sorted(_SWEEPABLE)))
    values = data.draw(st.lists(_SWEEPABLE[parameter], min_size=1, max_size=3))
    seeds = None
    if parameter != "seed" and data.draw(st.booleans()):
        seeds = data.draw(st.lists(st.integers(0, 2**63), min_size=1, max_size=3))
    overrides = data.draw(st.lists(
        st.sampled_from([f"{parameter}={values[0]}", "seed=5", "max_iters=9"]), unique=True))
    block = f"[sweep]\nparameter = {parameter}\nvalues = {', '.join(values)}\n"
    if seeds is not None:
        block += f"seeds = {', '.join(map(str, seeds))}\n"
    path = tmp_path_factory.mktemp("sweep") / "drawn.cfg"
    path.write_text(text + block)

    base, sweep = parse_sweep(str(path), overrides)
    assert base == parse_config(str(path), overrides)
    expected = []
    for value in values:
        for seed in seeds or (base.seed,):
            run_overrides = [*overrides, f"{parameter}={value}"]
            if parameter != "seed":
                run_overrides.append(f"seed={seed}")
            expected.append((value, parse_config(str(path), run_overrides)))
    assert sweep.parameter == parameter
    assert list(sweep.runs) == expected


# ---------------------------------------------------------------- subcommands


def test_run_writes_outputs_and_exits_zero(minimal_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(minimal_cfg), "-o", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "summary.json").exists()
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "step,node,y_tilde,x_tilde,mu"
    verdict = capsys.readouterr().out
    assert "converged=true" in verdict


def test_run_byte_identical(minimal_cfg, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["run", str(minimal_cfg), "-o", str(out1)])
    main(["run", str(minimal_cfg), "-o", str(out2)])
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_run_nonconvergence_still_exit_zero(minimal_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(minimal_cfg), "-o", str(out), "--set", "max_iters=2"])
    assert code == 0
    assert "converged=false" in capsys.readouterr().out


def test_run_config_error_exit_two(tmp_path, capsys):
    code = main(["run", str(tmp_path / "missing.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["tol", "epsilon", "noise_std", "self_weight"])
def test_run_nan_config_value_exit_two_before_writing(minimal_cfg, tmp_path, capsys, key):
    out = tmp_path / "o"
    assert main(["run", str(minimal_cfg), "-o", str(out), "--set", f"{key}=nan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not out.exists()


@pytest.mark.parametrize("overrides, pair", [
    (["pair_scales=0-99:2"], "(0,99)"),  # node 99 does not exist
    (["pair_scales=0-4:7"], "(0,4)"),  # not a link of the minimal config's graph
    (["algorithm=baseline", "pair_scales=0-99:2"], "(0,99)"),
])
def test_run_unusable_pair_scale_exit_two(minimal_cfg, tmp_path, capsys, overrides, pair):
    out = tmp_path / "o"
    argv = ["run", str(minimal_cfg), "-o", str(out)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and pair in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "verify"])
@pytest.mark.parametrize("pairs", ["1-7:2,7-1:3", "7-1:3,1-7:2"])
def test_repeated_pair_scale_exit_two(command, pairs, tmp_path, capsys):
    # (1,7) is a link of the graph at seed 42 and at each of the sweep's seeds
    argv = [command, str(CONFIG_DIR / "noise_sweep.cfg"), "-o", str(tmp_path / "o")]
    assert main(argv + ["--set", f"pair_scales={pairs}"]) == 2
    row = "noise_std = 0.0, seed 0: " if command == "sweep" else ""  # a sweep names its first row
    assert capsys.readouterr().err == f"config error: {row}pair (1,7) is listed twice in pair_scales\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("initial", ["random_mean(0, 1e308)", "random_mean(1e308, 1e308)"])
def test_run_overflowing_random_mean_range_exit_two(minimal_cfg, tmp_path, capsys, initial):
    out = tmp_path / "o"
    assert main(["run", str(minimal_cfg), "-o", str(out), "--set", f"initial={initial}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "initial" in err
    assert not out.exists()


def test_run_overflowing_explicit_sum_exit_two(tmp_path, capsys):
    # refused while parsing, before numpy can warn about the overflowing mean
    out = tmp_path / "o"
    argv = ["run", str(CONFIG_DIR / "tic10.cfg"), "-o", str(out),
            "--set", "n=2", "--set", "initial=explicit(1.7e308, 1.7e308)"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: override: initial values sum to inf\n"
    assert not out.exists()


def test_run_overflowing_random_mean_sum_exit_two(tmp_path, capsys):
    # the sample's range is finite but its sum is not: refused by name,
    # with no numpy warning and no output
    out = tmp_path / "o"
    argv = ["run", str(CONFIG_DIR / "tic10.cfg"), "-o", str(out),
            "--set", "initial=random_mean(1.5e308, 1e307)"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: initial values sum to inf\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_recentered_sample_that_overflows_exits_two(command, tmp_path, capsys):
    # seed 76's sample has a finite sum, but recentering it on the target
    # pushes node 1 past the double range: refused by node, with no numpy
    # warning and no output
    argv = [command, str(CONFIG_DIR / "tic10.cfg"), "-o", str(tmp_path / "o"), "--set", "n=3",
            "--set", "topology=complete", "--set", "seed=76", "--set", "initial=random_mean(8.98e307, 8.98e307)"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: initial value at node 1 is inf\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("overrides, message", [
    (["initial=explicit(1e308, 1e308, -1e308, -1e308, 0, 0, 0, 0, 0, 0)"],
     "override: initial values sum to nan"),
    (["n=400", "topology=ring", "initial=random_mean(0, 8.9e307)", "max_iters=2"],
     "initial values sum to nan"),
], ids=["explicit", "random_mean"])
def test_run_refuses_a_start_summing_to_inf_minus_inf(overrides, message, tmp_path, capsys):
    # numpy's pairwise sum meets inf + (-inf): refused by name, with no numpy warning
    out = tmp_path / "o"
    argv = ["run", str(CONFIG_DIR / "tic10.cfg"), "-o", str(out)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@given(command=st.sampled_from(["run", "sweep", "verify"]),
       magnitudes=st.lists(st.floats(1e307, 1.79e308), min_size=5, max_size=5), data=st.data())
@settings(max_examples=25, deadline=None)
def test_huge_opposite_starts_leak_no_warning(command, magnitudes, data, tmp_path_factory):
    # half the values negate the other half; whatever their float sum, no
    # numpy warning leaks (warnings are errors here), and each command exits
    # 2, naming the refusal and writing nothing, exactly when the start (for
    # verify, also its scaled or shifted copy) has a value or a sum that is
    # not finite
    values = data.draw(st.permutations(magnitudes + [-v for v in magnitudes]))
    out = tmp_path_factory.mktemp("huge") / "o"
    config = "noise_sweep.cfg" if command == "sweep" else "tic10.cfg"
    argv = [command, str(CONFIG_DIR / config), "-o", str(out), "--set", "max_iters=5",
            "--set", f"initial=explicit({', '.join(map(repr, values))})"]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    refusals = []
    with np.errstate(over="ignore", invalid="ignore"):
        starts = [("override", np.array(values))]
        if command == "verify":
            starts += [("scale_equivariance start", 3.7 * starts[0][1]),
                       ("shift_equivariance start", starts[0][1] - 2.0)]
        for label, v in starts:
            bad = np.flatnonzero(~np.isfinite(v))
            if bad.size:
                refusals.append(f"{label}: initial value at node {bad[0]} is {float(v[bad[0]])!r}")
            elif not np.isfinite(v.sum()):
                refusals.append(f"{label}: initial values sum to {float(v.sum())!r}")
    if refusals:
        assert (code, err.getvalue()) == (2, f"config error: {refusals[0]}\n")
        assert not out.exists()
    else:
        assert code != 2 and "Warning" not in err.getvalue()


@pytest.mark.parametrize("budget", [2**63 - 1, 2**64 - 1], ids=["int64", "uint64"])
def test_run_takes_a_step_budget_at_the_top_of_its_integer_type(budget, tmp_path, capsys):
    # a recording member's rows are sized from Python ints, which do not wrap
    outs = {}
    for max_iters in (10**6, budget):
        outs[max_iters] = tmp_path / str(max_iters)
        argv = ["run", str(CONFIG_DIR / "tic10.cfg"), "-o", str(outs[max_iters]),
                "--set", "tol=1e-300", "--set", f"max_iters={max_iters}"]
        assert main(argv) == 0
        assert capsys.readouterr() == ("tic: converged=true iterations=79 final_max_error=0 "
                                       "target=1.0000000000000002\n", "")
    assert (outs[budget] / "trajectory.csv").read_bytes() == (outs[10**6] / "trajectory.csv").read_bytes()


@pytest.mark.parametrize("window", [2**63 - 1, 2**70], ids=["int64", "past-int64"])
def test_run_takes_a_window_at_the_top_of_its_integer_type(window, tmp_path, capsys):
    # the next step a member could stop at is counted in Python ints, so a
    # window far past the budget neither wraps nor overflows: the run steps
    # to max_iters unconverged, its stdout and files the same bytes as with
    # a window of 501, which the 500-step run does not reach either, but
    # for the window's own echo
    outs, printed = {}, {}
    for w in (501, window):
        outs[w] = tmp_path / str(w)
        assert main(["run", str(CONFIG_DIR / "tic10.cfg"), "-o", str(outs[w]), "--set", f"tol_window={w}"]) == 0
        printed[w] = capsys.readouterr()
    assert printed[window] == printed[501]
    assert printed[501].out.startswith("tic: converged=false iterations=500 ") and printed[501].err == ""
    assert f'\n    "tol_window": {window},'.encode() in (outs[window] / "summary.json").read_bytes()
    files = {w: {p.name: re.sub(rb'\n    "tol_window": \d+,', b"", p.read_bytes()) for p in out.iterdir()}
             for w, out in outs.items()}
    assert files[window] == files[501] and sorted(files[501]) == ["summary.json", "trajectory.csv"]


def test_run_malformed_edge_list_exit_two(tmp_path, capsys):
    edges = tmp_path / "bad.edges"
    edges.write_text("0 1\n1 2 3\n")
    p = tmp_path / "c.cfg"
    p.write_text(MINIMAL.replace("erdos_renyi(0.5)", f"edge_list({edges})"))
    code = main(["run", str(p), "-o", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["config", "edge list"])
def test_run_names_a_file_that_is_not_utf8(bad, tmp_path, capsys):
    # a file that does not decode is a config fault that names the file
    p, edges = tmp_path / "c.cfg", tmp_path / "net.edges"
    if bad == "config":
        p.write_bytes(b"n = 3\xff")
        path, at = p, 5
    else:
        edges.write_bytes(b"0 1\n1 2\xff\n")
        p.write_text(MINIMAL.replace("n = 10", "n = 3").replace("erdos_renyi(0.5)", f"edge_list({edges})"))
        path, at = edges, 7
    assert main(["run", str(p), "-o", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (f"config error: cannot read {bad} {path}: 'utf-8' codec can't decode "
                                       f"byte 0xff in position {at}: invalid start byte\n")
    assert not (tmp_path / "o").exists()


def test_run_output_path_is_a_file_exit_three(minimal_cfg, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["run", str(minimal_cfg), "-o", str(taken)])
    assert code == 3
    assert "io error" in capsys.readouterr().err


def test_run_generation_exhaustion_exit_three(tmp_path, capsys):
    p = tmp_path / "c.cfg"
    p.write_text(MINIMAL.replace("erdos_renyi(0.5)", "erdos_renyi(0.001)").replace("n = 10", "n = 20"))
    code = main(["run", str(p), "-o", str(tmp_path / "o")])
    assert code == 3
    assert "runtime error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep", "verify", "topo"])
def test_out_of_memory_exit_three(command, tmp_path, monkeypatch, capsys):
    # an n too large for memory is the program's limit, not a failed check:
    # exit 3 with numpy's message, never exit 1 or a traceback
    message = "Unable to allocate 9.31 GiB for an array with shape (100000, 100000) and data type bool"

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("otaconsensus.simulator.generate_topology", no_memory)
    monkeypatch.setattr(cli, "generate_topology", no_memory)
    config = "noise_sweep.cfg" if command == "sweep" else "tic10.cfg"
    code = main([command, str(CONFIG_DIR / config), "-o", str(tmp_path / "o"), "--set", "n=100000"])
    out, err = capsys.readouterr()
    assert code == 3
    assert err == f"runtime error: out of memory: {message}\n"
    assert out == ""


def test_verify_all_pass(minimal_cfg, tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["verify", str(minimal_cfg), "-o", str(out), "--set", "n=6"]) == 0
    text = (out / "verify.json").read_text()
    import json

    doc = json.loads(text)
    assert all(set(c) == {"check_name", "passed", "measured_error", "threshold"} for c in doc)
    assert all(c["passed"] for c in doc)
    names = [c["check_name"] for c in doc]
    assert "oracle_equivalence_tic" in names
    assert "primitivity_bipartite_expected_fail" in names
    assert "non_reciprocal_breaks_stochasticity" in names


def test_verify_periodic_support_fails_check_and_writes(minimal_cfg, tmp_path, capsys):
    # a stationary limit that cannot be certified fails its check (measured 1)
    # instead of aborting verify:
    # - no self term on an even ring: the mixing matrix is periodic;
    # - link gains far below the self term: the mixing matrix's diagonal
    #   rounds to 1 and the direct solve fails its own positivity check, and
    #   a 1.5x gain on one link moves no column sum past 1e-6
    import json

    for overrides, failed in (
        (("self_weight=0", "topology=ring", "n=4"), {"stationary_limit_fixed_point"}),
        (("fading=constant(1e-17)",),
         {"stationary_limit_fixed_point", "non_reciprocal_breaks_stochasticity"}),
    ):
        out = tmp_path / "-".join(overrides)
        argv = ["verify", str(minimal_cfg), "-o", str(out)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 1
        doc = {c["check_name"]: c for c in json.loads((out / "verify.json").read_text())}
        assert doc["stationary_limit_fixed_point"] == {
            "check_name": "stationary_limit_fixed_point", "passed": False,
            "measured_error": 1.0, "threshold": 1e-10,
        }
        assert {name for name, c in doc.items() if not c["passed"]} == failed
        assert "FAIL stationary_limit_fixed_point" in capsys.readouterr().out


def test_verify_bipartite_control_fails_when_no_periodicity_is_raised(monkeypatch, tmp_path, capsys):
    # the negative control passes only when stationary_limit refuses the
    # 2-node swap matrix; a limit that returns a vector for it fails the
    # row, measured 1, and verify still writes every row
    real = cli.stationary_limit

    def lenient(hbar, S):
        return np.full(2, 0.5) if hbar.shape == (2, 2) else real(hbar, S)

    monkeypatch.setattr(cli, "stationary_limit", lenient)
    out = tmp_path / "o"
    assert main(["verify", str(CONFIG_DIR / "tvc10.cfg"), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.endswith("verify: 9/10 checks passed\n")
    doc = {c["check_name"]: c for c in json.loads((out / "verify.json").read_text())}
    assert doc["primitivity_bipartite_expected_fail"] == {
        "check_name": "primitivity_bipartite_expected_fail", "passed": False,
        "measured_error": 1.0, "threshold": 0.5,
    }
    assert [name for name, c in doc.items() if not c["passed"]] == ["primitivity_bipartite_expected_fail"]


def test_verify_on_a_graph_without_links_fails_a_row(tmp_path, capsys):
    # no link to break: the non-reciprocal control measures 0 and fails, as
    # does the limit of the identity mixing matrix, which is periodic
    edges = tmp_path / "none.edges"
    edges.write_text("")
    out = tmp_path / "o"
    argv = ["verify", str(CONFIG_DIR / "tvc10.cfg"), "-o", str(out), "--set", f"topology=edge_list({edges})"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.endswith("verify: 8/10 checks passed\n")
    doc = {c["check_name"]: c for c in json.loads((out / "verify.json").read_text())}
    assert doc["non_reciprocal_breaks_stochasticity"] == {
        "check_name": "non_reciprocal_breaks_stochasticity", "passed": False,
        "measured_error": 0.0, "threshold": 1e-6,
    }
    assert {name for name, c in doc.items() if not c["passed"]} == {
        "non_reciprocal_breaks_stochasticity", "stationary_limit_fixed_point"}


def test_verify_suite_realizes_blocks_as_it_reads_them(monkeypatch):
    # block 0 is realized once for the tic oracle, the stationary check and
    # the non-reciprocal control, and the tic pass realizes it again; the
    # tvc oracle writes epochs 0 and 1 (blocks 0-99, 64 to an epoch), whose
    # first 50 matrices the audit reads as they go by; the tvc pass writes
    # 16 epochs, epochs 0 and 1 by each of its three members; the process
    # caches one epoch, so it draws 18: 0, 1 for the oracle, then 0-15
    calls, draws = [], []
    realization, write_epoch, draw = ChannelProcess.realization, ChannelProcess.write_epoch, FadingModel.draw
    monkeypatch.setattr(ChannelProcess, "realization",
                        lambda self, k: calls.append(("block", k)) or realization(self, k))
    monkeypatch.setattr(ChannelProcess, "write_epoch",
                        lambda self, e, out: calls.append(("epoch", e)) or write_epoch(self, e, out))
    monkeypatch.setattr(FadingModel, "draw", lambda self, rng, size: draws.append(size) or draw(self, rng, size))
    run_verify_suite(parse_config(str(CONFIG_DIR / "tvc10.cfg")))
    epochs = [0] * 3 + [1] * 3 + list(range(2, 16))
    assert calls == [("block", 0)] * 2 + [("epoch", e) for e in [0, 1, *epochs]]
    assert len(draws) == 18


def test_verify_memory_is_bounded_without_channel_history():
    # verify holds one regime's recorded rows at a time, at most the tvc
    # pass's (a 1000-step and two 100-step members), and a few blocks at a
    # time: 16 n x n blocks bound the rest; holding the 100 oracle blocks
    # would cost 100 n^2 doubles, and the tic pass's rows through the tvc
    # pass another 1001 rows
    n = 200
    rows = 3 * 8 * n * ((1000 + 1) + 2 * (100 + 1))
    cfg = parse_config(str(CONFIG_DIR / "tvc10.cfg"), [f"n={n}"])
    tracemalloc.start()
    try:
        checks = run_verify_suite(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks[:3])  # both oracle rows and the audit ran
    assert peak < rows + 16 * 8 * n * n


def test_verify_passes_step_together_as_they_step_alone():
    # the equivariance passes ride as members of the tvc pass; each pass's
    # rows are bitwise its own, and a fault is the earliest pass's even
    # when a later pass faults at an earlier step
    proc = ChannelProcess(FadingModel.half_normal(1.0), generate_topology(TopologySpec("complete"), 6, 0), seed=3)

    def blocks(fault_at=None):
        def gains(k):
            if k == fault_at:
                raise ValueError(f"block {k} of the pass failing at {fault_at}")
            return proc.realization(k).gains
        return Blocks(gains)

    starts = [np.arange(6.0), 3.7 * np.arange(6.0), np.arange(6.0) - 2.0]
    together = [rows for _, rows in _drive("tvc", [
        lambda s=s, b=b, k=k: (None, b, InitialStates(s), None, k)
        for s, b, k in zip(starts, [proc, blocks(), blocks()], [40, 10, 10])], record=True)]
    for i, steps in enumerate([40, 10, 10]):
        (_, alone), = _drive("tvc", [lambda: (None, blocks(), InitialStates(starts[i]), None, steps)], record=True)
        assert all(np.array_equal(a, b) for a, b in zip(together[i], alone))
    with pytest.raises(ValueError, match="failing at 7"):
        list(_drive("tvc", [lambda s=s, b=b: (None, b, InitialStates(s), None, 10)
                            for s, b in zip(starts[:2], [blocks(7), blocks(2)])]))


@pytest.mark.parametrize("command, overrides, expected", [
    ("run", ["fading=constant(1e308)"], "node 0 overflowed at initialization: pilot sum inf"),
    ("verify", ["fading=constant(1e308)"], "node 0 overflowed at step 1: pilot sum inf"),
    ("verify", ["fading=constant(1e-300)", "self_weight=0"],
     "node 0 is isolated at step 1: pilot sum 6e-300"),
], ids=["run", "verify", "verify-isolated"])
def test_overflowing_pilot_sum_exits_three(command, overrides, expected, tmp_path, capsys):
    # an overflowed pilot sum is named, not left to zero every transmitted
    # value and surface as a nonpositive denominator a step later; the
    # matrix oracle names the step as the kernel does
    argv = [command, str(CONFIG_DIR / "tic10.cfg"), "-o", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert expected in err
    assert "Warning" not in err


@pytest.mark.parametrize("keys, step", [
    ("seed = 421\n", 5),
    # block 9, read at step 10 of the same chunk, overflows a gain too
    ("seed = 1290\npair_scales = 3-4:9.5e307\n", 3),
], ids=["state", "state-before-gain"])
def test_state_overflowing_mid_chunk_exits_three_without_a_warning(keys, step, tmp_path, capsys):
    # starts with a finite sum whose mixing overflows a node's state: the
    # pass steps the broken state on to its chunk's fold without a numpy
    # warning (filterwarnings = error raises one), then names the step it
    # broke at, ahead of the later gain's config error
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = 5\ntopology = ring\nalgorithm = tvc\nfading = uniform(0.1, 2.0)\n"
                   "initial = explicit(0.9e308, -1.7e308, 0.9e308, -0.05e308, 0.0)\nself_weight = 0.05\n"
                   f"tol = 1e-300\nmax_iters = 60\n{keys}")
    assert main(["run", str(cfg), "-o", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"runtime error: non-finite state at step {step}, node 0\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("initial, expected", [
    ("explicit(1e308, -1e308, 5, 6, 7, 8, 9, 10, 11, 12)",
     "scale_equivariance start: initial value at node 0 is inf"),
    ("explicit(4e307, 4e307, 5, 6, 7, 8, 9, 10, 11, 12)", "scale_equivariance start: initial values sum to inf"),
], ids=["value", "sum"])
def test_verify_refuses_overflowing_scaled_start(initial, expected, tmp_path, capsys, monkeypatch):
    # verify makes the scaled start itself, so it names the check that
    # overflows, before any pass steps and without a numpy warning
    monkeypatch.setattr(cli, "_drive", None)  # a pass that started would fail here
    argv = ["verify", str(CONFIG_DIR / "algorithm_sweep.cfg"), "-o", str(tmp_path / "o"),
            "--set", f"initial={initial}"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {expected}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("overrides, expected", [
    (["fading=half_normal(1e308)"], "gain of pair (0,1) in block 0 is inf: fading overflows"),
    (["fading=half_normal(1e300)", "pair_scales=0-2:1e308"],
     "gain of pair (0,2) in block 0 is inf: fading times pair_scales overflows"),
], ids=["fading", "pair_scales"])
def test_overflowing_gain_names_its_keys(overrides, expected, tmp_path, capsys):
    # a gain that overflows is a config fault naming the block, the pair and
    # the keys that set it, with no numpy warning ahead of it
    argv = ["run", str(CONFIG_DIR / "tic10.cfg"), "-o", str(tmp_path / "o")]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {expected}\n"


def test_verify_leads_a_regime_fault_with_its_regime(tmp_path, capsys):
    # verify steps the config as tvc without deep fade, so a fault of its
    # tic regime is not one the user's deep-fade run has: run converges,
    # and verify's message says which regime raised it, with its exit code
    overrides = ["--set", "deep_fade=true", "--set", "epsilon=0.5", "--set", "self_weight=0",
                 "--set", "fading=half_normal(1e-13)"]
    assert main(["run", str(CONFIG_DIR / "tvc10.cfg"), "-o", str(tmp_path / "run"), *overrides]) == 0
    assert capsys.readouterr().out.startswith("tvc: converged=true ")
    assert main(["verify", str(CONFIG_DIR / "tvc10.cfg"), "-o", str(tmp_path / "verify"), *overrides]) == 3
    assert capsys.readouterr().err == (
        "runtime error: tic regime (config run as tvc without deep fade): "
        "node 0 is isolated at step 1: pilot sum 6.231121086673822e-13 <= 1e-12\n")


@pytest.mark.parametrize("keys, code, expected", [
    # block 91, row 27 of the oracle's second epoch, isolates node 1
    ("n = 4\ntopology = ring\nfading = half_normal(1.1e-11)\ninitial = explicit(1, 2, 3, 4)\nseed = 0\n", 3,
     "runtime error: tvc regime (config run as tvc without deep fade): "
     "node 1 is isolated at step 92: pilot sum 8.521022996973203e-13 <= 1e-12"),
    # block 99, the last block the oracle reads
    ("n = 4\ntopology = ring\nfading = half_normal(1.1e-11)\ninitial = explicit(1, 2, 3, 4)\nseed = 12\n", 3,
     "runtime error: tvc regime (config run as tvc without deep fade): "
     "node 2 is isolated at step 100: pilot sum 5.405490438090442e-13 <= 1e-12"),
    # block 117, in the oracle's second epoch but past its last block: the pass names it
    ("n = 4\ntopology = ring\nfading = half_normal(1.1e-11)\ninitial = explicit(1, 2, 3, 4)\nseed = 17\n", 3,
     "runtime error: tvc regime (config run as tvc without deep fade): "
     "node 3 is isolated at step 118: pilot sum 3.8481754089780816e-13 <= 1e-12"),
    # block 12's one gain overflows: the config error naming it, not its sum
    ("n = 2\ntopology = complete\nfading = half_normal(1e308)\ninitial = explicit(1, 2)\nseed = 0\n", 2,
     "config error: tvc regime (config run as tvc without deep fade): "
     "gain of pair (0,1) in block 12 is inf: fading overflows"),
], ids=["isolation-mid-epoch", "isolation-in-the-last-block-read", "isolation-past-the-oracle", "overflow-mid-epoch"])
def test_verify_names_a_tvc_block_fault_mid_epoch(keys, code, expected, tmp_path, capsys):
    # the tvc oracle normalizes an epoch at a time; a block after the first
    # of its epoch that cannot be normalized is named as it was read one
    # block at a time, by its step or, for an overflowing gain, its block,
    # with the fault's exit code and no verify.json
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"algorithm = tvc\nself_weight = 0\n{keys}")
    assert main(["verify", str(cfg), "-o", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == f"{expected}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("edges, keys, argv, code, expected", [
    # one block holds both faults: node 2 is isolated and the (0,1) gain
    # overflows; the gain is named first, as a config fault
    ("0 1\n", "n = 3\nalgorithm = tvc\nfading = half_normal(1e300)\ninitial = explicit(1, 2, 3)\n"
     "pair_scales = 0-1:1e10\n", ["run"], 2,
     "config error: gain of pair (0,1) in block 0 is inf: fading times pair_scales overflows"),
    # node 0's two finite gains overflow its pilot sum and node 2 has no
    # link: the oracle names the isolated node first, as the kernel does,
    # led by the regime whose oracle it is
    ("0 1\n0 3\n", "n = 4\nalgorithm = tic\nfading = constant(1e308)\ninitial = explicit(1, 2, 3, 4)\n",
     ["verify"], 3, "runtime error: tic regime (config run as tvc without deep fade): "
     "node 2 is isolated at step 1: pilot sum 0.0 <= 1e-12"),
    ("0 1\n0 3\n", "n = 4\nalgorithm = tic\nfading = constant(1e308)\ninitial = explicit(1, 2, 3, 4)\n",
     ["run", "--set", "algorithm=tvc"], 3, "runtime error: node 2 is isolated at step 1: pilot sum 0.0 <= 1e-12"),
], ids=["overflow-before-isolation", "verify-isolation-before-overflow", "run-isolation-before-overflow"])
def test_one_block_names_one_fault_on_every_route(edges, keys, argv, code, expected, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the edge list is read from the working directory
    (tmp_path / "g.edges").write_text(edges)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"topology = edge_list(g.edges)\n{keys}seed = 0\nself_weight = 0\nmax_iters = 5\n")
    assert main([argv[0], str(cfg), "-o", str(tmp_path / "o"), *argv[1:]]) == code
    assert capsys.readouterr().err == f"{expected}\n"


# one config per benchmark workload kind
BENCHMARK_KINDS = [("run", "tic10.cfg"), ("sweep", "self_weight_sweep.cfg"), ("verify", "tvc10.cfg")]


@pytest.mark.parametrize("command, config", BENCHMARK_KINDS)
def test_benchmark_tracer_still_hooks_in(command, config, tmp_path, monkeypatch):
    # the benchmark's per-layer tracer reads realization(k).gains and
    # len(run(cfg)[0]); a changed return type would fail only traced runs
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        assert main([command, str(CONFIG_DIR / config), "-o", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    # a renamed target would silently zero its layer's numbers
    assert sorted(tracer.absent) == [
        "channel.effective_graph", "channel.sample_noise", "protocol.baseline_step",
        "protocol.ota_aggregate", "protocol.ratio_output", "protocol.tic_initialize",
        "protocol.tic_step", "protocol.tvc_initialize", "protocol.tvc_step", "simulator.spread",
        "topology.joint_graph",
    ]
    assert tracer.counts["channel.links_drawn"] > 0
    # run records a trajectory; sweep steps its seed groups without one
    assert (tracer.counts["simulator.records"] > 0) == (command == "run")


@pytest.mark.parametrize("kind, config", BENCHMARK_KINDS)
def test_benchmark_setup_probe_runs(kind, config, tmp_path):
    # the benchmark times set-up in a fresh process through parse_config or
    # parse_sweep, whose return shapes it relies on
    root = Path(__file__).resolve().parents[1]
    child = root / "perfbench" / "child.py"
    proc = subprocess.run(
        [sys.executable, str(child), "setup", str(root), str(CONFIG_DIR / config), kind],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["setup_s"] > 0


def cli_subprocess(args, cwd=None, **env):
    """The CLI run in a fresh interpreter of this package under os.environ
    updated by env: its exit code, stdout and stderr as bytes."""
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "otaconsensus.cli", *args], cwd=cwd, env=env, capture_output=True,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def written_files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_verify_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at n = 200 a LAPACK stationary solve over threaded OpenBLAS rounded
    # differently under one and two threads; verify.json must not, and no
    # more must a noisy n = 200 run's files or a sweep's
    for i, args in enumerate([
        ["verify", str(CONFIG_DIR / "tvc10.cfg"), "--set", "n=200"],
        ["run", str(CONFIG_DIR / "tvc10.cfg"), "--set", "n=200", "--set", "max_iters=60",
         "--set", "noise_std=1e-6"],
        ["sweep", str(CONFIG_DIR / "noise_sweep.cfg"), "--set", "n=200", "--set", "max_iters=60"],
    ]):
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"{i}-{threads}"
            code, stdout, stderr = cli_subprocess([*args, "-o", str(out)], OPENBLAS_NUM_THREADS=threads)
            assert code == 0, stderr
            written.append((stdout, written_files(out)))
        assert written[0] == written[1], args[0]


def test_config_and_edge_list_are_read_as_utf8_whatever_the_locale(tmp_path):
    # under the C locale without UTF-8 mode the preferred encoding is ASCII;
    # a UTF-8 config and edge list with non-ASCII comments still run, and
    # write what they write under C.UTF-8
    (tmp_path / "square.edges").write_text("# carré\n0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    (tmp_path / "c.cfg").write_text(
        "# café\n" + MINIMAL.replace("n = 10", "n = 4").replace("erdos_renyi(0.5)", "edge_list(square.edges)"),
        encoding="utf-8")
    outcomes = []
    for locale in ("C", "C.UTF-8"):
        code, stdout, stderr = cli_subprocess(["run", "c.cfg", "-o", locale], cwd=tmp_path, LC_ALL=locale,
                                              PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        assert code == 0, stderr
        outcomes.append((stdout, stderr, written_files(tmp_path / locale)))
    assert outcomes[0] == outcomes[1]


def test_non_ascii_argv_path_is_written_back_as_typed_whatever_the_locale(tmp_path):
    # under the C locale without UTF-8 mode an argv path arrives
    # surrogate-escaped; summary.json echoes it as the bytes typed, as
    # under C.UTF-8
    (tmp_path / "carré.edges").write_text("0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    (tmp_path / "a.cfg").write_text(MINIMAL)
    outcomes = []
    for locale in ("C", "C.UTF-8"):
        code, stdout, stderr = cli_subprocess(
            ["run", "a.cfg", "-o", locale, "--set", "n=4", "--set", "topology=edge_list(carré.edges)"],
            cwd=tmp_path, LC_ALL=locale, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        assert code == 0, stderr
        outcomes.append((stdout, stderr, written_files(tmp_path / locale)))
    assert outcomes[0] == outcomes[1]
    assert '"topology": "edge_list(carré.edges)"' in outcomes[0][2]["summary.json"].decode("utf-8")


def test_edge_list_path_the_filesystem_cannot_encode_is_named(tmp_path):
    # a config file's non-ASCII path has no bytes under an ASCII filesystem
    # encoding: refused as an unreadable edge list, nothing written
    (tmp_path / "a.cfg").write_text(MINIMAL.replace("n = 10", "n = 4").replace(
        "erdos_renyi(0.5)", "edge_list(carré.edges)"), encoding="utf-8")
    code, stdout, stderr = cli_subprocess(["run", "a.cfg", "-o", "out"], cwd=tmp_path, LC_ALL="C",
                                          PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    assert (code, stdout) == (2, b"")
    assert stderr == (b"config error: cannot read edge list carr\\xe9.edges: 'ascii' codec can't encode "
                      b"character '\\xe9' in position 4: ordinal not in range(128)\n")
    assert not (tmp_path / "out").exists()


def test_verify_suite_negative_controls(minimal_cfg):
    checks = run_verify_suite(parse_config(str(minimal_cfg), ["n=6"]))
    by_name = {c.check_name: c for c in checks}
    assert by_name["primitivity_bipartite_expected_fail"].passed
    neg = by_name["non_reciprocal_breaks_stochasticity"]
    assert neg.passed and neg.measured_error > neg.threshold


def test_sweep_bipartite_self_weight(tmp_path, capsys):
    p = tmp_path / "s.cfg"
    p.write_text(
        "n = 2\ntopology = ring\nalgorithm = tic\nfading = constant(1.0)\n"
        "initial = explicit(0.0, 2.0)\nseed = 0\nmax_iters = 300\n"
        "[sweep]\nparameter = self_weight\nvalues = 0.0, 1.0\n"
    )
    out = tmp_path / "o"
    assert main(["sweep", str(p), "-o", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "parameter,value,seed,converged,iterations_used,final_max_error"
    assert rows[1].startswith("self_weight,0.0,0,false")
    assert rows[2].startswith("self_weight,1.0,0,true")


def test_sweep_over_seeds_all_converge(minimal_cfg, tmp_path):
    p = tmp_path / "s.cfg"
    p.write_text(MINIMAL + "[sweep]\nparameter = seed\nvalues = 1, 2, 3, 4\n")
    out = tmp_path / "o"
    assert main(["sweep", str(p), "-o", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    assert all(",true," in r for r in rows)
    # seed column mirrors the swept value
    assert [r.split(",")[2] for r in rows] == ["1", "2", "3", "4"]


@pytest.mark.parametrize("sweep_block, row", [
    ("", "noise_std = 0.0, seed 0"),
    ("[sweep]\nparameter = seed\nvalues = 42, 0\n", "seed 0"),
])
def test_sweep_fault_names_its_row(sweep_block, row, tmp_path, capsys):
    # (0,1) is a link at seed 42, which run reads, but not at seed 0: the
    # refusal names the row it comes from, after the rows before it ran
    config = tmp_path / "s.cfg"
    text = (CONFIG_DIR / "noise_sweep.cfg").read_text()
    config.write_text(text.split("[sweep]")[0] + sweep_block if sweep_block else text)
    argv = [str(config), "-o", str(tmp_path / "o"), "--set", "pair_scales=0-1:2", "--set", "max_iters=20"]
    assert main(["run"] + argv) == 0
    capsys.readouterr()
    assert main(["sweep"] + argv) == 2
    assert capsys.readouterr().err == f"config error: {row}: pair (0,1) is not a valid link\n"
    assert not (tmp_path / "o" / "sweep.csv").exists()


def test_every_pass_sets_its_members_up_through_prepare(monkeypatch, tmp_path, capsys):
    # prepare sets up every member a pass steps: once for run and verify,
    # once per row of a sweep (3 values x 4 seeds)
    from otaconsensus import simulator

    calls, prepare = [], simulator.prepare

    def counted(cfg, held=None):
        calls.append(cfg.seed)
        return prepare(cfg, held)

    monkeypatch.setattr(simulator, "prepare", counted)
    monkeypatch.setattr(cli, "prepare", counted)
    sweep = tmp_path / "s.cfg"
    sweep.write_text((CONFIG_DIR / "tic10.cfg").read_text().replace("erdos_renyi(0.5)", "ring")
                     + "[sweep]\nparameter = algorithm\nvalues = tic, tvc, baseline\nseeds = 0, 1, 2, 3\n")
    for command, config, made in (("run", CONFIG_DIR / "tic10.cfg", [42]), ("sweep", sweep, [0, 1, 2, 3] * 3),
                                  ("verify", CONFIG_DIR / "tvc10.cfg", [42])):
        calls.clear()
        assert main([command, str(config), "-o", str(tmp_path / command)]) == 0
        assert calls == made, command
    capsys.readouterr()


def test_a_healthy_verify_steps_one_pass_per_regime(monkeypatch, tmp_path, capsys):
    # verify's members are calls that count nothing: a pass that raised and
    # was replayed a member at a time would write the same bytes, slower.
    # A healthy suite steps tic's one member, then tvc's three, once each.
    # tic's noiseless pass reaches its fixed point and computes fewer than
    # its 1000 steps; tvc's computes every one
    from otaconsensus import simulator

    passes, kernel, step = [], simulator._kernel, simulator.ota_step

    def counted(algorithm, members, **rule):
        passes.append([algorithm, len(members), 0])
        return kernel(algorithm, members, **rule)

    def stepped(*args):
        passes[-1][2] += 1
        return step(*args)

    monkeypatch.setattr(simulator, "_kernel", counted)
    monkeypatch.setattr(simulator, "ota_step", stepped)
    assert main(["verify", str(CONFIG_DIR / "tvc10.cfg"), "-o", str(tmp_path)]) == 0
    (tic, members, steps), tvc = passes
    assert (tic, members, tvc) == ("tic", 1, ["tvc", 3, 1000]) and steps < 1000
    capsys.readouterr()


def edge_list_sweep(tmp_path, edges, values="tic, tvc, baseline", parameter="algorithm"):
    """A 6-node sweep over the edge list edges ('i j' lines) at four seeds."""
    (tmp_path / "g.edges").write_text(edges)
    sweep = tmp_path / "s.cfg"
    sweep.write_text(f"n = 6\ntopology = edge_list({tmp_path / 'g.edges'})\nalgorithm = tvc\n"
                     "fading = half_normal(1.0)\ninitial = random_mean(1.0, 1.0)\nseed = 0\nmax_iters = 50\n"
                     f"[sweep]\nparameter = {parameter}\nvalues = {values}\nseeds = 0, 1, 2, 3\n")
    return sweep


def test_a_sweep_reads_its_edge_list_once_per_invocation(monkeypatch, tmp_path, capsys):
    # the 12 members of three passes share one graph; a later invocation
    # in the same process reads the file again and writes what a sweep of
    # its new content alone writes
    from otaconsensus import topology

    parses, parse = [], topology._parse_edge_list
    monkeypatch.setattr(topology, "_parse_edge_list", lambda path, n: parses.append(n) or parse(path, n))
    sweep = edge_list_sweep(tmp_path, "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
    assert main(["sweep", str(sweep), "-o", str(tmp_path / "ring")]) == 0
    assert parses == [6]
    (tmp_path / "g.edges").write_text("0 1\n0 2\n0 3\n0 4\n0 5\n1 2\n")
    assert main(["sweep", str(sweep), "-o", str(tmp_path / "star")]) == 0
    assert parses == [6, 6]
    (tmp_path / "fresh").mkdir()
    fresh = edge_list_sweep(tmp_path / "fresh", "0 1\n0 2\n0 3\n0 4\n0 5\n1 2\n")
    assert main(["sweep", str(fresh), "-o", str(tmp_path / "fresh")]) == 0
    ring, star = ((tmp_path / d / "sweep.csv").read_text() for d in ("ring", "star"))
    assert star == (tmp_path / "fresh" / "sweep.csv").read_text() and star != ring
    capsys.readouterr()


def test_an_n_sweep_holds_one_graph_at_a_time(monkeypatch, tmp_path, capsys):
    # each pass on a new n builds its graph after the last one is let go,
    # and none outlives the call
    from otaconsensus import simulator

    built, held, generate = [], [], simulator.generate_topology

    def counted(spec, n, seed):
        held.append((n, sum(ref() is not None for ref in built)))
        g = generate(spec, n, seed)
        built.append(weakref.ref(g))
        return g

    monkeypatch.setattr(simulator, "generate_topology", counted)
    sweep = tmp_path / "s.cfg"
    sweep.write_text((CONFIG_DIR / "tic10.cfg").read_text().replace("erdos_renyi(0.5)", "ring")
                     + "[sweep]\nparameter = n\nvalues = 10, 12, 10\nseeds = 0, 1\n")
    assert main(["sweep", str(sweep), "-o", str(tmp_path / "o")]) == 0
    assert held == [(10, 0), (12, 0), (10, 0)] and all(ref() is None for ref in built)
    capsys.readouterr()


def test_a_shared_graph_is_refused_at_its_rows_pass(monkeypatch, tmp_path, capsys):
    # a loadable but disconnected edge list: the tvc rows run on it, then
    # the first tic row is refused, naming its row, and no sweep.csv is
    # written; a pair_scales pair that is not a link of the shared graph
    # is refused at the first row, before any row runs
    calls, run_group = [], cli.run_group
    monkeypatch.setattr(cli, "run_group", lambda configs, done: calls.append(done) or run_group(configs, done))
    sweep = edge_list_sweep(tmp_path, "0 1\n1 2\n3 4\n4 5\n", values="tvc, tic, baseline")
    assert main(["sweep", str(sweep), "-o", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: algorithm = tic, seed 0: tic requires a strongly connected topology\n"
    assert [s.iterations_used for s in calls[0]] == [50] * 4 and not (tmp_path / "o" / "sweep.csv").exists()
    sweep = edge_list_sweep(tmp_path, "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n", values="0.0, 1e-6", parameter="noise_std")
    assert main(["sweep", str(sweep), "-o", str(tmp_path / "o"), "--set", "pair_scales=0-3:2"]) == 2
    assert capsys.readouterr().err == "config error: noise_std = 0.0, seed 0: pair (0,3) is not a valid link\n"
    assert calls[1] == [] and not (tmp_path / "o" / "sweep.csv").exists()


def test_sweep_fault_is_the_earliest_rows(tmp_path, capsys):
    # seed 6 overflows its pilot sum first in step order, but seed 1 comes
    # first in row order, and row order is what a sweep reports
    p = tmp_path / "s.cfg"
    p.write_text(
        "n = 3\ntopology = complete\nalgorithm = tvc\nfading = half_normal(5e307)\n"
        "initial = explicit(0, 1, 2)\nseed = 0\ntol = 1e-300\nmax_iters = 300\n"
        "[sweep]\nparameter = noise_std\nvalues = 0.0\nseeds = 1, 6\n"
    )
    alone = {}
    for seed in (1, 6):
        with pytest.raises(NonFiniteStateError) as exc:
            run(parse_config(str(p), [f"seed={seed}"]))
        alone[seed] = str(exc.value)
    assert alone == {1: "node 0 overflowed at step 16: pilot sum inf is not finite",
                     6: "node 1 overflowed at step 10: pilot sum inf is not finite"}
    assert main(["sweep", str(p), "-o", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "runtime error: noise_std = 0.0, seed 1: node 0 overflowed at step 16: pilot sum inf is not finite\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config, sweep_block, overrides, stdout, csv_sha256", [
    ("self_weight_sweep.cfg", "", [], "sweep over self_weight: 6 runs, 3 converged\n",
     "eb251d28f3c003ee5b4adb5b67aa6c32fb6db043a8ff28db0942783756a93371"),
    ("noise_sweep.cfg", "", ["max_iters=50"], "sweep over noise_std: 12 runs, 5 converged\n",
     "81961bc0500b000b7c0d6dccc7ecc35f70577528c175171827ce9d8197f954c1"),
    ("tic10.cfg", "parameter = topology\nvalues = ring, complete\n", [],
     "sweep over topology: 2 runs, 2 converged\n",
     "a8f9d016f6a072c6b76ff9845572c492fcf2b49e34d95c80e7c7d1edd3aa0897"),
    ("tic10.cfg", "parameter = seed\nvalues = 3, 5\n", ["seed=11"],
     "sweep over seed: 2 runs, 2 converged\n",
     "7db8b398c06cfb4f637c42f8386ce7e19af16f9b17cccb4ab52d5fde615a6549"),
    ("algorithm_sweep.cfg", "", [], "sweep over algorithm: 20 runs, 20 converged\n",
     "e18a5a99453c512e373e2626b054fd7b443e7e7f2df9362b18aec5a54050a410"),
])
def test_sweep_output_pinned(config, sweep_block, overrides, stdout, csv_sha256, tmp_path, capsys):
    path = CONFIG_DIR / config
    if sweep_block:
        path = tmp_path / "s.cfg"
        path.write_text((CONFIG_DIR / config).read_text() + "[sweep]\n" + sweep_block)
    argv = ["sweep", str(path), "-o", str(tmp_path / "o")]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout
    assert hashlib.sha256((tmp_path / "o" / "sweep.csv").read_bytes()).hexdigest() == csv_sha256


@pytest.mark.parametrize("command, config, sha256s", [
    ("run", "tic10.cfg", {
        "summary.json": "0ea8e44f09a5a7d43e3021989c1a3a87166697e5c2bf2ea07f7f6a88fc9a83e9",
        "trajectory.csv": "2843654feefd1b2815898a0ce3a729ec0f547ae960567627d3de71a6d4d21bfc"}),
    ("run", "tvc10.cfg", {
        "summary.json": "02bd0f65d06cbf59547b39b4e0a5ebcd8790c9a947a78c46e6643569fd5efead",
        "trajectory.csv": "9801fadeabc80fd7b132a25d89b69bfb5b00f03568611f64f2ed426f9440fd93"}),
    ("verify", "algorithm_sweep.cfg",
     {"verify.json": "280649b76f5c4e0ce3ef6066e2b27746699b35aad78cb0c8b8db7b6ce61cbde9"}),
    ("verify", "noise_sweep.cfg",
     {"verify.json": "b4162ada052ef381e78cb43a85dfd6bc63f085f9ad2b31ccfd935f8cd42c8c35"}),
    ("verify", "self_weight_sweep.cfg",
     {"verify.json": "ad9605dfe47aaaa903e904c745e98267163dc83274c47947d81b507d39d43730"}),
    ("verify", "tic10.cfg",
     {"verify.json": "b4162ada052ef381e78cb43a85dfd6bc63f085f9ad2b31ccfd935f8cd42c8c35"}),
    ("verify", "tvc10.cfg",
     {"verify.json": "b4162ada052ef381e78cb43a85dfd6bc63f085f9ad2b31ccfd935f8cd42c8c35"}),
])
def test_run_and_verify_outputs_pinned(command, config, sha256s, tmp_path):
    # every file run and verify write, to the byte, as the shipped configs give them
    out = tmp_path / "o"
    assert main([command, str(CONFIG_DIR / config), "-o", str(out)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == sha256s


@pytest.mark.parametrize("overrides, satisfied, sha256s", [
    (["epsilon=0.9"], False, {
        "summary.json": "d14710c3e57af177f792997b6d21daa1499f574f75e47d59d3e4aada72c9d1c9",
        "trajectory.csv": "9801fadeabc80fd7b132a25d89b69bfb5b00f03568611f64f2ed426f9440fd93"}),
    (["B=3", "epsilon=0.5"], True, {
        "summary.json": "abba5a0ef663011cdcf79809663f169f71a94fb3f8e8a3437fadfa1d67d78c78",
        "trajectory.csv": "9801fadeabc80fd7b132a25d89b69bfb5b00f03568611f64f2ed426f9440fd93"}),
], ids=["unsatisfied", "satisfied"])
def test_run_pins_both_epsilon_B_verdicts(overrides, satisfied, sha256s, tmp_path):
    # both verdicts of the tvc audit, to the byte, through the CLI
    out = tmp_path / "o"
    argv = ["run", str(CONFIG_DIR / "tvc10.cfg"), "-o", str(out)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 0
    assert json.loads((out / "summary.json").read_text())["epsilon_B_satisfied"] is satisfied
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == sha256s


@pytest.mark.parametrize("overrides, prefix", [
    (["algorithm=tvc", "deep_fade=true"], "algorithm = tic: "),
    (["deep_fade=true"], ""),
], ids=["row", "base"])
def test_sweep_names_the_row_of_a_config_fault(overrides, prefix, tmp_path, capsys):
    # a row's config fault leads with its row, as a run-time fault does; a
    # fault of the base config itself has no row
    argv = ["sweep", str(CONFIG_DIR / "algorithm_sweep.cfg"), "-o", str(tmp_path / "o")]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: {prefix}deep_fade is a time-varying channel feature; use algorithm=tvc\n")
    assert not (tmp_path / "o").exists()

@pytest.mark.parametrize("command", ["run", "sweep", "verify", "topo"])
def test_every_subcommand_has_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    assert "--set KEY=VALUE" in capsys.readouterr().out


def test_out_default(minimal_cfg, tmp_path, monkeypatch, capsys):
    # every subcommand shares one -o: unset it is None, which topo takes as
    # "write nothing" and run, sweep and verify as the working directory
    assert build_parser().parse_args(["topo", "c.cfg"]).out is None
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["topo", str(minimal_cfg)]) == 0
    assert list(work.iterdir()) == []
    assert main(["run", str(minimal_cfg)]) == 0
    assert sorted(p.name for p in work.iterdir()) == ["summary.json", "trajectory.csv"]


def test_topo_inspection_and_export(minimal_cfg, tmp_path, capsys):
    out = tmp_path / "t"
    assert main(["topo", str(minimal_cfg), "-o", str(out)]) == 0
    line = capsys.readouterr().out
    assert "strongly_connected=true" in line and "symmetric=true" in line
    edges_file = out / "topology.edges"
    assert edges_file.exists()
    # the export round-trips through the edge_list loader
    p2 = tmp_path / "c2.cfg"
    p2.write_text(
        MINIMAL.replace("erdos_renyi(0.5)", f"edge_list({edges_file})")
        + "topology_symmetric = false\n"
    )
    from otaconsensus.simulator import prepare

    g_orig = prepare(parse_config(str(minimal_cfg)))[0]
    g_round = prepare(parse_config(str(p2)))[0]
    assert g_orig.edges == g_round.edges


def test_topo_output_pinned_for_asymmetric_edge_list(tmp_path, capsys):
    # file order is not export order; one line repeats, one link is two-way
    edges = tmp_path / "g.edges"
    edges.write_text("3 1\n0 3\n2 0\n1 2\n0 1\n2 1\n0 3\n")
    p = tmp_path / "c.cfg"
    p.write_text(
        MINIMAL.replace("n = 10", "n = 4").replace("erdos_renyi(0.5)", f"edge_list({edges})")
        + "topology_symmetric = false\n"
    )
    out = tmp_path / "t"
    assert main(["topo", str(p), "-o", str(out)]) == 0
    assert capsys.readouterr().out == "n=4 edges=6 symmetric=false strongly_connected=true\n"
    assert (out / "topology.edges").read_bytes() == (
        b"# i j  (directed edges; load with topology_symmetric=false)\n"
        b"0 1\n0 3\n1 2\n2 0\n2 1\n3 1\n"
    )


def test_module_entry_point(minimal_cfg, tmp_path):
    out = tmp_path / "o"
    # the child imports the package from wherever this process found it
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run(
        [sys.executable, "-m", "otaconsensus.cli", "run", str(minimal_cfg), "-o", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0
    assert "converged=true" in res.stdout


#: Numbers at the edges of every key's type, and texts a parser must refuse.
BOUNDARY_NUMBERS = ("0", "-1", str(2**63 - 1), str(2**64 - 1), str(2**64), "1e308", "5e-324", "nan", "inf")
MALFORMED = ("", "ring(", "(", "constant(1, 2)", "half_normal(x)", "explicit()", "random_mean(1)", "edge_list()",
             "0-1:", "0-1:x", "true")


@st.composite
def boundary_overrides(draw):
    """A SCHEMA key and its value text: a boundary number or a malformed
    text, or, for a call key, one of its kinds called with boundary numbers,
    or for pair_scales a boundary scale."""
    key = draw(st.sampled_from(cli.KNOWN_KEYS))
    texts = [st.sampled_from(BOUNDARY_NUMBERS + MALFORMED)]
    kinds = {"topology": TOPOLOGY_ARGS, "fading": FADING_ARGS, "initial": INITIAL_ARGS}.get(key)
    if kinds:
        args = st.lists(st.sampled_from(BOUNDARY_NUMBERS + ("0.5",)), min_size=1, max_size=2).map(", ".join)
        texts.append(st.builds("{}({})".format, st.sampled_from(sorted(kinds)), args))
    if key == "pair_scales":
        texts.append(st.builds("0-1:{}".format, st.sampled_from(BOUNDARY_NUMBERS)))
    return key, draw(st.one_of(texts))


#: exit 3's documented faults: an isolated node, a degenerate or non-finite
#: state, topology exhaustion, or no memory for an array
RUNTIME_FAULT = re.compile(r"runtime error: (node \d+ (is isolated|overflowed|has nonpositive denominator) .*"
                           r"|non-finite state at step \d+, node \d+|no strongly connected sample .*"
                           r"|out of memory.*)\n")
#: a sweep names the row of a run's fault: "<parameter> = <value>, seed <s>: "
SWEEP_RUNTIME_FAULT = re.compile(RUNTIME_FAULT.pattern.replace(
    "runtime error: ", r"runtime error: (?:(?:\w+ = [^,\n]+, )?seed \d+: )?", 1))
#: verify names the regime of a fault its oracle or pass raises
VERIFY_RUNTIME_FAULT = re.compile(RUNTIME_FAULT.pattern.replace(
    "runtime error: ", r"runtime error: (?:t[iv]c regime \(config run as tvc without deep fade\): )?", 1))


@given(command=st.sampled_from(["run", "verify"]), config=st.sampled_from(["tic10.cfg", "tvc10.cfg"]),
       override=boundary_overrides())
@example(command="run", config="tic10.cfg", override=("initial", "random_mean(1e308, 0)"))
@example(command="run", config="tvc10.cfg", override=("max_iters", str(2**64 - 1)))
@settings(max_examples=200, deadline=None)
def test_boundary_override_exits_truthfully(command, config, override, tmp_path_factory):
    # any key set to a boundary value either runs and writes its outputs,
    # or is refused in one config error line, or hits a documented runtime
    # fault, writing nothing; a traceback or a numpy warning (an error
    # under this suite's filterwarnings) fails the test. Runs are short:
    # n = 10 and 60 steps, or a larger budget that tol cuts short. The
    # examples are a start whose sum overflows and a budget at the top of
    # uint64, both once faults
    out = tmp_path_factory.mktemp("boundary") / "out"
    assert_exits_truthfully([command, str(CONFIG_DIR / config), "-o", str(out),
                             "--set", "n=10", "--set", "max_iters=60", "--set", "=".join(override)], out)


#: the files each command writes when it exits 0 (or verify 1)
OUTPUTS = {"run": ["summary.json", "trajectory.csv"], "verify": ["verify.json"], "sweep": ["sweep.csv"]}


def assert_exits_truthfully(argv, out):
    """main(argv) writes its outputs to out and exits 0 (verify 1 too), or
    writes nothing and exits 2 with one config error line or 3 with a
    documented runtime fault, which a sweep may prefix with its row and
    verify with its regime."""
    command = argv[0]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    if code == 2:
        assert err.startswith("config error: ") and err.count("\n") == 1
    elif code == 3:
        fault = {"sweep": SWEEP_RUNTIME_FAULT, "verify": VERIFY_RUNTIME_FAULT}.get(command, RUNTIME_FAULT)
        assert fault.fullmatch(err), err
    else:
        assert (code == 0 or (code, command) == (1, "verify")) and err == "" and stdout.getvalue()
        assert sorted(p.name for p in out.iterdir()) == OUTPUTS[command]
        return
    assert stdout.getvalue() == "" and not out.exists()


#: each command with the configs its two-override calls run on
FUZZED_CALLS = [("run", "tic10.cfg"), ("run", "tvc10.cfg"), ("verify", "tic10.cfg"), ("verify", "tvc10.cfg"),
                ("sweep", "noise_sweep.cfg"), ("sweep", "self_weight_sweep.cfg"), ("sweep", "algorithm_sweep.cfg")]
#: budgets no run reaches in a test, kept only where tol stops every run: on
#: the configs that converge (noise_sweep's noise and self_weight_sweep's
#: swap never do), with no other key drawn than ones that cannot stop that
HUGE_BUDGETS = (str(2**63 - 1), str(2**64 - 1), str(2**64))
CONVERGING_CONFIGS = ("tic10.cfg", "tvc10.cfg", "algorithm_sweep.cfg")
INERT_KEYS = ("seed", "max_iters", "epsilon", "B", "deep_fade")


@given(call=st.sampled_from(FUZZED_CALLS), overrides=st.lists(boundary_overrides(), min_size=2, max_size=2))
@example(call=("sweep", "algorithm_sweep.cfg"), overrides=[("seed", "0"), ("max_iters", str(2**64 - 1))])
@example(call=("sweep", "algorithm_sweep.cfg"), overrides=[("noise_std", str(2**63 - 1)), ("epsilon", "1e308")])
@settings(max_examples=150, deadline=None)
def test_two_boundary_overrides_exit_truthfully(call, overrides, tmp_path_factory):
    # test_boundary_override_exits_truthfully's outcomes for two drawn
    # overrides per call, on sweep too: a sweep writes sweep.csv, or its
    # fault names the row. Runs are short: 60 steps, n = 10 for run and
    # verify, or a huge budget that tol cuts short. The examples are a
    # uint64 budget over a whole sweep and a runtime fault in its first row
    command, config = call
    budgets = [value for key, value in overrides if key == "max_iters"]
    if budgets and budgets[-1] in HUGE_BUDGETS:
        assume(config in CONVERGING_CONFIGS and all(key in INERT_KEYS for key, _ in overrides))
    out = tmp_path_factory.mktemp("boundary") / "out"
    argv = [command, str(CONFIG_DIR / config), "-o", str(out), "--set", "max_iters=60"]
    argv += [] if command == "sweep" else ["--set", "n=10"]
    for override in overrides:
        argv += ["--set", "=".join(override)]
    assert_exits_truthfully(argv, out)
