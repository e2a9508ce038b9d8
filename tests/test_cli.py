import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otaconsensus import cli
from otaconsensus.channel import ChannelProcess
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
from otaconsensus.floattext import float_fields
from otaconsensus.simulator import NonFiniteStateError, Trajectory, run, run_group

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
    config = str(CONFIG_DIR / "tic10.cfg")
    argv = ["run", config, "-o", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 0
    trajectory, _ = run(parse_config(config, overrides))
    steps, n = trajectory.mu.shape
    assert steps % max(1, cli.CHUNK_VALUES // (3 * n)) != 0
    assert (tmp_path / "trajectory.csv").read_bytes() == reference_trajectory_csv(trajectory).encode()


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
    assert capsys.readouterr().err == (
        "config error: override: explicit initial values must have a finite sum, got inf\n"
    )
    assert not out.exists()


def test_run_overflowing_random_mean_sum_exit_two(tmp_path, capsys):
    # the sample's range is finite but its sum is not: refused by name,
    # with no numpy warning and no output
    out = tmp_path / "o"
    argv = ["run", str(CONFIG_DIR / "tic10.cfg"), "-o", str(out),
            "--set", "initial=random_mean(1.5e308, 1e307)"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: random_mean initial values must have a finite sum, got inf\n"
    )
    assert not out.exists()


def test_run_malformed_edge_list_exit_two(tmp_path, capsys):
    edges = tmp_path / "bad.edges"
    edges.write_text("0 1\n1 2 3\n")
    p = tmp_path / "c.cfg"
    p.write_text(MINIMAL.replace("erdos_renyi(0.5)", f"edge_list({edges})"))
    code = main(["run", str(p), "-o", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


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


def test_verify_suite_realizes_each_block_once(monkeypatch):
    # 100 blocks shared by both oracles, the audits, the tic pass (which
    # holds block 0) and both equivariance passes, plus 1000 for the tvc pass
    calls = 0
    realization = ChannelProcess.realization

    def counted(self, k, **out):
        nonlocal calls
        calls += 1
        return realization(self, k, **out)

    monkeypatch.setattr(ChannelProcess, "realization", counted)
    run_verify_suite(parse_config(str(CONFIG_DIR / "tvc10.cfg")))
    assert calls == 100 + 1000


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
        "protocol.tic_step", "protocol.tvc_initialize", "protocol.tvc_step", "topology.joint_graph",
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


def test_sweep_fault_is_the_earliest_rows(tmp_path, capsys):
    # seed 3 overflows its pilot sum first in step order, but seed 1 comes
    # first in row order, and row order is what a sweep reports
    p = tmp_path / "s.cfg"
    p.write_text(
        "n = 3\ntopology = complete\nalgorithm = tvc\nfading = half_normal(5e307)\n"
        "initial = explicit(0, 1, 2)\nseed = 0\ntol = 1e-300\nmax_iters = 300\n"
        "[sweep]\nparameter = noise_std\nvalues = 0.0\nseeds = 1, 3\n"
    )
    alone = {}
    for seed in (1, 3):
        with pytest.raises(NonFiniteStateError) as exc:
            run(parse_config(str(p), [f"seed={seed}"]))
        alone[seed] = str(exc.value)
    assert alone == {1: "node 1 overflowed at step 82: pilot sum inf is not finite",
                     3: "node 1 overflowed at step 15: pilot sum inf is not finite"}
    assert main(["sweep", str(p), "-o", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "runtime error: noise_std = 0.0, seed 1: node 1 overflowed at step 82: pilot sum inf is not finite\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config, sweep_block, overrides, stdout, csv_sha256", [
    ("self_weight_sweep.cfg", "", [], "sweep over self_weight: 6 runs, 3 converged\n",
     "eb251d28f3c003ee5b4adb5b67aa6c32fb6db043a8ff28db0942783756a93371"),
    ("noise_sweep.cfg", "", ["max_iters=50"], "sweep over noise_std: 12 runs, 4 converged\n",
     "b4e678a83e247b718a51d788b8d1bb75a47db2dd76198c4588c32cf33dfb7937"),
    ("tic10.cfg", "parameter = topology\nvalues = ring, complete\n", [],
     "sweep over topology: 2 runs, 2 converged\n",
     "a8f9d016f6a072c6b76ff9845572c492fcf2b49e34d95c80e7c7d1edd3aa0897"),
    ("tic10.cfg", "parameter = seed\nvalues = 3, 5\n", ["seed=11"],
     "sweep over seed: 2 runs, 2 converged\n",
     "7db8b398c06cfb4f637c42f8386ce7e19af16f9b17cccb4ab52d5fde615a6549"),
    ("algorithm_sweep.cfg", "", [], "sweep over algorithm: 20 runs, 20 converged\n",
     "2e98eb3bf99ba641bb1d4bd80bfc84c8d97cbd7a0b6935dcf4418758e91aad6d"),
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
