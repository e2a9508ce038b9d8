"""Command-line front end: flat key=value configs, run/sweep/verify/topo
subcommands, CSV and JSON emission stable to the byte.

All real numbers are serialized with 17 significant digits, enough to round
trip any double exactly, so identical invocations produce identical files.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .analysis import (
    PeriodicityError,
    audit_column_stochastic,
    build_Hbar,
    mass_audit,
    matrix_oracle,
    stationary_limit,
)
from .channel import ChannelProcess, ChannelRealization, FadingModel, NoiseModel
from .protocol import DegenerateStateError, InitialStates, IsolationError
from .simulator import (
    InitialSpec,
    NonFiniteStateError,
    SimulationConfig,
    iterate,
    make_initial_values,
    run,
    stream_seeds,
)
from .topology import EdgeListError, TopologyError, TopologySpec, generate_topology, is_strongly_connected


class ConfigError(ValueError):
    """A config file or override that cannot be turned into a valid run."""


# ------------------------------------------------------------------ formatting

def fmt_float(x: float) -> str:
    """Shortest decimal that round-trips the double exactly."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x!r}")
    return format(x, ".17g")


def _json_escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def to_json(value, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_float(float(value))
    if isinstance(value, str):
        return _json_escape(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{_json_escape(str(k))}: {to_json(v, indent + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        items = [f"{inner}{to_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


# ------------------------------------------------------------------ config parsing

REQUIRED_KEYS = ("n", "topology", "algorithm", "fading", "initial", "seed")

KNOWN_KEYS = REQUIRED_KEYS + (
    "topology_symmetric",
    "self_weight",
    "noise_std",
    "epsilon",
    "B",
    "deep_fade",
    "max_iters",
    "tol",
    "tol_window",
    "pair_scales",
)

SWEEP_KEYS = ("parameter", "values", "seeds")


def _split_call(text: str, key: str, where: str):
    m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?", text.strip())
    if not m:
        raise ConfigError(f"{where}: key {key!r} has malformed value {text!r}")
    name = m.group(1)
    raw_args = m.group(2)
    if raw_args is None or raw_args.strip() == "":
        return name, []
    return name, [a.strip() for a in raw_args.split(",")]


def _as_int(text: str, key: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{where}: key {key!r} needs an integer, got {text!r}") from None


def _as_float(text: str, key: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{where}: key {key!r} needs a number, got {text!r}") from None


def _as_bool(text: str, key: str, where: str) -> bool:
    low = text.strip().lower()
    if low == "true":
        return True
    if low == "false":
        return False
    raise ConfigError(f"{where}: key {key!r} needs true or false, got {text!r}")


def _parse_topology(text: str, symmetric: bool, key: str, where: str) -> TopologySpec:
    name, args = _split_call(text, key, where)
    try:
        if name in ("ring", "complete"):
            if args:
                raise ConfigError(f"{where}: topology {name!r} takes no arguments")
            return TopologySpec(kind=name, symmetric=symmetric)
        if name == "erdos_renyi":
            if len(args) != 1:
                raise ConfigError(f"{where}: erdos_renyi takes exactly one argument (p)")
            return TopologySpec(kind="erdos_renyi", p=_as_float(args[0], key, where), symmetric=symmetric)
        if name == "edge_list":
            if len(args) != 1:
                raise ConfigError(f"{where}: edge_list takes exactly one argument (path)")
            return TopologySpec(kind="edge_list", path=args[0], symmetric=symmetric)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown topology {name!r}")


def _parse_fading(text: str, key: str, where: str) -> FadingModel:
    name, args = _split_call(text, key, where)
    try:
        if name == "constant":
            if len(args) != 1:
                raise ConfigError(f"{where}: constant takes exactly one argument (gain)")
            return FadingModel.constant(_as_float(args[0], key, where))
        if name == "half_normal":
            if len(args) != 1:
                raise ConfigError(f"{where}: half_normal takes exactly one argument (scale)")
            return FadingModel.half_normal(_as_float(args[0], key, where))
        if name == "uniform":
            if len(args) != 2:
                raise ConfigError(f"{where}: uniform takes exactly two arguments (lo, hi)")
            return FadingModel.uniform(_as_float(args[0], key, where), _as_float(args[1], key, where))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown fading model {name!r}")


def _parse_initial(text: str, key: str, where: str) -> InitialSpec:
    name, args = _split_call(text, key, where)
    try:
        if name == "explicit":
            if not args:
                raise ConfigError(f"{where}: explicit needs at least one value")
            return InitialSpec.explicit([_as_float(a, key, where) for a in args])
        if name == "random_mean":
            if len(args) != 2:
                raise ConfigError(f"{where}: random_mean takes exactly two arguments (target_mean, half_width)")
            return InitialSpec.random_mean(_as_float(args[0], key, where), _as_float(args[1], key, where))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown initial kind {name!r}")


def _parse_pair_scales(text: str, key: str, where: str):
    pairs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        m = re.fullmatch(r"(\d+)\s*-\s*(\d+)\s*:\s*(\S+)", token)
        if not m:
            raise ConfigError(f"{where}: pair_scales entry {token!r} must look like i-j:scale")
        pairs.append(((int(m.group(1)), int(m.group(2))), _as_float(m.group(3), key, where)))
    return tuple(pairs)


def _read_sections(path: str) -> dict[str, dict[str, tuple[str, str]]]:
    """Raw sections: section name -> key -> (value text, location label)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    sections: dict[str, dict[str, tuple[str, str]]] = {"": {}}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        m = re.fullmatch(r"\[([A-Za-z_]+)\]", line)
        if m:
            current = m.group(1)
            if current != "sweep":
                raise ConfigError(f"{where}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in sections[current]:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        sections[current][key] = (value, where)
    return sections


def _build_config(flat: dict[str, tuple[str, str]]) -> SimulationConfig:
    for key, (_, where) in flat.items():
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
    for key in REQUIRED_KEYS:
        if key not in flat:
            raise ConfigError(f"missing required config key {key!r}")

    def get(key):
        return flat[key]

    symmetric = True
    if "topology_symmetric" in flat:
        v, w = get("topology_symmetric")
        symmetric = _as_bool(v, "topology_symmetric", w)
    kwargs = {}
    v, w = get("n")
    kwargs["n"] = _as_int(v, "n", w)
    v, w = get("topology")
    kwargs["topology"] = _parse_topology(v, symmetric, "topology", w)
    v, w = get("algorithm")
    kwargs["algorithm"] = v
    v, w = get("fading")
    kwargs["fading"] = _parse_fading(v, "fading", w)
    v, w = get("initial")
    kwargs["initial"] = _parse_initial(v, "initial", w)
    v, w = get("seed")
    kwargs["seed"] = _as_int(v, "seed", w)
    if "self_weight" in flat:
        v, w = get("self_weight")
        kwargs["self_weight"] = _as_float(v, "self_weight", w)
    if "noise_std" in flat:
        v, w = get("noise_std")
        try:
            kwargs["noise"] = NoiseModel(std=_as_float(v, "noise_std", w))
        except ValueError as exc:
            raise ConfigError(f"{w}: {exc}") from exc
    if "epsilon" in flat:
        v, w = get("epsilon")
        kwargs["epsilon"] = _as_float(v, "epsilon", w)
    if "B" in flat:
        v, w = get("B")
        kwargs["B"] = _as_int(v, "B", w)
    if "deep_fade" in flat:
        v, w = get("deep_fade")
        kwargs["deep_fade"] = _as_bool(v, "deep_fade", w)
    if "max_iters" in flat:
        v, w = get("max_iters")
        kwargs["max_iters"] = _as_int(v, "max_iters", w)
    if "tol" in flat:
        v, w = get("tol")
        kwargs["tol"] = _as_float(v, "tol", w)
    if "tol_window" in flat:
        v, w = get("tol_window")
        kwargs["tol_window"] = _as_int(v, "tol_window", w)
    if "pair_scales" in flat:
        v, w = get("pair_scales")
        kwargs["pair_scales"] = _parse_pair_scales(v, "pair_scales", w)
    try:
        return SimulationConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _apply_overrides(flat: dict[str, tuple[str, str]], overrides) -> dict[str, tuple[str, str]]:
    merged = dict(flat)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, value = item.split("=", 1)
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"override: unknown key {key!r}")
        merged[key] = (value, "override")
    return merged


def parse_config(path: str, overrides=()) -> SimulationConfig:
    """Config file plus key=value overrides, defaults filled, fully validated."""
    sections = _read_sections(path)
    return _build_config(_apply_overrides(sections[""], overrides))


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple[str, ...]
    seeds: tuple[int, ...] | None


def parse_sweep(path: str, overrides=()) -> tuple[SimulationConfig, SweepSpec]:
    sections = _read_sections(path)
    config = _build_config(_apply_overrides(sections[""], overrides))
    sweep = sections.get("sweep")
    if sweep is None:
        raise ConfigError(f"{path}: sweep needs a [sweep] section")
    for key, (_, where) in sweep.items():
        if key not in SWEEP_KEYS:
            raise ConfigError(f"{where}: unknown sweep key {key!r}")
    if "parameter" not in sweep:
        raise ConfigError(f"{path}: [sweep] needs 'parameter'")
    if "values" not in sweep:
        raise ConfigError(f"{path}: [sweep] needs 'values'")
    parameter, pwhere = sweep["parameter"]
    if parameter not in KNOWN_KEYS:
        raise ConfigError(f"{pwhere}: cannot sweep unknown parameter {parameter!r}")
    raw_values, vwhere = sweep["values"]
    values = tuple(v.strip() for v in raw_values.split(",") if v.strip())
    if not values:
        raise ConfigError(f"{vwhere}: sweep needs at least one value")
    seeds = None
    if "seeds" in sweep:
        if parameter == "seed":
            raise ConfigError(f"{pwhere}: sweeping 'seed' directly; drop the 'seeds' list")
        raw_seeds, swhere = sweep["seeds"]
        seeds = tuple(_as_int(s.strip(), "seeds", swhere) for s in raw_seeds.split(",") if s.strip())
        if not seeds:
            raise ConfigError(f"{swhere}: empty seeds list")
    return config, SweepSpec(parameter=parameter, values=values, seeds=seeds)


def config_echo(cfg: SimulationConfig) -> dict:
    """Canonical flat rendering of a config, defaults included."""
    topo = cfg.topology
    if topo.kind == "erdos_renyi":
        topo_text = f"erdos_renyi({fmt_float(topo.p)})"
    elif topo.kind == "edge_list":
        topo_text = f"edge_list({topo.path})"
    else:
        topo_text = topo.kind
    fad = cfg.fading
    if fad.kind == "constant":
        fad_text = f"constant({fmt_float(fad.gain)})"
    elif fad.kind == "half_normal":
        fad_text = f"half_normal({fmt_float(fad.scale)})"
    else:
        fad_text = f"uniform({fmt_float(fad.lo)}, {fmt_float(fad.hi)})"
    ini = cfg.initial
    if ini.kind == "explicit":
        ini_text = "explicit(" + ", ".join(fmt_float(v) for v in ini.values) + ")"
    else:
        ini_text = f"random_mean({fmt_float(ini.target_mean)}, {fmt_float(ini.half_width)})"
    return {
        "n": cfg.n,
        "topology": topo_text,
        "topology_symmetric": topo.symmetric,
        "algorithm": cfg.algorithm,
        "fading": fad_text,
        "initial": ini_text,
        "self_weight": cfg.self_weight,
        "noise_std": cfg.noise.std,
        "epsilon": cfg.epsilon,
        "B": cfg.B,
        "deep_fade": cfg.deep_fade,
        "max_iters": cfg.max_iters,
        "tol": cfg.tol,
        "tol_window": cfg.tol_window,
        "seed": cfg.seed,
        "pair_scales": ",".join(f"{a}-{b}:{fmt_float(s)}" for (a, b), s in cfg.pair_scales),
    }


# ------------------------------------------------------------------ emitters

def write_trajectory_csv(path: Path, records) -> None:
    lines = ["step,node,y_tilde,x_tilde,mu"]
    for r in records:
        lines.append(
            f"{r.step},{r.node},{fmt_float(r.y_tilde)},{fmt_float(r.x_tilde)},{fmt_float(r.mu)}"
        )
    path.write_text("\n".join(lines) + "\n")


def write_summary_json(path: Path, summary, cfg: SimulationConfig) -> None:
    doc = {
        "converged": summary.converged,
        "iterations_used": summary.iterations_used,
        "target_average": summary.target_average,
        "final_max_error": summary.final_max_error,
        "mass_drift_y": summary.mass_drift_y,
        "mass_drift_x": summary.mass_drift_x,
        "epsilon_B_satisfied": summary.epsilon_B_satisfied,
        "config_echo": config_echo(cfg),
    }
    path.write_text(to_json(doc) + "\n")


# ------------------------------------------------------------------ verify suite

@dataclass(frozen=True)
class CheckResult:
    check_name: str
    passed: bool
    measured_error: float
    threshold: float


def _protocol_trajectories(S, channel, k_max, time_varying):
    """The simulator's stepping kernel, noiseless, in oracle array layout."""
    kernel = iterate("tvc" if time_varying else "tic", S, channel=channel)
    Y, X, MU = (np.array(a) for a in zip(*islice(kernel, k_max + 1)))
    return Y, X, MU


def run_verify_suite(cfg: SimulationConfig) -> list[CheckResult]:
    """Invariant checks derived from the config's topology, fading, and seeds.

    Positive checks pass when the measured error is at or below the
    threshold. The two negative controls invert that: they pass when the
    designed breakage actually shows up (measured error above threshold, or
    the expected error raised).
    """
    topo_seed, channel_seed, initial_seed, _ = stream_seeds(cfg.seed)
    g = generate_topology(cfg.topology, cfg.n, topo_seed)
    if not g.is_symmetric():
        raise ConfigError("verify needs a symmetric topology (reciprocity checks are its subject)")
    S = make_initial_values(cfg.initial, cfg.n, initial_seed)
    static = ChannelProcess(
        model=cfg.fading, topology=g, self_weight=cfg.self_weight,
        time_varying=False, seed=channel_seed, pair_scales=cfg.pair_scales,
    )
    varying = ChannelProcess(
        model=cfg.fading, topology=g, self_weight=cfg.self_weight,
        time_varying=True, seed=channel_seed, pair_scales=cfg.pair_scales,
    )
    checks: list[CheckResult] = []

    # protocol vs matrix oracle, both channel regimes
    k_eq = 100
    for name, proc, tv in (
        ("oracle_equivalence_tic", static, False),
        ("oracle_equivalence_tvc", varying, True),
    ):
        h_seq = [proc.realization(k) for k in range(k_eq)]
        Yo, Xo, MUo = matrix_oracle(h_seq, S, k_eq)
        Yp, Xp, MUp = _protocol_trajectories(S, proc, k_eq, tv)
        err = max(
            float(np.max(np.abs(Yo - Yp))),
            float(np.max(np.abs(Xo - Xp))),
            float(np.max(np.abs(MUo - MUp))),
        )
        checks.append(CheckResult(name, err <= 1e-10, err, 1e-10))

    # realized mixing matrices must be column stochastic every step
    worst = 0.0
    ok = True
    for k in range(50):
        audit = audit_column_stochastic(build_Hbar(varying.realization(k)))
        worst = max(worst, audit.max_column_sum_error)
        ok = ok and audit.is_column_stochastic
    checks.append(CheckResult("column_stochasticity", ok and worst <= 1e-12, worst, 1e-12))

    # conservation of both chain sums over long runs
    k_mass = 1000
    for name, proc, tv in (
        ("mass_conservation_tic", static, False),
        ("mass_conservation_tvc", varying, True),
    ):
        Y, X, _ = _protocol_trajectories(S, proc, k_mass, tv)
        drift_y, drift_x = mass_audit((Y, X), S)
        err = max(drift_y, drift_x)
        checks.append(CheckResult(name, err <= 1e-9, err, 1e-9))

    # ratio trajectories must commute with affine changes of the initial values
    k_aff = 100
    _, _, MU = _protocol_trajectories(S, varying, k_aff, True)
    for name, vals, expect in (
        ("scale_equivariance", InitialStates(3.7 * S.values), 3.7 * MU),
        ("shift_equivariance", InitialStates(S.values - 2.0), MU - 2.0),
    ):
        _, _, MUt = _protocol_trajectories(vals, varying, k_aff, True)
        err = float(np.max(np.abs(MUt - expect)))
        checks.append(CheckResult(name, err <= 1e-12, err, 1e-12))

    # the stationary eigenvector exists, is a fixed point, and certifies mean(S)
    hbar = build_Hbar(static.realization(0))
    est = stationary_limit(hbar, S)
    resid = float(np.max(np.abs(hbar @ est.eigenvector - est.eigenvector)))
    checks.append(CheckResult("stationary_limit_fixed_point", resid <= 1e-10, resid, 1e-10))

    # negative control: bipartite support without self terms has no limit;
    # passes iff the periodicity error is raised (measured 0 when it is)
    swap = ChannelRealization(2, np.array([[0.0, 1.0], [1.0, 0.0]]), 0.0)
    try:
        stationary_limit(build_Hbar(swap), InitialStates(np.array([0.0, 2.0])))
        raised = False
    except PeriodicityError:
        raised = True
    checks.append(
        CheckResult("primitivity_bipartite_expected_fail", raised, 0.0 if raised else 1.0, 0.5)
    )

    # negative control: breaking reciprocity must break column stochasticity;
    # passes iff the measured error EXCEEDS the threshold
    gains = varying.realization(0).gains.copy()
    i, j = next(iter(sorted(g.edges)))
    gains[i, j] *= 1.5
    broken = ChannelRealization(cfg.n, gains, cfg.self_weight)
    audit = audit_column_stochastic(build_Hbar(broken))
    checks.append(
        CheckResult(
            "non_reciprocal_breaks_stochasticity",
            audit.max_column_sum_error > 1e-6,
            audit.max_column_sum_error,
            1e-6,
        )
    )
    return checks


# ------------------------------------------------------------------ subcommands

def cmd_run(args) -> int:
    cfg = parse_config(args.config, args.set)
    records, summary = run(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / "trajectory.csv", records)
    write_summary_json(out / "summary.json", summary, cfg)
    print(
        f"{cfg.algorithm}: converged={str(summary.converged).lower()} "
        f"iterations={summary.iterations_used} "
        f"final_max_error={fmt_float(summary.final_max_error)} "
        f"target={fmt_float(summary.target_average)}"
    )
    return 0


def cmd_sweep(args) -> int:
    cfg, sweep = parse_sweep(args.config, args.set)
    seeds = sweep.seeds if sweep.seeds is not None else (cfg.seed,)
    rows = []
    for value_text in sweep.values:
        for seed in seeds:
            overrides = list(args.set or ())
            overrides.append(f"{sweep.parameter}={value_text}")
            if sweep.parameter != "seed":
                overrides.append(f"seed={seed}")
            run_cfg = parse_config(args.config, overrides)
            _, summary = run(run_cfg)
            rows.append(
                (
                    sweep.parameter,
                    value_text,
                    run_cfg.seed,
                    summary.converged,
                    summary.iterations_used,
                    summary.final_max_error,
                )
            )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["parameter,value,seed,converged,iterations_used,final_max_error"]
    for param, value, seed, converged, iters, err in rows:
        lines.append(
            f"{param},{value},{seed},{str(converged).lower()},{iters},{fmt_float(err)}"
        )
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    print(f"sweep over {sweep.parameter}: {len(rows)} runs, "
          f"{sum(1 for r in rows if r[3])} converged")
    return 0


def cmd_verify(args) -> int:
    cfg = parse_config(args.config, args.set)
    checks = run_verify_suite(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = [
        {
            "check_name": c.check_name,
            "passed": c.passed,
            "measured_error": c.measured_error,
            "threshold": c.threshold,
        }
        for c in checks
    ]
    (out / "verify.json").write_text(to_json(doc) + "\n")
    n_pass = sum(1 for c in checks if c.passed)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.check_name} "
              f"measured={fmt_float(c.measured_error)} threshold={fmt_float(c.threshold)}")
    print(f"verify: {n_pass}/{len(checks)} checks passed")
    return 0 if n_pass == len(checks) else 1


def cmd_topo(args) -> int:
    cfg = parse_config(args.config, args.set)
    topo_seed, _, _, _ = stream_seeds(cfg.seed)
    g = generate_topology(cfg.topology, cfg.n, topo_seed)
    print(
        f"n={g.n} edges={g.m} symmetric={str(g.is_symmetric()).lower()} "
        f"strongly_connected={str(is_strongly_connected(g)).lower()}"
    )
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["# i j  (directed edges; load with topology_symmetric=false)"]
        lines += [f"{a} {b}" for a, b in sorted(g.edges)]
        (out / "topology.edges").write_text("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otaconsensus",
        description="Average consensus over wireless networks by over-the-air aggregation: "
        "simulator, verification suite, and experiment sweeps.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, out_default="."):
        p.add_argument("config", help="path to a key=value config file")
        p.add_argument("-o", "--out", default=out_default, help="output directory")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (repeatable, applied last)",
        )

    p_run = sub.add_parser("run", help="execute one run; write trajectory.csv and summary.json")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the [sweep] block; write sweep.csv")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the invariant check suite; write verify.json")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_topo = sub.add_parser("topo", help="inspect the generated topology; optionally export edges")
    p_topo.add_argument("config", help="path to a key=value config file")
    p_topo.add_argument("-o", "--out", default=None, help="directory for topology.edges (optional)")
    p_topo.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p_topo.set_defaults(func=cmd_topo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EdgeListError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        TopologyError,
        IsolationError,
        DegenerateStateError,
        PeriodicityError,
        NonFiniteStateError,
    ) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
