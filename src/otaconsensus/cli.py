"""Command-line front end: flat key=value configs, run/sweep/verify/topo
subcommands, CSV and JSON emission stable to the byte.

All real numbers are serialized with 17 significant digits, enough to round
trip any double exactly, so identical invocations produce identical files.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import partial
from itertools import repeat
from operator import attrgetter
from pathlib import Path

import numpy as np

from .analysis import (
    PeriodicityError,
    audit_column_stochastic,
    build_Hbar,
    matrix_oracle,
    stationary_limit,
)
from .channel import FADING_ARGS, FadingModel, epoch_blocks
from .floattext import fmt_float, node_words, trajectory_rows
from .protocol import COLUMN_SUM_TOL, InitialStates, NonFiniteStateError
from .simulator import (
    INITIAL_ARGS,
    TRAJECTORY_FIELDS,
    InitialSpec,
    SimulationConfig,
    Trajectory,
    _drive,
    prepare,
    run,
    run_group,
    stream_seeds,
)
from .topology import TOPOLOGY_ARGS, TopologySpec, generate_topology


class ConfigError(ValueError):
    """A config file or override that cannot be turned into a valid run."""


# ------------------------------------------------------------------ formatting

_encode = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps' text, with no encoder built per leaf


def to_json(value, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-digit floats, and
    every other key and leaf as json.dumps(ensure_ascii=False) writes it."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, (float, np.floating)):
        return fmt_float(value)
    if isinstance(value, dict) and value:
        items = [f"{inner}{to_json(str(k))}: {to_json(v, indent + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)) and value:
        items = [f"{inner}{to_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _encode(int(value) if isinstance(value, np.integer) else value)


# ------------------------------------------------------------------ config parsing
#
# SCHEMA has one row per config key, in config_echo order:
#   (key, SimulationConfig field, parser, echo)
# A field written "spec.attr" folds the value into that field's spec. Parsers
# take (key, text) and raise plain ValueErrors; _located adds the file:line or
# 'override' label. A key is required when its field has no default.

SWEEP_KEYS = ("parameter", "values", "seeds")


@contextmanager
def _located(where: str):
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _led(lead: str, fault: Exception) -> Exception:
    """fault's message led by lead, as the base type that keeps main's exit code for it."""
    return (ValueError if isinstance(fault, ValueError) else RuntimeError)(f"{lead}: {fault}")


def _as_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"key {key!r} needs an integer, got {text!r}") from None


def _as_float(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"key {key!r} needs a number, got {text!r}") from None


def _as_bool(key: str, text: str) -> bool:
    low = text.strip().lower()
    if low not in ("true", "false"):
        raise ValueError(f"key {key!r} needs true or false, got {text!r}")
    return low == "true"


def _as_text(key: str, text: str) -> str:
    return text


def _raw(value):
    return value


_CALL = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?")
_CALL_ARGS = {TopologySpec: TOPOLOGY_ARGS, FadingModel: FADING_ARGS, InitialSpec: INITIAL_ARGS}
_ARG_COUNTS = ("no arguments", "exactly one argument", "exactly two arguments")


def _call_arg(key: str, name: str, text: str):
    """Call arguments are numbers, except a file path."""
    return text if name == "path" else _as_float(key, text)


def _parse_call(spec_type, key: str, text: str):
    """'kind' or 'kind(arg, ...)' as a spec_type, with the argument names of
    the type's kind map; a starred name takes one or more values."""
    m = _CALL.fullmatch(text.strip())
    if not m:
        raise ValueError(f"key {key!r} has malformed value {text!r}")
    kind, raw_args = m.groups()
    args = [a.strip() for a in raw_args.split(",")] if raw_args and raw_args.strip() else []
    kinds = _CALL_ARGS[spec_type]
    if kind not in kinds:
        raise ValueError(f"unknown {key} kind {kind!r}; expected one of {tuple(kinds)}")
    names = kinds[kind]
    if names and names[0].startswith("*"):
        if not args:
            raise ValueError(f"{kind} needs at least one value")
        return spec_type(kind, **{names[0][1:]: tuple(_call_arg(key, names[0], a) for a in args)})
    if len(args) != len(names):
        listed = f" ({', '.join(names)})" if names else ""
        raise ValueError(f"{kind} takes {_ARG_COUNTS[len(names)]}{listed}")
    return spec_type(kind, **{name: _call_arg(key, name, a) for name, a in zip(names, args)})


def _echo_call(spec) -> str:
    args = []
    for name in _CALL_ARGS[type(spec)][spec.kind]:
        value = getattr(spec, name.lstrip("*"))
        args += value if name.startswith("*") else [value]
    if not args:
        return spec.kind
    return f"{spec.kind}({', '.join(a if isinstance(a, str) else fmt_float(a) for a in args)})"


def _parse_pair_scales(key: str, text: str):
    pairs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        m = re.fullmatch(r"(\d+)\s*-\s*(\d+)\s*:\s*(\S+)", token)
        if not m:
            raise ValueError(f"pair_scales entry {token!r} must look like i-j:scale")
        pairs.append(((int(m.group(1)), int(m.group(2))), _as_float(key, m.group(3))))
    return tuple(pairs)


def _echo_pair_scales(pairs) -> str:
    return ",".join(f"{a}-{b}:{fmt_float(s)}" for (a, b), s in pairs)


SCHEMA = (
    ("n", "n", _as_int, _raw),
    ("topology", "topology", partial(_parse_call, TopologySpec), _echo_call),
    ("topology_symmetric", "topology.symmetric", _as_bool, _raw),
    ("algorithm", "algorithm", _as_text, _raw),
    ("fading", "fading", partial(_parse_call, FadingModel), _echo_call),
    ("initial", "initial", partial(_parse_call, InitialSpec), _echo_call),
    ("self_weight", "self_weight", _as_float, _raw),
    ("noise_std", "noise_std", _as_float, _raw),
    ("epsilon", "epsilon", _as_float, _raw),
    ("B", "B", _as_int, _raw),
    ("deep_fade", "deep_fade", _as_bool, _raw),
    ("max_iters", "max_iters", _as_int, _raw),
    ("tol", "tol", _as_float, _raw),
    ("tol_window", "tol_window", _as_int, _raw),
    ("seed", "seed", _as_int, _raw),
    ("pair_scales", "pair_scales", _parse_pair_scales, _echo_pair_scales),
)

KNOWN_KEYS = tuple(row[0] for row in SCHEMA)

# field name -> default; MISSING marks a required field
_DEFAULTS = {f.name: f.default for f in fields(SimulationConfig)}


def _read_sections(path: str) -> dict[str, dict[str, tuple[str, str]]]:
    """Raw sections: section name -> key -> (value text, location label)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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


def _build_config(flat: dict[str, tuple[str, str]], row: str = "") -> SimulationConfig:
    """The validated config of flat; row leads a SimulationConfig fault (a sweep row's)."""
    for key, (_, where) in flat.items():
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
    for key, field, _, _ in SCHEMA:
        if key not in flat and _DEFAULTS.get(field) is MISSING:
            raise ConfigError(f"missing required config key {key!r}")
    values = {}
    for key, field, parse, _ in SCHEMA:
        if key not in flat:
            continue
        text, where = flat[key]
        name, _, attr = field.partition(".")
        with _located(where):
            value = parse(key, text)
            values[name] = replace(values.get(name, _DEFAULTS[name]), **{attr: value}) if attr else value
    try:
        return SimulationConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"{row}{exc}") from exc


def _apply_overrides(flat: dict[str, tuple[str, str]], overrides) -> dict[str, tuple[str, str]]:
    merged = dict(flat)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, value = item.split("=", 1)
        merged[key.strip()] = (value.strip(), "override")
    return merged


def parse_config(path: str, overrides=()) -> SimulationConfig:
    """Config file plus key=value overrides, defaults filled, fully validated."""
    sections = _read_sections(path)
    return _build_config(_apply_overrides(sections[""], overrides))


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    runs: tuple[tuple[str, SimulationConfig], ...]


def parse_sweep(path: str, overrides=()) -> tuple[SimulationConfig, SweepSpec]:
    """The base config (file plus overrides) and each [sweep] run's (value
    text, config) in sweep.csv row order, all validated before any run."""
    sections = _read_sections(path)
    flat = _apply_overrides(sections[""], overrides)
    config = _build_config(flat)
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
        with _located(swhere):
            seeds = tuple(_as_int("seeds", s.strip()) for s in raw_seeds.split(",") if s.strip())
            for seed in seeds:  # SimulationConfig's seed check, labelled with the line
                replace(config, seed=seed)
        if not seeds:
            raise ConfigError(f"{swhere}: empty seeds list")
    runs = []
    for value in values:
        cfg = _build_config({**flat, parameter: (value, vwhere)}, f"{parameter} = {value}: ")
        for seed in seeds or (cfg.seed,):
            runs.append((value, replace(cfg, seed=seed)))
    return config, SweepSpec(parameter=parameter, runs=tuple(runs))


def config_echo(cfg: SimulationConfig) -> dict:
    """Canonical flat rendering of a config, defaults included, keys in
    schema order."""
    return {key: echo(attrgetter(field)(cfg)) for key, field, _, echo in SCHEMA}


# ------------------------------------------------------------------ emitters

CHUNK_VALUES = 3600  # reals per trajectory.csv block, in whole steps


def write_trajectory_csv(path: Path, trajectory: Trajectory) -> None:
    """One row per (step, node), step-major, each real exactly as fmt_float
    writes it ('%.17g').

    A non-finite entry is a program fault, refused before anything is
    written. The rows are formatted by trajectory_rows in blocks of whole
    steps, about CHUNK_VALUES reals each (six steps at n = 200), and written
    block by block, so the writer's memory does not grow with the run's
    length. trajectory_rows holds about 80 bytes per real of its block, so
    a block costs about 0.3 MB; fewer, larger blocks spend less of the
    writer's time in per-call overhead.
    """
    columns = [getattr(trajectory, name) for name in TRAJECTORY_FIELDS]
    if not all(np.isfinite(c).all() for c in columns):
        bad = ~np.isfinite(np.stack(columns, axis=2))
        k, j, q = np.unravel_index(np.argmax(bad), bad.shape)
        raise NonFiniteStateError(
            f"refusing to serialize non-finite {TRAJECTORY_FIELDS[q]}={float(columns[q][k, j])!r} "
            f"at step {k}, node {j}"
        )
    steps, n = trajectory.mu.shape
    block = max(1, CHUNK_VALUES // (len(columns) * n))
    with open(path, "wb") as f:
        f.write(",".join(("step", "node") + TRAJECTORY_FIELDS).encode() + b"\n")
        nodes = node_words(n)
        for k in range(0, steps, block):
            f.write(trajectory_rows(k, nodes, *(c[k : k + block] for c in columns)))


def _write_text(path: Path, text: str) -> None:
    """A text output as UTF-8; an argv path that arrived surrogate-escaped
    is written back as the bytes typed."""
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


def write_summary_json(path: Path, summary, cfg: SimulationConfig) -> None:
    """RunSummary's fields in declaration order, then the config echo."""
    _write_text(path, to_json({**asdict(summary), "config_echo": config_echo(cfg)}) + "\n")


# ------------------------------------------------------------------ verify suite

@dataclass(frozen=True)
class CheckResult:
    check_name: str
    passed: bool
    measured_error: float
    threshold: float


@contextmanager
def _regime(regime: str):
    """Lead a fault raised inside with the regime that raised it: it comes
    from the config run as tvc without deep fade, not from the user's run."""
    try:
        yield
    except (ValueError, RuntimeError) as fault:
        raise _led(f"{regime} regime (config run as tvc without deep fade)", fault) from fault


def _mixing(channel, steps: int, audited: int, audits: list):
    """The mixing matrices of channel's blocks 0 to steps - 1, each block
    read once and normalized once: an epoch at a time, written by
    write_epoch into one (T, n, n) buffer, the last epoch cut to the blocks
    asked for so that a block never read cannot raise, and normalized by one
    build_Hbar call. Those of the first audited blocks are audited as they
    go by, one audit_column_stochastic call an epoch, into audits.

    An epoch with a pilot sum build_Hbar refuses is read again a block at a
    time, each block realized and normalized when it is read, so that its
    faults come as they would one block at a time: after the steps before
    it, a block's overflowing gain (realization(k) names it), then its
    sums."""
    n = channel.topology.n
    T = epoch_blocks(n)
    epoch = np.empty((T, n, n))
    for first in range(0, steps, T):
        channel.write_epoch(first // T, epoch)
        try:
            hbars = build_Hbar(epoch[: steps - first], first + 1)
        except RuntimeError:  # refused: the epoch again, a block at a time
            hbars = (build_Hbar(channel.realization(k).gains, k + 1) for k in range(first, min(first + T, steps)))
        else:
            if first < audited:
                audits.append(audit_column_stochastic(hbars[: audited - first]))
        yield from hbars


def run_verify_suite(cfg: SimulationConfig) -> list[CheckResult]:
    """Invariant checks derived from the config's topology, fading, and seeds.

    The graph, initial values and channel are prepare's for the config run
    as tvc without deep fade. Each regime is one driver pass of fixed step
    counts over that channel process: tic holds block 0, tvc reads block
    k - 1 at step k. A 1000-step member feeds the mass-conservation check,
    and its first 101 rows, bitwise those of a 100-step pass, are held
    against the matrix oracle over the first 100 blocks. The equivariance
    passes are 100-step members of the tvc pass; InitialStates refuses their
    starts before any pass, the message led by "scale_equivariance start: ".

    The oracle reads each block once, normalized once. Block 0 is realized
    first and normalized after the starts are refused; that one matrix is
    the tic oracle's at every step and the stationary check's. The tvc
    oracle's blocks 0-99 are written and normalized an epoch at a time as
    it reads them (_mixing), and the first 50 of those same matrices are
    audited for column stochasticity as they go by; no block is drawn
    again. A fault a regime's oracle or pass raises is led by the regime.

    Positive checks pass when the measured error is at or below the
    threshold. The two negative controls invert that: they pass when the
    designed breakage actually shows up (measured error above threshold, or
    the expected error raised).
    """
    g, channel, S, _, _ = prepare(replace(cfg, algorithm="tvc", deep_fade=False))
    k_eq, k_mass, k_audit = 100, 1000, 50
    block0 = channel.realization(0).gains  # the one block a tic pass reads

    # the equivariance passes' starts, each refused before any pass if it overflows
    shifted = (("scale_equivariance", lambda v: 3.7 * v), ("shift_equivariance", lambda v: v - 2.0))
    starts = []
    for name, f in shifted:
        try:
            with np.errstate(over="ignore"):  # an overflowing value is refused by InitialStates
                starts.append(InitialStates(f(S.values)))
        except ValueError as refused:
            raise _led(f"{name} start", refused) from None

    # protocol vs matrix oracle and chain-sum conservation per regime; tvc's pass carries the equivariance passes
    with _regime("tic"):
        hbar0 = build_Hbar(block0, 1)
    oracle, mass, audits = [], [], []
    for regime, mixing, passes in (
        ("tic", repeat(hbar0, k_eq), [(S, k_mass)]),
        ("tvc", _mixing(channel, k_eq, k_audit, audits), [(S, k_mass), *((s, k_eq) for s in starts)]),
    ):
        members = [lambda s=s, k=k: (None, channel, s, None, k) for s, k in passes]
        with _regime(regime):
            expected = matrix_oracle(mixing, S, k_eq)
            (summary, rows), *equivariant = _drive(regime, members, record=True)
        err = max(float(np.max(np.abs(e - p[: k_eq + 1]))) for e, p in zip(expected, rows))
        oracle.append(CheckResult(f"oracle_equivalence_{regime}", err <= 1e-10, err, 1e-10))
        err = max(summary.mass_drift_y, summary.mass_drift_x)  # mass_audit's drift, from the driver
        mass.append(CheckResult(f"mass_conservation_{regime}", err <= 1e-9, err, 1e-9))
        base = rows[2][: k_eq + 1].copy()  # the ratio rows the equivariance passes are held against (tvc's)
        del expected, rows  # one regime's rows at a time

    # realized mixing matrices must be column stochastic every step: the tvc oracle's first 50
    worst = max(a.max_column_sum_error for a in audits)
    ok = all(a.is_column_stochastic for a in audits)
    stochastic = CheckResult("column_stochasticity", ok, worst, COLUMN_SUM_TOL)
    checks = [*oracle, stochastic, *mass]

    # ratio trajectories must commute with affine changes of the initial values
    for (name, f), (_, (_, _, MUt)) in zip(shifted, equivariant):
        err = float(np.max(np.abs(MUt - f(base))))
        checks.append(CheckResult(name, err <= 1e-12, err, 1e-12))

    # the stationary eigenvector exists, is a fixed point, and certifies
    # mean(S); a limit that cannot be certified (a periodic support, or a
    # solve that fails its own checks) fails the check, measured 1
    try:
        v = stationary_limit(hbar0, S)
        resid = float(np.max(np.abs(hbar0 @ v - v)))
    except RuntimeError:
        resid = 1.0
    checks.append(CheckResult("stationary_limit_fixed_point", resid <= 1e-10, resid, 1e-10))

    # negative control: bipartite support without self terms has no limit;
    # passes iff the periodicity error is raised (measured 0 when it is)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
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
    gains = block0.copy()
    link = np.argwhere(g.adj)[:1]  # none without links: nothing breaks, and the check fails
    gains[link[:, 0], link[:, 1]] *= 1.5
    err = audit_column_stochastic(build_Hbar(gains)).max_column_sum_error
    checks.append(CheckResult("non_reciprocal_breaks_stochasticity", err > 1e-6, err, 1e-6))
    return checks


# ------------------------------------------------------------------ subcommands

def cmd_run(args) -> int:
    cfg = parse_config(args.config, args.set)
    trajectory, summary = run(cfg)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    write_summary_json(out / "summary.json", summary, cfg)  # first: a fault formatting it leaves no file
    write_trajectory_csv(out / "trajectory.csv", trajectory)
    print(
        f"{cfg.algorithm}: converged={str(summary.converged).lower()} "
        f"iterations={summary.iterations_used} "
        f"final_max_error={fmt_float(summary.final_max_error)} "
        f"target={fmt_float(summary.target_average)}"
    )
    return 0


def cmd_sweep(args) -> int:
    _, sweep = parse_sweep(args.config, args.set)
    # all runs first: a run's fault outranks an earlier row's unserializable value
    summaries = []
    try:
        run_group([cfg for _, cfg in sweep.runs], summaries)
    except (ValueError, RuntimeError) as exc:  # named by its row
        value, cfg = sweep.runs[len(summaries)]
        row = f"seed {cfg.seed}" if sweep.parameter == "seed" else f"{sweep.parameter} = {value}, seed {cfg.seed}"
        raise _led(row, exc) from exc
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    lines = ["parameter,value,seed,converged,iterations_used,final_max_error"]
    for (value, cfg), summary in zip(sweep.runs, summaries):
        lines.append(
            f"{sweep.parameter},{value},{cfg.seed},{str(summary.converged).lower()},"
            f"{summary.iterations_used},{fmt_float(summary.final_max_error)}"
        )
    _write_text(out / "sweep.csv", "\n".join(lines) + "\n")
    print(f"sweep over {sweep.parameter}: {len(summaries)} runs, "
          f"{sum(s.converged for s in summaries)} converged")
    return 0


def cmd_verify(args) -> int:
    cfg = parse_config(args.config, args.set)
    checks = run_verify_suite(cfg)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "verify.json", to_json([asdict(c) for c in checks]) + "\n")
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
        f"strongly_connected={str(g.strongly_connected).lower()}"
    )
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["# i j  (directed edges; load with topology_symmetric=false)"]
        lines += [f"{a} {b}" for a, b in g.edges]
        _write_text(out / "topology.edges", "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otaconsensus",
        description="Average consensus over wireless networks by over-the-air aggregation: "
        "simulator, verification suite, and experiment sweeps.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="path to a key=value config file")
    # one action for all four subcommands: None lets topo skip its export; the rest use '.'
    common.add_argument("-o", "--out", help="output directory")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable, applied last)")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, func, text in (
        ("run", cmd_run, "execute one run; write trajectory.csv and summary.json"),
        ("sweep", cmd_sweep, "run the [sweep] block; write sweep.csv"),
        ("verify", cmd_verify, "run the invariant check suite; write verify.json"),
        ("topo", cmd_topo, "inspect the generated topology; optionally export edges"),
    ):
        sub.add_parser(name, parents=[common], help=text).set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's names the array it could not allocate
        detail = f": {exc}" if str(exc) else ""
        print(f"runtime error: out of memory{detail}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
