"""Benchmark workloads: inputs generated from the workload seed, the CLI
argv of one invocation, and the correctness checks on what it wrote.

Everything here is standard library, so the set-up probe and the parent
process can import it without paying for numpy or the program itself.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

FADING = "half_normal(1.0)"
INITIAL = "random_mean(1.0, 1.0)"
NOISE_STD = 1e-6

# verify runs 2 x 100 oracle-equivalence steps, 2 x 1000 mass-conservation
# steps and 3 x 100 equivariance steps through the protocol route; its
# outputs carry no step count, so node_steps uses this fixed budget.
VERIFY_PROTOCOL_STEPS = 2 * 100 + 2 * 1000 + 3 * 100


@dataclass
class Prepared:
    """One workload's generated input: the config file and the argv that
    runs it, plus what the checks need to know about it."""

    argv: list[str]
    config: Path
    kind: str
    keys: dict
    sweep: dict = field(default_factory=dict)


def _write_config(path: Path, keys: dict, sweep: dict) -> None:
    lines = [f"{k} = {v}" for k, v in keys.items()]
    if sweep:
        lines.append("[sweep]")
        lines += [f"{k} = {v}" for k, v in sweep.items()]
    path.write_text("\n".join(lines) + "\n")


def _connected(n: int, pairs) -> bool:
    adj = {i: set() for i in range(n)}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    seen, todo = {0}, [0]
    while todo:
        for j in adj[todo.pop()] - seen:
            seen.add(j)
            todo.append(j)
    return len(seen) == n


def _fixed_size_graph(rng: random.Random, n: int, m: int):
    """Connected undirected graph with exactly m links, drawn uniformly."""
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        pairs = sorted(rng.sample(all_pairs, m))
        if _connected(n, pairs):
            return pairs


def _read_summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())


def _csv_rows(path: Path) -> int:
    """Data rows of a CSV with one header line."""
    return path.read_bytes().count(b"\n") - 1


# ------------------------------------------------------------------ workloads

def _half_dense_edge_list(rng: random.Random, work: Path, n: int) -> str:
    """Topology value for a connected graph with exactly the Erdos-Renyi(0.5)
    mean link count. Channel realization costs one draw per link, so an ER
    draw's link count (+-15 % at n=10, +-1.4 % at n=100) would move the
    work with the seed; at n=100 it also straddles a set-resize threshold
    that moves peak memory by 2 MB."""
    edges = work / "topology.edges"
    edges.write_text("".join(f"{a} {b}\n" for a, b in _fixed_size_graph(rng, n, n * (n - 1) // 4)))
    return f"edge_list({edges.as_posix()})"


def _tvc_dense(rng, work):
    keys = {
        "n": 100, "topology": _half_dense_edge_list(rng, work, 100), "algorithm": "tvc",
        "fading": FADING, "initial": INITIAL, "seed": rng.randrange(2**31),
        "noise_std": NOISE_STD, "max_iters": 10,
    }
    return keys, {}


def _check_run_common(p: Prepared, out: Path, problems: list) -> dict:
    s = _read_summary(out)
    n, steps = p.keys["n"], s["iterations_used"]
    rows = _csv_rows(out / "trajectory.csv")
    if rows != (steps + 1) * n:
        problems.append(f"trajectory.csv has {rows} rows, expected {(steps + 1) * n}")
    return s


def _check_tvc_dense(p, out):
    problems = []
    s = _check_run_common(p, out, problems)
    if s["iterations_used"] != p.keys["max_iters"]:
        problems.append(f"stopped at step {s['iterations_used']}, expected the full budget")
    if s["epsilon_B_satisfied"] is not True:
        problems.append(f"epsilon_B_satisfied is {s['epsilon_B_satisfied']}")
    err = s["final_max_error"]
    if not (1e-2 * NOISE_STD <= err <= 1e2 * NOISE_STD):
        problems.append(f"final_max_error {err} is not at the noise scale {NOISE_STD}")
    return problems, s["iterations_used"] * p.keys["n"]


def _tic_ring(rng, work):
    keys = {
        "n": 200, "topology": "ring", "algorithm": "tic",
        "fading": FADING, "initial": INITIAL, "seed": rng.randrange(2**31),
        "max_iters": 300,
    }
    return keys, {}


def _check_tic_ring(p, out):
    problems = []
    s = _check_run_common(p, out, problems)
    drift = max(s["mass_drift_y"], s["mass_drift_x"])
    if not drift <= 1e-9:
        problems.append(f"mass drift {drift} exceeds 1e-9")
    return problems, s["iterations_used"] * p.keys["n"]


SWEEP_ALGORITHMS = ("tic", "tvc", "baseline")


def _sweep_small(rng, work):
    seeds = rng.sample(range(2**31), 4)
    keys = {
        "n": 10, "topology": _half_dense_edge_list(rng, work, 10), "algorithm": SWEEP_ALGORITHMS[0],
        "fading": FADING, "initial": INITIAL, "seed": seeds[0],
        "noise_std": NOISE_STD, "max_iters": 300,
    }
    sweep = {
        "parameter": "algorithm",
        "values": ", ".join(SWEEP_ALGORITHMS),
        "seeds": ", ".join(map(str, seeds)),
    }
    return keys, sweep


def _check_sweep_small(p, out):
    problems = []
    lines = (out / "sweep.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    seeds = [s.strip() for s in p.sweep["seeds"].split(",")]
    expected = [("algorithm", a, s) for a in SWEEP_ALGORITHMS for s in seeds]
    if [tuple(r[:3]) for r in rows] != expected:
        problems.append("sweep.csv rows are not one per (algorithm, seed) in order")
    bad = [r[2] for r in rows if r[1] == "baseline" and r[3] != "true"]
    if bad:
        problems.append(f"baseline did not converge for seeds {bad}")
    node_steps = sum(int(r[4]) for r in rows) * p.keys["n"]
    return problems, node_steps


def _verify(rng, work):
    # configs/tvc10.cfg, on a fixed-size graph instead of an ER draw
    keys = {
        "n": 10, "topology": _half_dense_edge_list(rng, work, 10), "algorithm": "tvc",
        "fading": FADING, "initial": INITIAL, "seed": rng.randrange(2**31),
        "max_iters": 2000, "epsilon": 1e-3, "B": 1,
    }
    return keys, {}


def _check_verify(p, out):
    problems = []
    checks = json.loads((out / "verify.json").read_text())
    failed = [c["check_name"] for c in checks if not c["passed"]]
    if len(checks) != 10 or failed:
        problems.append(f"{len(checks) - len(failed)}/{len(checks)} checks passed; failed {failed}")
    if oracle_error(out) > 1e-10:
        problems.append(f"oracle error {oracle_error(out)} exceeds 1e-10")
    return problems, VERIFY_PROTOCOL_STEPS * p.keys["n"]


def oracle_error(out: Path) -> float:
    """Worst protocol-vs-matrix-oracle difference recorded in verify.json."""
    checks = json.loads((out / "verify.json").read_text())
    return max(c["measured_error"] for c in checks if c["check_name"].startswith("oracle_equivalence"))


@dataclass(frozen=True)
class Workload:
    subcommand: str
    make: Callable[[random.Random, Path], tuple[dict, dict]]
    check: Callable[[Prepared, Path], tuple[list[str], int]]


WORKLOADS = {
    "tvc-dense": Workload("run", _tvc_dense, _check_tvc_dense),
    "tic-ring-trajectory": Workload("run", _tic_ring, _check_tic_ring),
    "sweep-small": Workload("sweep", _sweep_small, _check_sweep_small),
    "verify": Workload("verify", _verify, _check_verify),
}


def prepare(name: str, seed: int, work: Path) -> Prepared:
    """Generate the workload's input files under work from the seed alone."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    keys, sweep = w.make(rng, work)
    cfg = work / "workload.cfg"
    _write_config(cfg, keys, sweep)
    argv = [w.subcommand, cfg.as_posix(), "-o", (work / "out").as_posix()]
    return Prepared(argv=argv, config=cfg, kind=w.subcommand, keys=keys, sweep=sweep)


def check(name: str, p: Prepared, out: Path) -> tuple[list[str], int]:
    """Problems found in one invocation's outputs, and its node-steps."""
    return WORKLOADS[name].check(p, out)
