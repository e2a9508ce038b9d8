"""Benchmark of the otaconsensus command line, one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload runs in a child process as a
closed loop with one caller: CLI invocations (``otaconsensus.cli.main``)
back to back for S seconds, every output checked. With --trace 0 the
end-to-end metrics of BENCHMARK.json are reported, including the set-up
time measured in fresh processes; with --trace 1 every second invocation
is traced and the per-layer metrics are reported. The last line of
standard output is the JSON result; the lines before it are for people.
Inputs, spans and a full result file go to .perfbench/<workload>/.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# A workload process that overruns its seconds by this much is killed, so
# that a call ends within 180 s.
CHILD_GRACE_S = 100


def _run_workload(*args, timeout):
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "loop", *map(str, args)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(res) -> dict:
    samples = res["samples"]
    ok = [s for s in samples if s["node_steps"] > 0]
    return {
        "wall_s": _median([s["scaled_wall_s"] for s in samples]),
        "node_steps_per_s": _median([s["node_steps"] / s["scaled_wall_s"] for s in ok]),
        "setup_s": _median(res["setup_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(samples) -> dict:
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    names = traced[0]["layers"].keys()
    out = {k: _median([s["layers"][k] for s in traced]) for k in names}
    out["cli.bytes_written"] = _median([s.get("bytes_written", 0) for s in traced])
    out["analysis.oracle_max_abs_err"] = _median([s.get("oracle_max_abs_err", 0.0) for s in traced])
    out["trace.overhead_s"] = _median([s["wall_s"] for s in traced]) - _median([s["wall_s"] for s in plain])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "otaconsensus" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no otaconsensus sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    res = _run_workload(ROOT, args.workload, args.seed, args.seconds, args.trace,
                        timeout=args.seconds + CHILD_GRACE_S)
    samples = res["samples"]
    values = per_layer(samples) if args.trace else end_to_end(res)

    attempted = len(samples)
    failed = sum(1 for s in samples if s["problems"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} invocations in a closed loop, one caller")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_ops_ratio':34s} {failed / attempted:>16.6g} ratio")
    print(f"  {'unscaled wall (median)':34s} {_median([s['wall_s'] for s in samples]):>16.6g} s")
    print(f"  {'reference kernel (median)':34s} {_median([s['kernel_s'] for s in samples]):>16.6g} s")
    for s in samples:
        for problem in s["problems"]:
            print(f"  FAILED: {problem}")
    for name in res["absent"]:
        print(f"  absent trace target: {name}")
    print(f"  environment: {json.dumps(res['environment'])}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, failed_ops_ratio=failed / attempted, seed=args.seed,
                  environment=res["environment"], absent=res["absent"], samples=samples)
    (ROOT / ".perfbench" / args.workload / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
