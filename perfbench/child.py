"""Worker process of the benchmark; run.py starts it, one per job.

    child.py setup <root> <config> <run|sweep|verify>
        One fresh-process set-up sample: import the package, parse the
        config, prepare its first run. Prints {"setup_s": ...}.
    child.py loop <root> <workload> <seed> <seconds> <trace>
        Closed loop of CLI invocations, back to back, for <seconds>. Prints
        one JSON line with every invocation's measurements.

Only the standard library is imported before the set-up clock starts.
"""
import json
import sys
import time
from pathlib import Path

SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 30


def _import_program(root: Path) -> None:
    """Import the package from the checkout's own sources, never from an
    installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import otaconsensus

    if src not in Path(otaconsensus.__file__).resolve().parents:
        raise SystemExit(f"imported otaconsensus from {otaconsensus.__file__}, not from {src}")


def setup(root: Path, config: str, kind: str) -> None:
    t0 = time.perf_counter()
    _import_program(root)
    from otaconsensus import cli, simulator

    if kind == "sweep":
        cfg, _ = cli.parse_sweep(config)
    else:
        cfg = cli.parse_config(config)
    simulator.prepare(cfg)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def _environment(root: Path) -> dict:
    import hashlib
    import os

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _commit(root),
        "source_sha256": src.hexdigest(),
    }


def _commit(root: Path):
    """HEAD of the checkout's git metadata, read from files; None without it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _setup_probe(root: Path, prepared) -> float:
    """Set-up time of one fresh process."""
    import subprocess

    proc = subprocess.run(
        [sys.executable, __file__, "setup", str(root), prepared.config.as_posix(), prepared.kind],
        stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout)["setup_s"]


def _digest(out: Path) -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def loop(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> None:
    import contextlib
    import io
    import resource
    import shutil
    import traceback

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import calibrate
    import workloads

    _import_program(root)
    from otaconsensus import cli

    work = Path(".perfbench") / workload
    shutil.rmtree(work, ignore_errors=True)
    prepared = workloads.prepare(workload, seed, work)
    out = work / "out"
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    # tracing alternates with untraced invocations, whose wall time is the
    # reference for the tracing overhead
    min_invocations = 4 if trace else 3
    # untraced calls also take set-up samples, spread over the run so that
    # they see the same machine load as the invocations
    setup_due = 0 if trace else SETUP_SAMPLES
    samples, setup_s, first_digest, last_spans = [], [], None, []
    start = time.perf_counter()
    while len(samples) < min_invocations or time.perf_counter() - start < seconds:
        if len(setup_s) < setup_due and time.perf_counter() - start >= len(setup_s) * seconds / setup_due:
            setup_s.append(_setup_probe(root, prepared))
        traced = tracer is not None and len(samples) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            tracer.reset()
            tracer.install()
        problems, stdout = [], io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(list(prepared.argv))
        except Exception:
            rc = None
            problems.append(traceback.format_exc(limit=3))
        wall = time.perf_counter() - t0
        # right after the invocation, before any file work, so that it sees
        # the same host load
        ref = calibrate.kernel_seconds()
        if traced:
            tracer.uninstall()
        sample = {"wall_s": wall, "scaled_wall_s": wall * calibrate.REFERENCE_S / ref,
                  "kernel_s": ref, "traced": traced, "node_steps": 0}
        if rc != 0:
            problems.append(f"exit code {rc}")
        else:
            try:
                found, sample["node_steps"] = workloads.check(workload, prepared, out)
                problems += found
                digest = _digest(out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            else:
                first_digest = first_digest or digest
                if digest != first_digest:
                    problems.append("output bytes differ from the first invocation")
                sample["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
                if prepared.kind == "verify":
                    sample["oracle_max_abs_err"] = workloads.oracle_error(out)
        if traced:
            sample["layers"] = tracer.summarize(wall)
            last_spans = tracer.dump()
        sample["problems"] = problems
        samples.append(sample)
    while len(setup_s) < setup_due:
        setup_s.append(_setup_probe(root, prepared))
    result = {
        "samples": samples,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": _environment(root),
        "absent": tracer.absent if tracer else [],
    }
    if trace:
        (work / "spans.json").write_text(json.dumps(last_spans))
    shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    mode, root = sys.argv[1], Path(sys.argv[2])
    if mode == "setup":
        setup(root, sys.argv[3], sys.argv[4])
    else:
        loop(root, sys.argv[3], int(sys.argv[4]), float(sys.argv[5]), sys.argv[6] == "1")
