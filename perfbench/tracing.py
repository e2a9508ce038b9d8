"""Span tracing of the program's public functions, installed from outside.

Each target is wrapped where callers look it up: every module of the
package that bound the function by name (``from .protocol import tic_step``
in simulator and cli, the package namespace), or the class for a method.
Spans (target, parent span, start, end) are kept in memory and reduced to
per-layer numbers after each invocation. A target that no longer exists is
reported as absent instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

import numpy as np

PACKAGE = "otaconsensus"
LAYERS = ("topology", "channel", "protocol", "simulator", "analysis", "cli")


def _links_drawn(counts, args, result):
    counts["channel.links_drawn"] += int(np.count_nonzero(np.triu(result.gains, 1)))


def _records(counts, args, result):
    counts["simulator.records"] += len(result[0])


# (layer, attribute path, metric group or None, post-call counter hook)
TARGETS = (
    ("topology", "generate_topology", "topology.generate", None),
    ("topology", "is_strongly_connected", "topology.connectivity", None),
    ("topology", "check_epsilon_B_connectivity", "topology.connectivity", None),
    ("topology", "joint_graph", None, None),
    ("channel", "ChannelProcess.realization", "channel.realization", _links_drawn),
    ("channel", "effective_graph", "channel.effective_graph", None),
    ("channel", "sample_noise", None, None),
    ("protocol", "prop1_weights", "protocol.weights", None),
    ("protocol", "baseline_step", "protocol.step", None),
    ("protocol", "tic_initialize", "protocol.step", None),
    ("protocol", "tic_step", "protocol.step", None),
    ("protocol", "tvc_initialize", "protocol.step", None),
    ("protocol", "tvc_step", "protocol.step", None),
    ("protocol", "ratio_output", None, None),
    ("simulator", "stream_seeds", None, None),
    ("simulator", "make_initial_values", None, None),
    ("simulator", "spread", None, None),
    ("simulator", "prepare", "simulator.prepare", None),
    ("simulator", "run", "simulator.run", _records),
    ("analysis", "build_Hbar", None, None),
    ("analysis", "audit_column_stochastic", "analysis.audit", None),
    ("analysis", "matrix_oracle", "analysis.oracle", None),
    ("analysis", "stationary_limit", "analysis.stationary_limit", None),
    ("analysis", "mass_audit", "analysis.mass_audit", None),
    ("cli", "parse_config", "cli.parse", None),
    ("cli", "parse_sweep", "cli.parse", None),
    ("cli", "config_echo", None, None),
    ("cli", "to_json", "cli.write", None),
    ("cli", "write_trajectory_csv", "cli.write", None),
    ("cli", "write_summary_json", "cli.write", None),
    ("cli", "run_verify_suite", None, None),
    ("cli", "cmd_run", None, None),
    ("cli", "cmd_sweep", None, None),
    ("cli", "cmd_verify", None, None),
    ("cli", "build_parser", None, None),
    ("cli", "main", None, None),
)

# Called once per receiver per step: counted, not spanned, so that tracing
# does not swamp the per-step cost it is meant to measure.
COUNTED = (("protocol", "ota_aggregate", "protocol.aggregations"),)

GROUPS = sorted({t[2] for t in TARGETS if t[2]})
COUNTERS = ("channel.links_drawn", "simulator.records") + tuple(c[2] for c in COUNTED)


def _resolve(layer: str, path: str):
    """(owner, attribute, function) for a target, or None when it is gone."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{layer}")
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(attr)
    return (owner, attr, fn) if callable(fn) else None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object, object]] = []
        for index, (layer, path, _, hook) in enumerate(TARGETS):
            found = _resolve(layer, path)
            if found is None:
                self.absent.append(f"{layer}.{path}")
                continue
            owner, attr, fn = found
            self._wrappers.append((owner, attr, fn, self._span_wrapper(index, fn, hook)))
        for layer, path, counter in COUNTED:
            found = _resolve(layer, path)
            if found is None:
                self.absent.append(f"{layer}.{path}")
                continue
            owner, attr, fn = found
            self._wrappers.append((owner, attr, fn, self._count_wrapper(counter, fn)))

    def _span_wrapper(self, index, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[me] = (index, parent, t0, t1)
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def _count_wrapper(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Swap every binding of every target for its wrapper."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for owner, attr, fn, wrapper in self._wrappers:
            if isinstance(owner, type):
                bindings = [(owner, attr)]
            else:
                bindings = [(m, a) for m in modules for a, v in vars(m).items() if v is fn]
            for obj, name in bindings:
                setattr(obj, name, wrapper)
                self._patched.append((obj, name, fn))

    def uninstall(self) -> None:
        for obj, name, fn in reversed(self._patched):
            setattr(obj, name, fn)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        for key in self.counts:
            self.counts[key] = 0

    def summarize(self, wall_s: float) -> dict:
        """Per-layer numbers for the spans of one invocation.

        <layer>.self_s: span time of the layer's functions minus the time of
        the spans they called. <group>_s and <group>_calls: time and number of
        the group's outermost spans (a call nested inside another call of
        the same group is not counted twice); group times include the spans
        they called. trace.unattributed_s: invocation wall time outside
        every span.
        """
        spans = self.spans
        dur = [t1 - t0 for _, _, t0, t1 in spans]
        child = [0.0] * len(spans)
        for i, (_, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for g in GROUPS:
            out[f"{g}_s"] = 0.0
            out[f"{g}_calls"] = 0
        roots = 0.0
        for i, (index, parent, _, _) in enumerate(spans):
            layer, _, group, _ = TARGETS[index]
            out[f"{layer}.self_s"] += dur[i] - child[i]
            if parent < 0:
                roots += dur[i]
            if group is None:
                continue
            p = parent
            while p >= 0 and TARGETS[spans[p][0]][2] != group:
                p = spans[p][1]
            if p < 0:
                out[f"{group}_s"] += dur[i]
                out[f"{group}_calls"] += 1
        out.update(self.counts)
        out["trace.unattributed_s"] = wall_s - roots
        out["trace.absent_targets"] = len(self.absent)
        return out

    def dump(self) -> list[dict]:
        """The current spans as plain records, times relative to the first."""
        if not self.spans:
            return []
        base = self.spans[0][2]
        return [
            {"id": i, "parent": parent, "name": "{}.{}".format(*TARGETS[index][:2]),
             "start_s": t0 - base, "end_s": t1 - base}
            for i, (index, parent, t0, t1) in enumerate(self.spans)
        ]
