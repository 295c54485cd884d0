"""Spans around the calls into each of xbstab's layers, for traced runs.

Wrappers replace the module attributes through which callers reach each
public function (``cli.simulate``, ``fastpath.flow_segment``,
``engine.in_Dc`` and so on). Each call records a span: name, start and end
on the wall clock, the thread CPU time it took, and its parent span. Spans
stay in memory and are written out once the run has ended.

Layer times are thread CPU seconds: the sweep runs its variants in threads
that interleave under the interpreter lock, so wall-clock spans of two
variants would overlap and count the same second twice. A layer's self
time is its CPU time minus that of its child spans.
"""

from __future__ import annotations

import json
import threading
import time

WRITERS = ("cli.write_trajectory_csv", "cli.emit_plot_data",
           "cli._write_json")
CLI_OWN = ("cli.run_scenario", "cli.load_config", "cli.build_scenario",
           "cli.execute")
GUARDS = ("dynamics.in_Dc", "dynamics.in_Dnc", "dynamics.jump_map")


class Tracer:
    """In-memory span recorder with per-thread parent tracking."""

    def __init__(self):
        # [name, wall start, wall end, cpu seconds, parent index, thread]
        self.spans = []
        self.counts = {"fastpath.calls": 0, "fastpath.samples": 0,
                       "engine.buffer_resumes": 0, "engine.jumps": 0,
                       "model.traj_bytes": 0, "engine.sim_s": 0.0}
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name, fn, after=None):
        """fn with a span named `name` around each call; after(args,
        result) runs once the span has closed."""
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                idx = len(self.spans)
                self.spans.append([name, time.perf_counter(), None, None,
                                   stack[-1] if stack else -1,
                                   threading.get_ident()])
            stack.append(idx)
            cpu0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.spans[idx]
                span[3] = time.thread_time() - cpu0
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                with self._lock:
                    after(args, result)
            return result
        return traced

    def install(self, cli, engine, fastpath) -> list:
        """Replace the traced attributes; returns what restore() needs."""
        def after_flow(args, _):
            n0, ret = args[4], args[5]
            self.counts["fastpath.calls"] += 1
            self.counts["fastpath.samples"] += int(ret[2]) - n0
            if int(ret[0]) == fastpath.CODE_BUFFER_FULL:
                self.counts["engine.buffer_resumes"] += 1

        def after_simulate(_, traj):
            self.counts["engine.jumps"] += len(traj.jumps)
            self.counts["engine.sim_s"] += float(traj.t[-1] - traj.t[0])
            self.counts["model.traj_bytes"] += sum(
                getattr(traj, name).nbytes for name in (
                    "t", "j", "cycle", "tau", "z1", "z2", "z_tilde1",
                    "z_tilde2", "z_star", "phi"))

        targets = [
            (cli, "run_scenario", "cli.run_scenario", None),
            (cli, "load_config", "cli.load_config", None),
            (cli, "build_scenario", "cli.build_scenario", None),
            (cli, "execute", "cli.execute", None),
            (cli, "complete_gains", "lyapunov.complete_gains", None),
            (cli, "solve_common_lyapunov", "lyapunov.solve_common_lyapunov",
             None),
            (cli, "decay_certificate", "lyapunov.decay_certificate", None),
            (cli, "dwell_certificate", "lyapunov.dwell_certificate", None),
            (cli, "simulate", "engine.simulate", after_simulate),
            (fastpath, "flow_segment", "fastpath.flow_segment", after_flow),
            (engine, "in_Dc", "dynamics.in_Dc", None),
            (engine, "in_Dnc", "dynamics.in_Dnc", None),
            (engine, "jump_map", "dynamics.jump_map", None),
            (cli, "extract_dwell", "analysis.extract_dwell", None),
            (cli, "verify_bounds", "analysis.verify_bounds", None),
            (cli, "write_trajectory_csv", "cli.write_trajectory_csv", None),
            (cli, "emit_plot_data", "cli.emit_plot_data", None),
            (cli, "_write_json", "cli._write_json", None),
        ]
        saved = []
        for module, attr, name, after in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, after))
        return saved

    @staticmethod
    def restore(saved: list):
        for module, attr, original in saved:
            setattr(module, attr, original)

    def write(self, path):
        """Spans as JSON lines: name, start, end, cpu_s, parent, thread."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, cpu, parent, thread in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "cpu_s": cpu,
                                     "parent": parent, "thread": thread})
                         + "\n")

    def summary(self) -> dict:
        """CPU time, self time and call count per span name, and counts."""
        child_cpu = [0.0] * len(self.spans)
        for _, _, _, cpu, parent, _ in self.spans:
            if parent >= 0:
                child_cpu[parent] += cpu
        per_name = {}
        for idx, (name, _, _, cpu, _, _) in enumerate(self.spans):
            entry = per_name.setdefault(name, {"cpu_s": 0.0, "self_s": 0.0,
                                               "calls": 0})
            entry["cpu_s"] += cpu
            entry["self_s"] += cpu - child_cpu[idx]
            entry["calls"] += 1
        return {"spans": per_name, "counts": dict(self.counts)}


def layer_metrics(summary: dict, wall_s: float, cpu_s: float,
                  artifact_bytes: int, oracle_jump_err_s: float,
                  untraced_wall_s: float) -> dict:
    """The per-layer metrics of one traced execution, by name."""
    spans, counts = summary["spans"], summary["counts"]

    def cpu(*names):
        return sum(spans.get(n, {}).get("cpu_s", 0.0) for n in names)

    def own(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(*names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    write_s = cpu(*WRITERS)
    flow_s = cpu("fastpath.flow_segment")
    resumes = counts["engine.buffer_resumes"]
    values = {
        "cli.write_s": (write_s, "s"),
        "cli.write_mb_per_s": (artifact_bytes / 1e6 / write_s, "MB/s"),
        "cli.sweep_overlap": (cpu_s / wall_s, "ratio"),
        "cli.self_s": (own(*CLI_OWN), "s"),
        "lyapunov.certify_s": (cpu("lyapunov.complete_gains",
                                   "lyapunov.solve_common_lyapunov"), "s"),
        "lyapunov.decay_s": (cpu("lyapunov.decay_certificate"), "s"),
        "lyapunov.dwell_s": (cpu("lyapunov.dwell_certificate"), "s"),
        "engine.simulate_s": (cpu("engine.simulate"), "s"),
        "engine.self_s": (own("engine.simulate"), "s"),
        "engine.segments": (counts["fastpath.calls"] - resumes, "count"),
        "engine.jumps": (counts["engine.jumps"], "count"),
        "engine.buffer_resumes": (resumes, "count"),
        "engine.oracle_jump_err_s": (oracle_jump_err_s, "s"),
        "fastpath.flow_s": (flow_s, "s"),
        "fastpath.flow_s_per_sim_s": (flow_s / counts["engine.sim_s"],
                                      "s/s"),
        "fastpath.samples": (counts["fastpath.samples"], "count"),
        "dynamics.guard_calls": (calls(*GUARDS), "count"),
        "dynamics.guard_s": (cpu(*GUARDS), "s"),
        "analysis.verify_s": (cpu("analysis.verify_bounds"), "s"),
        "analysis.dwell_s": (cpu("analysis.extract_dwell"), "s"),
        "model.traj_mb": (counts["model.traj_bytes"] / 1e6, "MB"),
        "trace.overhead_pct": (100.0 * (wall_s / untraced_wall_s - 1.0),
                               "%"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}
