"""Scenario runner: load a JSON configuration, execute certification +
simulation + analysis, and emit CSV trajectories plus a JSON report.

Config schema (``"schema": 1``)::

    {
      "schema": 1,
      "comment":    "any text",          # optional
      "plant":      {"a": ..., "c": ..., "d": ...},
      "observer":   {"k1_plus": ..., "k2_plus": ...},
      "controller": {"k": ...            # explicit control gain, or
                     "k_prime": ...,     # derive the gain instead
                     "z_star_init": ..., "epsilon": ...,
                     "R": ..., "R_tilde": ...,
                     "h_schedule": "paper_v" | "constant:v" | "power:b"
                                   | [v1, v2, ...],
                     "max_cycles": ...},
      "solver":     {any SolverConfig field},
      "initial":    {"z0": [..., ...], "z_hat0": [..., ...]},
      "outputs":    {"trajectory_csv": ..., "report_json": ...,
                     "phase_csv": ..., "timeseries_csv": ...}
    }

The fields of "plant", "controller" and "solver" are those of
model.PlantParams, ControllerConfig and SolverConfig (plus controller.k),
with their kinds and defaults: controller.z_star_init, epsilon, R and
R_tilde are required, k_prime defaults to 1 and h_schedule to "paper_v".
An h-schedule is a list of values in (0, 1), repeated from its last
("constant:v" is [v] and "paper_v" a list of nine), or a power law; g(i)
tends to zero for every list and for no power law, which the report
flags. The four file names in "outputs" must be distinct, and none may be
error.json. A malformed field (missing, not a finite number, a section
that is not an object, two outputs naming one file) and a key that no
section or the top level knows are rejected by name before anything is
integrated, and the run ends in an error.json.

All output files are UTF-8 and deterministic: two runs of the same
configuration produce byte-identical artifacts. The three CSV files are
written by csvwriter.write_csvs in one pass, over row shares formatted in
forked children, with the bytes of np.savetxt with the same formats
however the rows are split. csvwriter is imported by the two functions
that write, so only runs that write CSV files compile its formatter, and
they do so after the simulation; lanes, which runs sweep variants in
forked processes, is imported only by sweeps of more than one variant.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .analysis import cycle_slices, extract_dwell, verify_bounds
from .engine import simulate
from .errors import LaneCrashed, NoExcitation, XbstabError
from .lyapunov import (LyapunovCertificate, complete_gains,
                       decay_certificate, dwell_certificate,
                       solve_common_lyapunov)
from .model import (ControllerConfig, HSchedule, HybridTrajectory,
                    PlantParams, SolverConfig, derive_control_gain)

SCHEMA_VERSION = 1

CSV_COLUMNS = ("t", "j", "i", "tau", "z1", "z2", "z1_hat", "z2_hat",
               "z_tilde1", "z_tilde2", "z_star", "u")

_PHASE_COLUMNS = ("z1", "z2")
_TIMESERIES_COLUMNS = ("t", "z1", "z2", "z1_hat", "z2_hat", "z_star")

CHECK_NAMES = ("vobs", "envelope", "phi", "dwell", "zeno", "progress", "excitation")

# the keys of a configuration's top level
_TOP_LEVEL = ("schema", "comment", "plant", "observer", "controller",
              "solver", "initial", "outputs")

_DEFAULT_OUTPUTS = {
    "trajectory_csv": "trajectory.csv",
    "report_json": "report.json",
    "phase_csv": "phase.csv",
    "timeseries_csv": "timeseries.csv",
}

# the failures that end a run, or one sweep variant, in an error.json
# (json.JSONDecodeError is a ValueError; math.exp raises OverflowError, an
# ArithmeticError)
_RUN_ERRORS = (XbstabError, ValueError, KeyError, OSError, ArithmeticError)


@dataclass
class Scenario:
    """A fully validated scenario, ready to execute."""

    raw: dict
    params: PlantParams
    gains: "object"
    cert: LyapunovCertificate
    cfg: ControllerConfig
    solver: SolverConfig
    z0: np.ndarray
    z_hat0: np.ndarray
    k: float
    outputs: dict


def parse_h_schedule(spec) -> HSchedule:
    """Parse an h-schedule spec: "paper_v", "constant:v", "power:b" or a
    list of explicit values."""
    if isinstance(spec, (list, tuple)):
        return HSchedule.explicit(spec)
    if not isinstance(spec, str):
        raise ValueError(f"h_schedule must be a string or list, got {spec!r}")
    if spec == "paper_v":
        return HSchedule.paper_v()
    if spec.startswith("constant:"):
        return HSchedule.constant(float(spec.split(":", 1)[1]))
    if spec.startswith("power:"):
        return HSchedule.power(float(spec.split(":", 1)[1]))
    raise ValueError(f"unknown h_schedule spec {spec!r}")


def g_converges_to_zero(sched: HSchedule) -> bool:
    """Whether the cumulative product g(i) = prod h(j) tends to zero: for
    every list of values, which lie in (0, 1), and for no power law, whose
    terms 1/(1 + b**-i) have a positive product since sum b**-i is
    finite."""
    return sched.base is None


def _require(section: dict, name: str, where: str):
    if name not in section:
        raise ValueError(f"missing required field '{name}' in '{where}'")
    return section[name]


def _known(section: dict, where: str, valid) -> dict:
    """section, whose keys must all be in valid; the first that is not is
    rejected with a ValueError naming it."""
    for key in section:
        if key not in valid:
            raise ValueError(f"unknown {where} field '{key}'; valid fields: "
                             f"{', '.join(valid)}")
    return section


def _section(raw: dict, name: str, valid=None) -> dict:
    """Config section `name`, {} if absent, with keys in valid if given;
    anything but a JSON object is rejected with a ValueError naming it."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section '{name}' must be an object, "
                         f"got {section!r}")
    return section if valid is None else _known(section, name, valid)


def _number(section: dict, name: str, where: str, kind=float):
    """section[name] converted by `kind`; a missing field, a value that is
    not a finite JSON number (json.load takes NaN and Infinity) or a
    fraction for kind=int is rejected with a ValueError naming it."""
    val = _require(section, name, where)
    try:
        num = kind(val)
        ok = type(val) in (int, float) and math.isfinite(num)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok or (kind is int and num != val):
        raise ValueError(f"{where}.{name}={val!r} is not a finite "
                         + ("integer" if kind is int else "number"))
    return num


def _state(section: dict, name: str) -> np.ndarray:
    """An initial 2-vector from the "initial" section."""
    val = _require(section, name, "initial")
    try:
        vec = np.asarray(val, dtype=float)
    except (TypeError, ValueError, OverflowError):
        vec = np.empty(0)
    if (vec.shape != (2,) or not np.isfinite(vec).all()
            or any(type(v) not in (int, float) for v in val)):
        raise ValueError(f"initial.{name}={val!r} must be a list of two "
                         f"finite numbers")
    return vec


def _build(cls, raw: dict, where: str, extra=(), **parsed):
    """cls from the config section `where`: each field
    of cls that the section gives, or that has no default, read by _number
    with the kind of its annotation, the fields in `parsed` as given, and
    every other field left to its default. A key that is neither a field
    nor in extra is rejected with a ValueError naming it."""
    names = [f.name for f in fields(cls)]
    section = _section(raw, where, names + list(extra))
    kinds = get_type_hints(cls)
    kwargs = {f.name: _number(section, f.name, where, kinds[f.name])
              for f in fields(cls) if f.name not in parsed
              and (f.name in section or f.default is MISSING)}
    return cls(**kwargs, **parsed)


def _build_outputs(section: dict) -> dict:
    """Artifact file names: the defaults overridden by the "outputs"
    section. Unknown keys, names that are not non-empty strings, error.json
    (a failed run's report) and two keys naming one file are rejected with
    a ValueError naming the keys."""
    outputs = {**_DEFAULT_OUTPUTS, **_known(section, "outputs",
                                            _DEFAULT_OUTPUTS)}
    owner = {}
    for key, name in outputs.items():
        if not isinstance(name, str) or not name \
                or Path(name) == Path("error.json"):
            raise ValueError(f"outputs.{key}={name!r} must be a file name "
                             f"other than 'error.json'")
        if Path(name) in owner:
            raise ValueError(f"outputs.{owner[Path(name)]} and "
                             f"outputs.{key} both name {name!r}")
        owner[Path(name)] = key
    return outputs


def load_config(path) -> dict:
    """Read and schema-check a scenario configuration file."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("a scenario configuration must be a JSON object")
    if raw.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema {raw.get('schema')!r}; "
                         f"expected {SCHEMA_VERSION}")
    for section in ("plant", "observer", "controller", "initial"):
        if section not in raw:
            raise ValueError(f"missing required section '{section}'")
    return raw


def build_scenario(raw: dict) -> Scenario:
    """Validate a configuration dict and construct all domain objects.

    Every malformed field and every unknown key, of a section or of the
    top level, is rejected with a ValueError that names it, before
    anything is integrated."""
    _known(raw, "top-level", _TOP_LEVEL)
    params = _build(PlantParams, raw, "plant")
    obs = _section(raw, "observer", ("k1_plus", "k2_plus"))
    gains = complete_gains(params, _number(obs, "k1_plus", "observer"),
                           _number(obs, "k2_plus", "observer"))
    cert = solve_common_lyapunov(gains)

    ctl = _section(raw, "controller")
    parsed = {}
    if "h_schedule" in ctl:
        try:
            parsed["h_schedule"] = parse_h_schedule(ctl["h_schedule"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"controller.h_schedule={ctl['h_schedule']!r}: "
                             f"{exc}") from exc
    cfg = _build(ControllerConfig, raw, "controller", ("k",), **parsed)
    # the dwell-time certificates need the band d/c - epsilon to be positive;
    # rejecting here avoids integrating a run whose report cannot be built
    if not cfg.epsilon < params.d / params.c:
        raise ValueError(f"controller.epsilon={cfg.epsilon} must be below "
                         f"d/c={params.d / params.c}")
    if "k" in ctl:
        k = _number(ctl, "k", "controller")
        if k <= 0:
            raise ValueError(f"control gain k must be positive, got {k}")
    else:
        k = derive_control_gain(params, cfg, cert.gamma)

    solver = _build(SolverConfig, raw, "solver")
    init = _section(raw, "initial", ("z0", "z_hat0"))
    return Scenario(raw=raw, params=params, gains=gains, cert=cert,
                    cfg=cfg, solver=solver, z0=_state(init, "z0"),
                    z_hat0=_state(init, "z_hat0"), k=k,
                    outputs=_build_outputs(_section(raw, "outputs")))


def _plot_files(out: Path, outputs: dict) -> list:
    return [(out / outputs["phase_csv"], _PHASE_COLUMNS),
            (out / outputs["timeseries_csv"], _TIMESERIES_COLUMNS)]


def _csv_columns(traj: HybridTrajectory, u=None):
    """block(lo, hi) for csvwriter.write_csvs: every column the CSV files
    can name, of rows lo:hi, as arrays. The stored ones are
    HybridTrajectory.block's, and the others are derived here: the
    estimates z1_hat and z2_hat, and, when u = (params, k) is given, the
    certainty-equivalence control u = a z1 zhat2 - k (z1 - z*)."""
    def block(lo: int, hi: int) -> dict:
        c = traj.block(lo, hi)
        c["i"] = c["cycle"]
        c["z1_hat"] = c["z1"] + c["z_tilde1"]
        c["z2_hat"] = c["z2"] + c["z_tilde2"]
        if u is not None:
            params, k = u
            c["u"] = params.a * c["z1"] * c["z2_hat"] \
                - k * (c["z1"] - c["z_star"])
        return c
    return block


def write_trajectory_csv(scn: Scenario, traj: HybridTrajectory, path):
    """Write the three CSV files named by `scn.outputs` into the directory
    `path`: the full sample table (one row per trajectory sample) and the
    phase and time-series extracts of emit_plot_data.

    One pass of csvwriter.write_csvs formats each value once and writes
    the same string into every file that has its column; the bytes are
    those of formatting each file on its own.
    """
    from .csvwriter import write_csvs

    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    write_csvs(len(traj), _csv_columns(traj, (scn.params, scn.k)),
               [(out / scn.outputs["trajectory_csv"], CSV_COLUMNS)]
               + _plot_files(out, scn.outputs))


def emit_plot_data(traj: HybridTrajectory, path) -> tuple:
    """Write the plotting extracts phase.csv (z1, z2) and timeseries.csv
    (t, z1, z2, z1_hat, z2_hat, z_star) into the directory `path`, through
    the one-pass writer of write_trajectory_csv; returns the two paths. An
    empty trajectory raises ValueError.
    """
    from .csvwriter import write_csvs

    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    files = _plot_files(out, _DEFAULT_OUTPUTS)
    write_csvs(len(traj), _csv_columns(traj), files)
    return files[0][0], files[1][0]


def _dwell_reports_per_cycle(traj: HybridTrajectory, slices: dict) -> dict:
    reports = {}
    for i, sl in slices.items():
        try:
            reports[str(i)] = extract_dwell(traj, sl).to_dict()
        except NoExcitation as exc:
            reports[str(i)] = {"error": str(exc)}
    return reports


def _resolve_checks(checks: str) -> tuple:
    if checks == "all":
        return CHECK_NAMES
    if checks == "none":
        return ()
    names = tuple(c.strip() for c in checks.split(",") if c.strip())
    unknown = set(names) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown check names {sorted(unknown)}; "
                         f"available: {CHECK_NAMES}")
    return names


def execute(scn: Scenario, out_dir, checks: str = "all") -> dict:
    """Run one scenario end to end and write all artifacts into out_dir.

    Returns the report dict (also written as JSON); the report field
    "all_checks_passed" is True iff every enabled check passed.
    """
    enabled = _resolve_checks(checks)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    traj = simulate(scn.params, scn.gains, scn.cert, scn.cfg, scn.solver,
                    scn.z0, scn.z_hat0, k=scn.k)

    slices = cycle_slices(traj)
    first_cycle = next(iter(slices))
    dwell_certs = {str(i): dwell_certificate(scn.params, scn.cfg, i).to_dict()
                   for i in slices if i >= 1}

    try:
        dwell_report = extract_dwell(traj)
        dwell_dict = dwell_report.to_dict()
        excitation_ok = dwell_report.assumption_holds
        assumption = (dwell_report.tau_d, dwell_report.tau_s,
                      dwell_report.z_under)
    except NoExcitation as exc:
        dwell_dict = {"error": str(exc)}
        excitation_ok = False
        # analytic fallback: the first cycle with a finite gap bound
        dc_anchor = dwell_certificate(scn.params, scn.cfg,
                                      max(2, first_cycle))
        assumption = (dc_anchor.tau_di, dc_anchor.tau_si,
                      dc_anchor.z_underbar_i)
    decay = decay_certificate(scn.gains, scn.cert, assumption)

    bounds = verify_bounds(traj, scn.params, scn.cfg, scn.cert, decay,
                           from_cycle=first_cycle)

    check_results = {**bounds.verdicts, "excitation": excitation_ok}
    all_passed = all(check_results[name] for name in enabled)

    warnings = []
    g_zero = g_converges_to_zero(scn.cfg.h_schedule)
    if not g_zero:
        warnings.append("g(i) does not converge to 0: the configured "
                        "h-schedule cannot drive the estimation error to "
                        "zero across cycles")

    last = traj.block(len(traj) - 1, len(traj))
    report = {
        "schema": SCHEMA_VERSION,
        "config": scn.raw,
        "control_gain_k": scn.k,
        "initial_cycle": first_cycle,
        "g_converges_to_zero": g_zero,
        "warnings": warnings,
        "certificates": {
            "lyapunov": scn.cert.to_dict(),
            "decay": decay.to_dict(),
            "dwell_per_cycle": dwell_certs,
        },
        "dwell_report": dwell_dict,
        "dwell_report_per_cycle": _dwell_reports_per_cycle(traj, slices),
        "bound_report": bounds.to_dict(),
        "checks": {"enabled": list(enabled), "results": check_results},
        "jumps": [{"t": jr.t, "j": jr.j, "kind": jr.kind.value}
                  for jr in traj.jumps],
        "samples": len(traj),
        "t_final": float(last["t"][0]),
        "cycles_reached": list(slices),
        "final_state": {
            "z": [float(last["z1"][0]), float(last["z2"][0])],
            "z_tilde": [float(last["z_tilde1"][0]),
                        float(last["z_tilde2"][0])],
            "z_star": float(last["z_star"][0]),
            "tau": float(last["tau"][0]),
        },
        "all_checks_passed": all_passed,
    }

    write_trajectory_csv(scn, traj, out)
    _write_json(out / scn.outputs["report_json"], report)
    return report


def _sanitize(obj):
    """Strict-JSON-safe copy: numpy scalars unwrapped, non-finite floats
    rendered as strings."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _write_json(path: Path, payload: dict):
    # via a temporary file: _finished takes any report on disk as complete
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(_sanitize(payload), fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _report_error(dest: Path, exc: Exception) -> dict:
    """Write `exc` as dest/error.json, echo it to stderr; the payload."""
    payload = {
        "schema": SCHEMA_VERSION,
        "error": {"type": type(exc).__name__, "message": str(exc)},
        "all_checks_passed": False,
    }
    dest.mkdir(parents=True, exist_ok=True)
    _write_json(dest / "error.json", payload)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return payload


def _set_by_path(cfg: dict, dotted: str, value):
    node = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValueError(f"--sweep path {dotted!r}: '{part}' is not a "
                             f"config section")
    node[parts[-1]] = value


def _parse_sweep(sweep: str) -> tuple:
    if "=" not in sweep:
        raise ValueError("--sweep expects PARAM=v1,v2,...")
    param, _, rest = sweep.partition("=")
    values = [json.loads(v) for v in rest.split(",") if v.strip()]
    if not values:
        raise ValueError("--sweep needs at least one value")
    return param.strip(), values


def _finished(cfg: dict, dest: Path) -> bool:
    """Whether a variant left its report or its error.json in dest."""
    if (dest / "error.json").exists():
        return True
    try:
        report = _build_outputs(_section(cfg, "outputs"))["report_json"]
    except ValueError:      # the variant would end in error.json
        return False
    return (dest / report).exists()


def run_scenario(config_path, out_dir=None, checks: str = "all",
                 sweep: str = None) -> int:
    """Execute a scenario configuration file.

    Writes trajectory CSV, plot extracts and the JSON report into out_dir
    (default: the config file's directory). Returns 0 iff every enabled
    check passed in every executed run; on a validation or runtime error an
    error JSON is written (and echoed to stderr) and 1 is returned.

    Each sweep variant is built and run on its own, with its own report or
    error JSON in its own directory, so a bad value in one variant does
    not stop the others; two values naming one directory are refused
    before anything runs. With more than one variant and more than one
    usable CPU, the variants run in forked lanes, one per share of the
    CPUs, and this process runs lane 0 itself (lanes.run_lanes); a variant
    whose lane crashed before it wrote a report gets an error.json naming
    LaneCrashed, and if a lane cannot be forked, the lanes already forked
    are ended and every variant without a report gets an error.json
    naming the OSError. Otherwise they run one after another in this
    process.
    """
    config_path = Path(config_path)
    out = Path(out_dir) if out_dir is not None else config_path.parent
    out.mkdir(parents=True, exist_ok=True)
    try:
        raw = load_config(config_path)
        if sweep is None:
            jobs = [(raw, out)]
        else:
            param, values = _parse_sweep(sweep)
            leaf = param.replace(".", "_")
            jobs = []
            for value in values:
                variant = copy.deepcopy(raw)
                _set_by_path(variant, param, value)
                dest = out / f"sweep_{leaf}={value}"
                if any(dest == other for _, other in jobs):
                    raise ValueError(f"--sweep values write one output "
                                     f"directory twice: {dest.name}")
                jobs.append((variant, dest))
    except _RUN_ERRORS as exc:
        _report_error(out, exc)
        return 1

    def _one(cfg, dest):
        # each variant is built here, so a bad value ends that variant
        # alone in its own error.json
        try:
            return execute(build_scenario(cfg), dest, checks=checks)
        except _RUN_ERRORS as exc:
            return _report_error(dest, exc)

    def _all_passed(lane_jobs) -> bool:
        # every variant runs, also after one has failed
        reports = [_one(cfg, dest) for cfg, dest in lane_jobs]
        return all(r.get("all_checks_passed", False) for r in reports)

    def _unfinished(lane_jobs, exc):
        for cfg, dest in lane_jobs:
            if not _finished(cfg, dest):
                _report_error(dest, exc)
                for tmp in dest.glob(".*.tmp"):     # killed in _write_json
                    tmp.unlink()

    def _crashed(lane_jobs, code):
        _unfinished(lane_jobs, LaneCrashed(
            f"the sweep lane that ran this variant ended with exit code "
            f"{code} before it wrote a report"))

    if len(jobs) > 1:
        from . import lanes

        cpus = lanes.lane_cpus(len(jobs))
        if cpus:
            try:
                return 0 if lanes.run_lanes(jobs, cpus, _all_passed,
                                            _crashed) else 1
            except OSError as exc:      # a lane could not be forked
                _unfinished(jobs, exc)
                return 1
    return 0 if _all_passed(jobs) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="xbstab",
        description="Simulate and certify the hybrid output-feedback "
                    "stabilizer on a scenario configuration.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario config")
    run_p.add_argument("config", help="path to a scenario JSON file")
    run_p.add_argument("--out", default=None,
                       help="output directory (default: config directory)")
    run_p.add_argument("--sweep", default=None, metavar="PARAM=a,b,c",
                       help="fan the scenario out over a dotted config "
                            "path, e.g. controller.k=400,500,600")
    run_p.add_argument("--checks", default="all",
                       help="'all', 'none', or a comma list of "
                            + "/".join(CHECK_NAMES))
    args = parser.parse_args(argv)
    return run_scenario(args.config, out_dir=args.out, checks=args.checks,
                        sweep=args.sweep)


if __name__ == "__main__":        # pragma: no cover
    sys.exit(main())
