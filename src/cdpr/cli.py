"""Command-line interface.

Subcommands: ik, tensions, workspace, sweep, compare, active-t5. Every
output-producing command writes a JSON manifest next to its outputs so a run
can be reproduced exactly. Exit codes: 0 success, 2 input/validation error,
3 singular pose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigurationError,
    GeometryError,
    GeometryParseError,
    SingularConfigurationError,
    SingularPoseError,
)
from .geometry import (
    PlanarCaseGeometry,
    PlatformPose,
    RobotGeometry,
    ScanRegion,
    Variant,
    expand_planar,
    load_geometry,
    table1_preset_path,
)
from .kinematics import cable_state
from .optimize import compare_configs, counterweight, sweep_t5, sweep_wp, write_sweeps_csv
from .statics import candidate_tensions, cost_rigid, nullspace_oracle
from .workspace import coverage, scan, union_scan

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SINGULAR = 3


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("CDPR_JOBS", "1")))
    except ValueError:
        return 1


def _parse_values(spec: str) -> list[float]:
    """Either a comma list '0,250,500' or an inclusive range 'lo:hi:step'."""
    spec = spec.strip()
    if ":" in spec:
        lo, hi, step = (float(v) for v in spec.split(":"))
        if step <= 0 or hi < lo:
            raise ConfigurationError(f"bad range {spec!r}")
        n = int(np.floor((hi - lo) / step + 1e-9)) + 1
        return [lo + i * step for i in range(n)]
    return [float(v) for v in spec.split(",")]


def _load(args) -> tuple[RobotGeometry, PlanarCaseGeometry | None, Path]:
    path = table1_preset_path() if args.preset else Path(args.geometry)
    geom = load_geometry(path)
    if isinstance(geom, PlanarCaseGeometry):
        return expand_planar(geom, Variant(args.variant)), geom, path
    return geom, None, path


def _region(args, geom: RobotGeometry) -> ScanRegion:
    base = geom.scan
    if base is None:
        raise ConfigurationError(
            "geometry carries no scan region; add a 'scan' block to the file")
    if args.step is not None:
        base = ScanRegion(base.x_min, base.x_max, base.y_min, base.y_max, args.step)
    return base


class _Clock:
    """Phase timings of one command: mark(phase) records the seconds since
    the previous mark, or since the command started."""

    def __init__(self):
        self.t0 = self._last = time.perf_counter()
        self.timings_s: dict[str, float] = {}

    def mark(self, phase: str) -> None:
        now = time.perf_counter()
        self.timings_s[phase] = now - self._last
        self._last = now


def _emit(out: str, command: str, params: dict, geometry_path: Path, write_csv,
          summary: dict, clock: _Clock, counters: dict) -> None:
    """Write a command's outputs under the `out` prefix: the CSV (through
    write_csv(path)), the summary JSON, then the manifest with the phase
    timings and counters."""
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    csv_path = out.with_suffix(".csv")
    summary_path = out.with_suffix(".summary.json")
    write_csv(csv_path)
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    clock.mark("write")
    manifest = {
        "command": command,
        "parameters": params,
        "geometry_file": str(geometry_path),
        "geometry_sha256": hashlib.sha256(geometry_path.read_bytes()).hexdigest(),
        "outputs": [str(csv_path), str(summary_path)],
        "tool_version": __version__,
        "timings_s": clock.timings_s,
        "counters": counters,
        "wall_time_s": time.perf_counter() - clock.t0,
    }
    out.with_suffix(".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _grid_counters(grid, scans: int) -> dict:
    return {"scans": scans, "cells": int(grid.reachable.size),
            "reachable_cells": int(grid.reachable.sum())}


def _cmd_ik(args) -> int:
    geom, _, _ = _load(args)
    if geom.scan is not None:
        r = geom.scan
        if not (r.x_min <= args.x <= r.x_max and r.y_min <= args.y <= r.y_max):
            print(f"warning: ({args.x}, {args.y}) lies outside the scan region",
                  file=sys.stderr)
    state = cable_state(geom, PlatformPose.planar(args.x, args.y))
    for i in range(geom.n):
        u = state.u_hat[i]
        print(f"cable {i + 1}: length {state.l_len[i]:.4f} m  "
              f"unit [{u[0]:+.6f}, {u[1]:+.6f}, {u[2]:+.6f}]")
    for j in range(geom.m):
        v = state.v_hat[j]
        print(f"counterbalance {j + 1}: length {state.d_len[j]:.4f} m  "
              f"unit [{v[0]:+.6f}, {v[1]:+.6f}, {v[2]:+.6f}]")
    return EXIT_OK


def _cmd_tensions(args) -> int:
    geom, _, _ = _load(args)
    pose = PlatformPose.planar(args.x, args.y)
    result = cost_rigid(geom, pose, args.t5)
    for c in result.candidates:
        tail = "invalid (near-singular block)" if not c.valid else \
            f"T = [{', '.join(f'{t:.3f}' for t in c.T)}] N  " \
            f"norm {c.norm:.3f} N  {'feasible' if c.feasible else 'infeasible'}"
        print(f"candidate {c.candidate_index} (T{c.candidate_index} clamped): {tail}")
    print(f"feasible_any = {result.feasible_any}")
    if result.feasible_any:
        print(f"gamma = {result.gamma:.6f} N")
        print(f"T_opt = [{', '.join(f'{t:.3f}' for t in result.T_opt)}] N")
    print(f"nullspace oracle = {nullspace_oracle(geom, pose, args.t5)}")
    cw = counterweight(args.t5, geom.cb_cable_count, geom.gravity)
    print(f"counterweight: {cw.force_N:.3f} N ({cw.mass_kg:.3f} kg)")
    return EXIT_OK


def _cmd_workspace(args) -> int:
    clock = _Clock()
    geom, _, gpath = _load(args)
    region = _region(args, geom)
    clock.mark("load")
    grid = scan(geom, region, args.t5, mode=args.mode, jobs=args.jobs)
    clock.mark("compute")
    cov = coverage(grid, region)
    clock.mark("coverage")
    summary = {
        **grid.summary(),
        "t5_N": args.t5,
        "mode": args.mode,
        "covered_fraction": cov.covered_fraction,
        "corners_covered": list(cov.corners_covered),
    }
    _emit(args.out, "workspace",
          {"t5": args.t5, "step": region.step, "mode": args.mode,
           "jobs": args.jobs, "variant": args.variant},
          gpath, grid.to_csv, summary, clock, _grid_counters(grid, 1))
    print(f"area = {grid.area_m2:.4f} m^2  covered fraction = {cov.covered_fraction:.4f}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    clock = _Clock()
    geom, planar, gpath = _load(args)
    region = _region(args, geom)
    values = _parse_values(args.values)
    if args.param == "wp":
        if planar is None:
            raise ConfigurationError("wp sweep requires a planar_case geometry file")
        t5_values = _parse_values(args.t5_values)
    clock.mark("load")
    if args.param == "t5":
        result = sweep_t5(geom, values, region, jobs=args.jobs)
        clock.mark("compute")
        write_csv = result.to_csv
        scans = len(result.values)
        summary = {
            "param": "t5",
            "argmax_t5_N": result.argmax_value,
            "argmax_area_m2": result.argmax_area,
        }
        if 0.0 in result.values:
            base = result.areas[result.values.index(0.0)]
            if base > 0:
                # percent gain of the best sample over the zero-tension baseline
                summary["gain_vs_zero_percent"] = (result.argmax_area / base - 1) * 100
        cw = counterweight(result.argmax_value, geom.cb_cable_count, geom.gravity)
        summary["counterweight_force_N"] = cw.force_N
        summary["counterweight_mass_kg"] = cw.mass_kg
    else:
        outcome = sweep_wp(planar, values, t5_values, region,
                           variant=Variant(args.variant), jobs=args.jobs)
        clock.mark("compute")
        parts = [({"t5_N": f"{t5:.6g}"}, res) for t5, res in outcome.per_t5.items()]
        write_csv = lambda path: write_sweeps_csv(path, parts)
        scans = sum(len(res.values) for _, res in parts)
        summary = {
            "param": "wp",
            "aggregate_argmax_wp_m": outcome.aggregate_argmax_wp,
            "per_t5_argmax_wp_m": {f"{t5:g}": r.argmax_value
                                   for t5, r in outcome.per_t5.items()},
        }
    _emit(args.out, "sweep",
          {"param": args.param, "values": args.values,
           "t5_values": args.t5_values, "jobs": args.jobs,
           "variant": args.variant, "step": region.step},
          gpath, write_csv, summary, clock,
          {"scans": scans, "cells": region.nx * region.ny})
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_compare(args) -> int:
    clock = _Clock()
    geom, planar, gpath = _load(args)
    if planar is None:
        raise ConfigurationError("compare requires a planar_case geometry file")
    region = _region(args, geom)
    variants = [Variant(v.strip()) for v in args.variants.split(",")]
    t5_values = _parse_values(args.t5_values)
    clock.mark("load")
    results = compare_configs(planar, variants, args.wp, t5_values, region,
                              jobs=args.jobs)
    clock.mark("compute")
    parts = [({"variant": v.value}, res) for v, res in results.items()]
    ranking = sorted(results, key=lambda v: results[v].argmax_area, reverse=True)
    summary = {
        "wp_m": args.wp,
        "ranking": [v.value for v in ranking],
        "peak_area_m2": {v.value: results[v].argmax_area for v in results},
    }
    _emit(args.out, "compare",
          {"variants": args.variants, "wp": args.wp,
           "t5_values": args.t5_values, "jobs": args.jobs,
           "step": region.step},
          gpath, lambda path: write_sweeps_csv(path, parts), summary, clock,
          {"scans": sum(len(res.values) for _, res in parts),
           "cells": region.nx * region.ny})
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_active_t5(args) -> int:
    clock = _Clock()
    geom, _, gpath = _load(args)
    region = _region(args, geom)
    t5_values = _parse_values(args.t5_range)
    clock.mark("load")
    grid = union_scan(geom, region, t5_values,
                      enforce_t5_bounds=not args.ignore_t5max, jobs=args.jobs)
    clock.mark("compute")
    cov = coverage(grid, region)
    clock.mark("coverage")
    summary = {
        **grid.summary(),
        "t5_range": args.t5_range,
        "ignore_t5max": bool(args.ignore_t5max),
        "covered_fraction": cov.covered_fraction,
        "corners_covered": list(cov.corners_covered),
    }
    _emit(args.out, "active-t5",
          {"t5_range": args.t5_range, "ignore_t5max": bool(args.ignore_t5max),
           "jobs": args.jobs, "step": region.step},
          gpath, grid.to_csv, summary, clock, _grid_counters(grid, len(t5_values)))
    print(f"union area = {grid.area_m2:.4f} m^2  "
          f"covered fraction = {cov.covered_fraction:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdpr",
        description="Workspace analysis and counterbalance design for "
                    "cable-driven parallel robots",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_out=True):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--geometry", help="geometry JSON file")
        src.add_argument("--preset", action="store_true",
                         help="use the bundled benchmark geometry")
        p.add_argument("--variant", default="A", choices=["A", "B", "C", "D"],
                       help="counterbalance routing for planar_case files")
        p.add_argument("--jobs", type=int, default=_default_jobs(),
                       help="worker threads (env CDPR_JOBS)")
        if needs_out:
            p.add_argument("--out", required=True,
                           help="output path prefix (writes .csv, .summary.json, "
                                ".manifest.json)")

    p = sub.add_parser("ik", help="cable lengths and directions at a pose")
    add_common(p, needs_out=False)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.set_defaults(fn=_cmd_ik)

    p = sub.add_parser("tensions", help="candidate tension solutions at a pose")
    add_common(p, needs_out=False)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--t5", type=float, required=True,
                   help="counterbalance cable tension (N)")
    p.set_defaults(fn=_cmd_tensions)

    p = sub.add_parser("workspace", help="reachable-workspace grid scan")
    add_common(p)
    p.add_argument("--t5", type=float, required=True)
    p.add_argument("--step", type=float, default=None,
                   help="grid step override (m)")
    p.add_argument("--mode", default="rigid", choices=["rigid", "elastic"])
    p.set_defaults(fn=_cmd_workspace)

    p = sub.add_parser("sweep", help="parameter sweep (pulley span or tension)")
    add_common(p)
    p.add_argument("--param", required=True, choices=["wp", "t5"])
    p.add_argument("--values", required=True,
                   help="comma list or lo:hi:step range")
    p.add_argument("--t5-values", default="1000:5000:1000",
                   help="tension set for wp sweeps")
    p.add_argument("--step", type=float, default=None)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("compare", help="compare counterbalance routing variants")
    add_common(p)
    p.add_argument("--variants", default="A,B,C,D")
    p.add_argument("--wp", type=float, default=13.0)
    p.add_argument("--t5-values", default="0:5000:250")
    p.add_argument("--step", type=float, default=None)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("active-t5",
                       help="union workspace with the counterbalance tension "
                            "as a control input")
    add_common(p)
    p.add_argument("--t5-range", default="0:26000:250")
    p.add_argument("--ignore-t5max", action="store_true",
                   help="lift the counterbalance tension upper bound")
    p.add_argument("--step", type=float, default=None)
    p.set_defaults(fn=_cmd_active_t5)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SingularPoseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SINGULAR
    except (GeometryError, GeometryParseError, ConfigurationError,
            SingularConfigurationError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
