"""Output checks, run after the timed region.

Every check returns a list of error strings; an operation with any error
counts as failed. For any seed the checks test that

* each CSV and its summary agree (area = count x step^2, covered fraction =
  count / cells, argmax and ranking taken from the CSV rows);
* grid cells drawn at random match per-pose `cost_rigid` / `cost_elastic`
  (reachability, gamma and tensions to the CSV's 6 significant digits, and
  for unions the first T5 that reaches the cell);
* every candidate-feasible cell or pose is feasible for `nullspace_oracle`,
  and every feasible pose's tensions balance the wrench, recomputed here from
  the geometry arrays.

For the default seed the SHA-256 of each output is also pinned.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

GRID_HEADER = "x_m,y_m,reachable,gamma_N,T1_N,T2_N,T3_N,T4_N,T5_N"
REL = 1e-5      # the CSV keeps 6 significant digits
ABS = 1e-6      # N; kernel and per-pose solves differ by rounding near zero
SPOT_SPLIT = (10, 10, 10, 10)   # spot cells: uniform, reachable, unreachable, boundary


def _close(a, b) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b)) + ABS


def _rows(path: Path, header: str, errors: list) -> list:
    text = Path(path).read_text()
    if not text.endswith("\n"):
        errors.append(f"{path.name}: no final newline")
    lines = text[:-1].split("\n")
    if lines[0] != header:
        errors.append(f"{path.name}: header {lines[0]!r}")
    return [line.split(",") for line in lines[1:]]


def _summary(prefix: Path) -> dict:
    return json.loads(prefix.with_suffix(".summary.json").read_text())


def digests(prefix: Path) -> list[str]:
    return [hashlib.sha256(prefix.with_suffix(s).read_bytes()).hexdigest()
            for s in (".csv", ".summary.json")]


def pose_digest(results) -> str:
    h = hashlib.sha256()
    for feas, gamma, T, oracle, _ in results:
        vals = [] if T is None else [gamma, *T]
        h.update((f"{int(feas)},{int(oracle)}," + ",".join(f"{v:.6g}" for v in vals)
                  + "\n").encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Grid outputs: workspace and active-t5.

def read_grid(path: Path, region, errors: list):
    """Parse a per-cell CSV into reach (nx, ny) and values (nx, ny, 6):
    gamma, T1..T5, NaN where unreachable. Checks row order and formatting."""
    nx, ny = region.nx, region.ny
    rows = _rows(path, GRID_HEADER, errors)
    if len(rows) != nx * ny or any(len(r) != 9 for r in rows):
        errors.append(f"{path.name}: {len(rows)} rows, expected {nx * ny} of 9 fields")
        return None, None
    cols = list(zip(*rows))
    xs = [f"{v:.6g}" for v in region.x_values()]
    ys = [f"{v:.6g}" for v in region.y_values()]
    if list(cols[0]) != xs * ny or list(cols[1]) != [y for y in ys for _ in range(nx)]:
        errors.append(f"{path.name}: x/y columns are not the y-major grid")
    flags = np.array(cols[2])
    if not np.all((flags == "0") | (flags == "1")):
        errors.append(f"{path.name}: reachable flag other than 0/1")
    reach = flags == "1"
    vals = np.fromiter(map(float, (v or "nan" for c in cols[3:] for v in c)), float,
                       6 * nx * ny).reshape(6, -1).T
    empty = np.isnan(vals)
    if np.any(empty[reach]) or not np.all(empty[~reach]):
        errors.append(f"{path.name}: value fields do not match the reachable flag")
        return None, None
    return reach.reshape(ny, nx).T, vals.reshape(ny, nx, 6).transpose(1, 0, 2)


def check_grid_consistency(name, reach, vals, geom, summary, errors):
    """Per-cell values against each other and the summary against the map."""
    count, total = int(reach.sum()), reach.size
    step = summary.get("step_m")
    T = vals[reach][:, 1:5]
    if not np.allclose(np.linalg.norm(T, axis=1), vals[reach][:, 0], rtol=REL, atol=ABS):
        errors.append(f"{name}: gamma is not the norm of T1..T4")
    tol = REL * np.abs(T) + ABS
    if np.any(T < geom.tension_min[:4] - tol) or np.any(T > geom.tension_max[:4] + tol):
        errors.append(f"{name}: a driven tension lies outside its bounds")
    corners = [bool(reach[0, 0]), bool(reach[-1, 0]), bool(reach[0, -1]), bool(reach[-1, -1])]
    expect = {"reachable_cells": count, "total_cells": total,
              "area_m2": float(count) * step ** 2, "covered_fraction": count / total,
              "corners_covered": corners}
    for key, want in expect.items():
        if summary.get(key) != want:
            errors.append(f"{name}: summary {key} = {summary.get(key)!r}, map gives {want!r}")


def _spot_cells(reach, rng) -> list:
    """Cells to re-solve per pose: uniform, reachable, unreachable, and
    reachable cells on the map's boundary."""
    nx, ny = reach.shape
    pad = np.pad(reach, 1, constant_values=False)
    edge = reach & ~(pad[:-2, 1:-1] & pad[2:, 1:-1] & pad[1:-1, :-2] & pad[1:-1, 2:])
    picks = [np.arange(reach.size)]
    for mask in (reach, ~reach, edge):
        picks.append(np.flatnonzero(mask))
    cells = []
    for pool, k in zip(picks, SPOT_SPLIT):
        if pool.size:
            cells.extend(rng.choice(pool, min(k, pool.size), replace=False).tolist())
    return [divmod(c, ny) for c in cells]


def check_map(api, prefix: Path, geom, region, rng, t5_values, cost, summary_keys) -> list:
    """A per-cell map written by `workspace` (one T5) or `active-t5`. Each
    drawn cell must hold the solution of the first T5 in `t5_values` for
    which `cost(pose, t5)`, the per-pose reference, is feasible."""
    errors, name = [], prefix.name
    reach, vals = read_grid(prefix.with_suffix(".csv"), region, errors)
    if reach is None:
        return errors
    summary = _summary(prefix)
    check_grid_consistency(name, reach, vals, geom, summary, errors)
    for key, want in summary_keys.items():
        if summary.get(key) != want:
            errors.append(f"{name}: summary {key} = {summary.get(key)!r}, expected {want!r}")
    # The T5 values drawn are whole newtons below 1e6, exact at 6 digits.
    if not np.all(np.isin(vals[reach][:, 5], t5_values)):
        errors.append(f"{name}: a T5 column value is not one of the T5 values asked for")
    xs, ys = region.x_values(), region.y_values()
    for ix, iy in _spot_cells(reach, rng):
        pose = api.PlatformPose.planar(xs[ix], ys[iy])
        for t5 in t5_values:
            res = cost(pose, t5)
            if res.feasible_any:
                break
        where = f"{name}: cell {(ix, iy)}"
        if res.feasible_any != reach[ix, iy]:
            errors.append(f"{where} reachable={reach[ix, iy]}, per pose {res.feasible_any}")
            continue
        if not reach[ix, iy]:
            continue
        got, want = vals[ix, iy], [res.gamma, *res.T_opt, t5]
        if not all(_close(a, b) for a, b in zip(got, want)):
            errors.append(f"{where} CSV {got.tolist()} vs per pose {want}")
        if not api.nullspace_oracle(geom, pose, t5):
            errors.append(f"{where} feasible but the null-space oracle denies it")
    return errors


# ---------------------------------------------------------------------------
# Sweep outputs: one area per sample, no per-cell data.

def _counts(name, rows, total, step, errors) -> list[int]:
    """Recover each sample's reachable count from its area and check that
    the covered fraction gives the same count."""
    counts = []
    for r in rows:
        n = int(round(float(r[-2]) / step ** 2))
        if f"{float(n) * step ** 2:.6g}" != r[-2] or f"{n / total:.6g}" != r[-1] \
                or not 0 <= n <= total:
            errors.append(f"{name}: row {r} is not count x step^2 for one count")
        counts.append(n)
    return counts


def _keys(rows, cols) -> list:
    return [tuple(r[c] for c in cols) for r in rows]


def check_sweep_t5(prefix: Path, op, region, gravity, cb_count) -> list:
    errors, name = [], prefix.name
    rows = _rows(prefix.with_suffix(".csv"), "param,value,area_m2,covered_fraction", errors)
    values = sorted(set(op.params["values"]))
    if _keys(rows, (0, 1)) != [("t5", f"{v:.6g}") for v in values]:
        return errors + [f"{name}: rows do not list the T5 values in order"]
    counts = _counts(name, rows, region.nx * region.ny, region.step, errors)
    best = int(np.argmax(counts))
    s = _summary(prefix)
    force = cb_count * values[best]
    expect = {"param": "t5", "argmax_t5_N": values[best],
              "argmax_area_m2": float(counts[best]) * region.step ** 2,
              "counterweight_force_N": force, "counterweight_mass_kg": force / gravity}
    for key, want in expect.items():
        if s.get(key) != want:
            errors.append(f"{name}: summary {key} = {s.get(key)!r}, CSV gives {want!r}")
    return errors


def check_sweep_wp(prefix: Path, op, region) -> list:
    errors, name = [], prefix.name
    rows = _rows(prefix.with_suffix(".csv"), "t5_N,param,value,area_m2,covered_fraction", errors)
    wps, t5s = sorted(set(op.params["values"])), sorted(set(op.params["t5_values"]))
    if _keys(rows, (0, 1, 2)) != [(f"{t:.6g}", "wp", f"{w:.6g}") for t in t5s for w in wps]:
        return errors + [f"{name}: rows do not list (T5, w_p) in order"]
    counts = np.array(_counts(name, rows, region.nx * region.ny, region.step, errors))
    counts = counts.reshape(len(t5s), len(wps))
    s = _summary(prefix)
    expect = {"param": "wp",
              "aggregate_argmax_wp_m": wps[int(np.argmax(counts.sum(axis=0)))],
              "per_t5_argmax_wp_m": {f"{t:g}": wps[int(np.argmax(c))]
                                     for t, c in zip(t5s, counts)}}
    for key, want in expect.items():
        if s.get(key) != want:
            errors.append(f"{name}: summary {key} = {s.get(key)!r}, CSV gives {want!r}")
    return errors


def check_compare(prefix: Path, op, region) -> list:
    errors, name = [], prefix.name
    rows = _rows(prefix.with_suffix(".csv"), "variant,param,value,area_m2,covered_fraction", errors)
    variants, t5s = op.params["variants"], sorted(set(op.params["t5_values"]))
    if _keys(rows, (0, 1, 2)) != [(v, "t5", f"{t:.6g}") for v in variants for t in t5s]:
        return errors + [f"{name}: rows do not list (variant, T5) in order"]
    counts = np.array(_counts(name, rows, region.nx * region.ny, region.step, errors))
    peak = dict(zip(variants, counts.reshape(len(variants), len(t5s)).max(axis=1).tolist()))
    s = _summary(prefix)
    expect = {"wp_m": op.params["wp"],
              "ranking": sorted(variants, key=lambda v: peak[v], reverse=True),
              "peak_area_m2": {v: float(n) * region.step ** 2 for v, n in peak.items()}}
    for key, want in expect.items():
        if s.get(key) != want:
            errors.append(f"{name}: summary {key} = {s.get(key)!r}, CSV gives {want!r}")
    return errors


# ---------------------------------------------------------------------------
# Pose queries.

def wrench_residual(geom, x: float, y: float, t5: float, T) -> float:
    """|A T - u| for the planar driven-cable structure matrix A and the wrench
    u left after the counterbalance, both rebuilt from the geometry arrays."""
    p = np.array([x, y])
    att, anc = geom.attachments[:, :2], geom.anchors[:, :2]
    l = p + att - anc
    u = -l / np.linalg.norm(l, axis=1)[:, None]
    A = np.vstack([u[:, 0], u[:, 1], att[:, 0] * u[:, 1] - att[:, 1] * u[:, 0]])
    cbp, cbf = geom.cb_pulleys_platform[:, :2], geom.cb_pulleys_fixed[:, :2]
    d = p + cbp - cbf
    v = -d / np.linalg.norm(d, axis=1)[:, None]
    F = t5 * np.array([v[:, 0].sum(), v[:, 1].sum(),
                       (cbp[:, 0] * v[:, 1] - cbp[:, 1] * v[:, 0]).sum()])
    wrench = np.array([0.0, geom.platform_mass * geom.gravity, 0.0]) - F
    return float(np.abs(A @ np.asarray(T) - wrench).max())


def check_pose(op, result, geom) -> list:
    feas, gamma, T, oracle, cw_force = result
    p = op.params
    where = f"pose ({p['x']:.6g}, {p['y']:.6g}) t5={p['t5']:.6g}"
    errors = []
    if cw_force != geom.cb_cable_count * p["t5"]:
        errors.append(f"{where}: counterweight force {cw_force}")
    if not feas:
        return errors
    if not oracle:
        errors.append(f"{where}: feasible but the null-space oracle denies it")
    T = np.asarray(T)
    if wrench_residual(geom, p["x"], p["y"], p["t5"], T) > 1e-8 * max(1.0, np.abs(T).max()):
        errors.append(f"{where}: T_opt does not balance the wrench")
    if np.any(T < geom.tension_min[:4] - 1e-6) or np.any(T > geom.tension_max[:4] + 1e-6):
        errors.append(f"{where}: T_opt outside the tension bounds")
    if not _close(gamma, float(np.linalg.norm(T))):
        errors.append(f"{where}: gamma {gamma} is not |T_opt|")
    return errors
