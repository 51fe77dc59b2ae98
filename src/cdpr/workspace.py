"""Reachable-workspace grid scan and coverage reporting.

A pose (x, y) is reachable when at least one clamped-cable candidate tension
vector balances gravity and the counterbalance within the tension bounds.
The scan walks a rectangular grid, classifies every cell, and reports the
reachable area as cell count times step squared.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import ConfigurationError, GeometryError
from .geometry import RobotGeometry, ScanRegion
from .statics import TOL_TENSION, _validate_t5

__all__ = ["WorkspaceGrid", "CoverageReport", "scan", "union_scan", "coverage",
           "completeness_gap"]


@dataclass(frozen=True)
class WorkspaceGrid:
    """Scan result. Arrays are indexed [ix, iy] with x and y ascending;
    CSV export iterates y in the outer loop (y-major)."""

    region: ScanRegion
    reachable: np.ndarray   # (nx, ny) bool
    gamma: np.ndarray       # (nx, ny), NaN where unreachable
    tensions: np.ndarray    # (nx, ny, 5): driven T1..T4 and the counterbalance
                            # tension that realized the cell (NaN when unreachable)

    @property
    def x_values(self) -> np.ndarray:
        return self.region.x_values()

    @property
    def y_values(self) -> np.ndarray:
        return self.region.y_values()

    @property
    def area_m2(self) -> float:
        return float(self.reachable.sum()) * self.region.step ** 2

    def to_csv(self, path) -> None:
        """Write one row per cell: x_m,y_m,reachable,gamma_N,T1_N..T5_N,
        numbers at 6 significant digits, NaN as an empty field.

        Rows are y-major. Each y-row is formatted column by column from
        Python floats and written as one block, so only one row's strings
        are held at a time."""
        xs = [f"{v:.6g}" for v in self.x_values.tolist()]
        ys = [f"{v:.6g}" for v in self.y_values.tolist()]
        with open(path, "w") as f:
            f.write("x_m,y_m,reachable,gamma_N,T1_N,T2_N,T3_N,T4_N,T5_N\n")
            for iy, y in enumerate(ys):
                reach = ["1" if r else "0" for r in self.reachable[:, iy].tolist()]
                cols = [["" if v != v else f"{v:.6g}" for v in col.tolist()]
                        for col in (self.gamma[:, iy], *self.tensions[:, iy].T)]
                rows = zip(xs, itertools.repeat(y), reach, *cols)
                f.write("\n".join(map(",".join, rows)) + "\n")

    def summary(self) -> dict:
        return {
            "area_m2": self.area_m2,
            "reachable_cells": int(self.reachable.sum()),
            "total_cells": int(self.reachable.size),
            "step_m": self.region.step,
        }


@dataclass(frozen=True)
class CoverageReport:
    reachable_area_m2: float
    desired_area_m2: float
    covered_fraction: float
    # corner order: (x_min,y_min), (x_max,y_min), (x_min,y_max), (x_max,y_max)
    corners_covered: tuple

    @property
    def bottom_corners_covered(self) -> bool:
        return self.corners_covered[0] and self.corners_covered[1]


def _geometry_planar_arrays(geom: RobotGeometry):
    if geom.n != 4:
        raise ConfigurationError("grid scan supports the four-cable planar case")
    if np.any(geom.anchors[:, 2]) or np.any(geom.attachments[:, 2]):
        raise ConfigurationError("grid scan requires planar geometry (z = 0)")
    return (geom.anchors[:, :2], geom.attachments[:, :2],
            geom.cb_pulleys_fixed[:, :2], geom.cb_pulleys_platform[:, :2])


def _scan_arrays(geom: RobotGeometry, region: ScanRegion, t5: float, mode: str,
                 enforce_t5_bounds: bool, jobs: int):
    anchors, attachments, cb_fixed, cb_platform = _geometry_planar_arrays(geom)
    xs, ys = region.x_values(), region.y_values()
    if mode not in ("rigid", "elastic"):
        raise ConfigurationError(f"unknown scan mode {mode!r}")
    elastic_on = mode == "elastic"
    if elastic_on and geom.elastic is None:
        raise ConfigurationError("elastic scan requires elastic parameters")
    if enforce_t5_bounds and geom.m and not (
            geom.cb_tension_min - TOL_TENSION <= t5 <= geom.cb_tension_max + TOL_TENSION):
        return (np.zeros((xs.size, ys.size), bool),
                np.full((xs.size, ys.size), np.nan),
                np.full((xs.size, ys.size, 4), np.nan))

    kwargs = dict(
        anchors=anchors, attachments=attachments, cb_fixed=cb_fixed,
        cb_platform=cb_platform, tmin=geom.tension_min, tmax=geom.tension_max,
        t5=t5, weight=geom.platform_mass * geom.gravity, elastic_on=elastic_on,
        ea=None if geom.elastic is None else geom.elastic.ea,
        l0_min=None if geom.elastic is None else geom.elastic.l0_min,
        l0_max=None if geom.elastic is None else geom.elastic.l0_max,
    )
    if jobs <= 1 or xs.size < 2 * jobs:
        return _kernels.scan_cells(xs, ys, **kwargs)

    # Cells are independent, so chunking x-rows across threads cannot change
    # the result; the kernel's numpy operations release the GIL.
    bounds = np.linspace(0, xs.size, jobs + 1).astype(int)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(
            lambda se: _kernels.scan_cells(xs[se[0]:se[1]], ys, **kwargs),
            zip(bounds[:-1], bounds[1:]),
        ))
    feas = np.concatenate([p[0] for p in parts], axis=0)
    gam = np.concatenate([p[1] for p in parts], axis=0)
    tens = np.concatenate([p[2] for p in parts], axis=0)
    return feas, gam, tens


def scan(geom: RobotGeometry, region: ScanRegion, t5: float,
         mode: str = "rigid", *, enforce_t5_bounds: bool = True,
         jobs: int = 1) -> WorkspaceGrid:
    """Classify every grid cell at a fixed counterbalance tension."""
    _validate_t5(t5)
    feas, gam, tens4 = _scan_arrays(geom, region, t5, mode, enforce_t5_bounds, jobs)
    tens = np.concatenate(
        [tens4, np.where(feas, float(t5), np.nan)[..., None]], axis=-1)
    return WorkspaceGrid(region=region, reachable=feas, gamma=gam, tensions=tens)


def union_scan(geom: RobotGeometry, region: ScanRegion, t5_values,
               mode: str = "rigid", *, enforce_t5_bounds: bool = False,
               jobs: int = 1) -> WorkspaceGrid:
    """Union of workspaces over a set of counterbalance tensions (the
    counterbalance treated as a run-time control input). Each cell keeps the
    solution from the first tension value that reaches it. Bounds on the
    counterbalance tension are lifted by default."""
    t5_values = [float(v) for v in t5_values]
    if not t5_values:
        raise ConfigurationError("t5_values must be non-empty")
    for t5 in t5_values:
        _validate_t5(t5)
    reach = None
    for t5 in t5_values:
        g = scan(geom, region, t5, mode, enforce_t5_bounds=enforce_t5_bounds,
                 jobs=jobs)
        if reach is None:
            reach, gam, tens = g.reachable.copy(), g.gamma.copy(), g.tensions.copy()
            continue
        new = g.reachable & ~reach
        gam[new] = g.gamma[new]
        tens[new] = g.tensions[new]
        reach |= g.reachable
    return WorkspaceGrid(region=region, reachable=reach, gamma=gam, tensions=tens)


def coverage(grid: WorkspaceGrid, desired: ScanRegion) -> CoverageReport:
    """How much of the desired rectangle the reachable set covers, measured
    on the grid cells whose centers fall inside it."""
    if not grid.region.contains(desired):
        raise GeometryError("desired", "desired region must lie within the scanned region")
    xs, ys = grid.x_values, grid.y_values
    half = grid.region.step / 2
    in_x = (xs >= desired.x_min - half) & (xs <= desired.x_max + half)
    in_y = (ys >= desired.y_min - half) & (ys <= desired.y_max + half)
    mask = np.outer(in_x, in_y)
    total = int(mask.sum())
    covered = int((grid.reachable & mask).sum())

    def corner_cell(cx, cy):
        ix = int(np.argmin(np.abs(xs - cx)))
        iy = int(np.argmin(np.abs(ys - cy)))
        return bool(grid.reachable[ix, iy])

    corners = (
        corner_cell(desired.x_min, desired.y_min),
        corner_cell(desired.x_max, desired.y_min),
        corner_cell(desired.x_min, desired.y_max),
        corner_cell(desired.x_max, desired.y_max),
    )
    return CoverageReport(
        reachable_area_m2=grid.area_m2,
        desired_area_m2=desired.area_m2,
        covered_fraction=covered / total if total else 0.0,
        corners_covered=corners,
    )


def completeness_gap(geom: RobotGeometry, region: ScanRegion, t5: float):
    """Audit the clamped-candidate method against the null-space feasibility
    interval on the grid. Returns (unsound, incomplete): poses where the
    candidate method claims feasibility the interval denies (expected empty),
    and poses the interval reaches but no candidate does."""
    from .geometry import PlatformPose
    from .statics import cost_rigid, nullspace_oracle

    unsound, incomplete = [], []
    for x in region.x_values():
        for y in region.y_values():
            pose = PlatformPose.planar(x, y)
            cand = cost_rigid(geom, pose, t5, enforce_t5_bounds=False).feasible_any
            oracle = nullspace_oracle(geom, pose, t5)
            if cand and not oracle:
                unsound.append((x, y))
            elif oracle and not cand:
                incomplete.append((x, y))
    return unsound, incomplete
