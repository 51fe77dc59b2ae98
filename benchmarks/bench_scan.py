"""Time the grid-scan kernel and the grid CSV writer on the preset geometry,
and spot-check the kernel.

Reports the best of --repeats calls (after one warm-up call) of the kernel in
ms and Mcell/s and of `WorkspaceGrid.to_csv` in ms and MB/s, then re-solves
--samples random cells per pose with `cost_rigid` and exits non-zero if any
disagrees with the kernel.

Usage: python benchmarks/bench_scan.py [--step 0.05] [--repeats 3] [--t5 3000]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from cdpr import (PlatformPose, ScanRegion, Variant, cost_rigid, expand_planar,
                  load_table1_preset, scan)
from cdpr import _kernels as kernels


def spot_check(geom, xs, ys, t5, feasible, gamma, tensions, samples, seed) -> list[str]:
    """Cells where the kernel and the per-pose solve disagree. The kernel
    leaves bounds on T5 itself to its caller, so the per-pose solve lifts
    them too."""
    rng = np.random.default_rng(seed)
    errors = []
    for c in rng.choice(feasible.size, min(samples, feasible.size), replace=False):
        ix, iy = divmod(int(c), ys.size)
        ref = cost_rigid(geom, PlatformPose.planar(xs[ix], ys[iy]), t5,
                         enforce_t5_bounds=False)
        if ref.feasible_any != feasible[ix, iy]:
            errors.append(f"cell {(ix, iy)}: kernel {feasible[ix, iy]}, per pose {ref.feasible_any}")
        elif ref.feasible_any and not (
                np.isclose(gamma[ix, iy], ref.gamma, rtol=1e-9, atol=1e-6)
                and np.allclose(tensions[ix, iy], ref.T_opt, rtol=1e-9, atol=1e-6)):
            errors.append(f"cell {(ix, iy)}: kernel gamma {gamma[ix, iy]}, per pose {ref.gamma}")
    return errors


def best_of(repeats: int, fn) -> float:
    """Seconds of the fastest of `repeats` calls, after one warm-up call."""
    fn()
    best = np.inf
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--step", type=float, default=0.05)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--t5", type=float, default=3000.0)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    geom = expand_planar(load_table1_preset(), Variant.A)
    base = geom.scan
    region = ScanRegion(base.x_min, base.x_max, base.y_min, base.y_max, args.step)
    xs, ys = region.x_values(), region.y_values()
    common = dict(
        anchors=geom.anchors[:, :2],
        attachments=geom.attachments[:, :2],
        cb_fixed=geom.cb_pulleys_fixed[:, :2],
        cb_platform=geom.cb_pulleys_platform[:, :2],
        tmin=geom.tension_min,
        tmax=geom.tension_max,
        t5=args.t5,
        weight=geom.platform_mass * geom.gravity,
    )

    feasible, gamma, tensions = kernels.scan_cells(xs, ys, **common)
    best = best_of(args.repeats, lambda: kernels.scan_cells(xs, ys, **common))
    grid = scan(geom, region, args.t5, enforce_t5_bounds=False)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.csv"
        best_csv = best_of(args.repeats, lambda: grid.to_csv(path))
        csv_bytes = path.stat().st_size

    cells = region.nx * region.ny
    print(f"grid: {region.nx} x {region.ny} cells, step {args.step} m, T5 = {args.t5} N")
    print(f"  kernel: {best * 1e3:9.1f} ms  ({cells / best / 1e6:.2f} Mcell/s), "
          f"{int(feasible.sum())} reachable")
    print(f"  to_csv: {best_csv * 1e3:9.1f} ms  ({csv_bytes / best_csv / 1e6:.1f} MB/s), "
          f"{csv_bytes} bytes")
    errors = spot_check(geom, xs, ys, args.t5, feasible, gamma, tensions,
                        args.samples, args.seed)
    print(f"  spot check: {min(args.samples, cells) - len(errors)}/{min(args.samples, cells)} "
          "cells match cost_rigid")
    for e in errors:
        print(f"  {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
