"""Workload inputs, drawn from the seed, and the operations that use them.

A workload is an endless stream of rounds. A round is the workload's fixed
unit of work (one design answer, one pair of maps, one union map, or one batch
of pose queries) and is a list of operations. Every input comes from
``numpy.random.default_rng([seed, salt])``, so the same seed gives the same
stream; the program sees only the generated command lines, files and poses.

Grid workloads call the public CLI (`cdpr.cli.main`) in process; the pose
workload calls the per-pose API. Both are looked up on the package at call
time, so the traced run's wrappers take effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("design-sweep", "map-export", "active-union", "pose-queries")

PRESET_REL = Path("src/cdpr/data/table1_configA.json")
T5_RANGE_N = (0, 5000)        # the paper's counterbalance tension range
WP_RANGE_CM = (800, 1400)     # pulley span 8-14 m, drawn in whole centimetres
UNION_VALUES = 8              # T5 values per active-t5 call
POSE_BATCH = 200              # poses per pose-queries round


@dataclass
class Op:
    """One operation. CLI ops carry argv (with `{out}` for the output
    prefix); pose ops carry (x, y, t5). `poses` is the number of pose
    evaluations the op answers: grid cells times T5 samples, or 1."""

    kind: str
    poses: int
    argv: tuple = ()
    params: dict = field(default_factory=dict)


def _rng(seed: int, name: str, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode()), *salt])


def _distinct(rng, lo: int, hi: int, k: int) -> list[int]:
    return sorted(int(v) for v in rng.choice(np.arange(lo, hi + 1), k, replace=False))


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def write_elastic_geometry(root: Path, seed: int, path: Path) -> dict:
    """The preset planar case plus an elastic block whose unstretched-length
    window cuts part of the grid off (EA = 1e6 N; window near [2, 22] m)."""
    rng = _rng(seed, "elastic-geometry")
    doc = json.loads((root / PRESET_REL).read_text())
    lo = float(np.round(rng.uniform(1.5, 2.5), 3))
    hi = float(np.round(rng.uniform(21.0, 23.0), 3))
    doc["elastic"] = {"EA_N": [1.0e6] * 6, "l0_min_m": [lo] * 6, "l0_max_m": [hi] * 6}
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc["elastic"]


def rounds(name: str, seed: int, cells: int, jobs: int, elastic_path: Path | None = None):
    """Yield the workload's rounds forever. `cells` is the preset grid size,
    `jobs` the worker count for design-sweep."""
    rng = _rng(seed, name)
    k = 0
    while True:
        yield _ROUND[name](rng, k, cells, jobs, elastic_path)
        k += 1


def _design_round(rng, k, cells, jobs, _):
    jobs = str(jobs)
    t5s = _distinct(rng, *T5_RANGE_N, 3)
    wps = [v / 100 for v in _distinct(rng, *WP_RANGE_CM, 2)]
    wp_t5 = int(rng.integers(T5_RANGE_N[0], T5_RANGE_N[1] + 1))
    cmp_wp = int(rng.integers(*WP_RANGE_CM, endpoint=True)) / 100
    cmp_t5 = int(rng.integers(T5_RANGE_N[0], T5_RANGE_N[1] + 1))
    variants = ["A", "B", "C", "D"]
    return [
        Op("sweep-t5", cells * len(t5s),
           ("sweep", "--preset", "--param", "t5", "--values", _csv(t5s),
            "--jobs", jobs, "--out", "{out}"),
           {"values": [float(v) for v in t5s]}),
        Op("sweep-wp", cells * len(wps),
           ("sweep", "--preset", "--param", "wp", "--values", _csv(wps),
            "--t5-values", str(wp_t5), "--jobs", jobs, "--out", "{out}"),
           {"values": wps, "t5_values": [float(wp_t5)]}),
        Op("compare", cells * len(variants),
           ("compare", "--preset", "--variants", ",".join(variants), "--wp", str(cmp_wp),
            "--t5-values", str(cmp_t5), "--jobs", jobs, "--out", "{out}"),
           {"variants": variants, "wp": cmp_wp, "t5_values": [float(cmp_t5)]}),
    ]


def _map_round(rng, k, cells, jobs, elastic_path):
    ops = []
    for mode in ("rigid", "elastic"):
        t5 = int(rng.integers(T5_RANGE_N[0], T5_RANGE_N[1] + 1))
        src = ("--preset",) if mode == "rigid" else ("--geometry", str(elastic_path))
        ops.append(Op("workspace", cells,
                      ("workspace", *src, "--mode", mode, "--t5", str(t5),
                       "--jobs", "1", "--out", "{out}"),
                      {"mode": mode, "t5": float(t5)}))
    return ops


def _union_round(rng, k, cells, jobs, _):
    """Even rounds keep the T5 bounds over a narrow range that leaves cells
    unreachable; odd rounds lift them over a range that crosses T5max."""
    lo = int(rng.integers(0, 2001))
    ignore = k % 2 == 1
    step = int(rng.integers(2500, 3501)) if ignore else int(rng.integers(100, 401))
    values = [float(lo + i * step) for i in range(UNION_VALUES)]
    spec = f"{lo}:{lo + (UNION_VALUES - 1) * step}:{step}"
    argv = ("active-t5", "--preset", "--t5-range", spec, "--jobs", "1", "--out", "{out}")
    if ignore:
        argv += ("--ignore-t5max",)
    return [Op("active-t5", cells * UNION_VALUES, argv,
               {"t5_values": values, "ignore_t5max": ignore, "spec": spec})]


def _pose_round(rng, k, cells, jobs, _):
    xs = rng.uniform(-12.5, 12.5, POSE_BATCH)
    ys = rng.uniform(-2.85, 2.15, POSE_BATCH)
    t5s = rng.uniform(T5_RANGE_N[0], T5_RANGE_N[1], POSE_BATCH)
    return [Op("pose", 1, params={"x": float(x), "y": float(y), "t5": float(t)})
            for x, y, t in zip(xs, ys, t5s)]


_ROUND = {"design-sweep": _design_round, "map-export": _map_round,
          "active-union": _union_round, "pose-queries": _pose_round}


class CliFailed(RuntimeError):
    pass


def run_cli(api, op: Op, out: Path) -> str:
    """Run one CLI op through `cdpr.cli.main`; return what it printed."""
    argv = [str(out) if a == "{out}" else a for a in op.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = api.cli.main(argv)
    if code != 0:
        raise CliFailed(f"exit {code}: {stderr.getvalue().strip()}")
    return stdout.getvalue()


def run_pose(api, geom, op: Op):
    """What `cdpr tensions` computes at one pose, without printing."""
    p = op.params
    pose = api.PlatformPose.planar(p["x"], p["y"])
    cost = api.cost_rigid(geom, pose, p["t5"])
    oracle = api.nullspace_oracle(geom, pose, p["t5"])
    cw = api.counterweight(p["t5"], geom.cb_cable_count, geom.gravity)
    return cost.feasible_any, cost.gamma, cost.T_opt, oracle, cw.force_N
