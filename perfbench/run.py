"""Benchmark of the cdpr design tool: end-to-end metrics, or with --trace 1
per-layer metrics from a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-pins      # re-pin the default seed's outputs

One process, one closed-loop caller: the next operation starts when the
previous one returns. Rounds of the workload run back to back while one more
round, at the median round time so far, still ends within --seconds (at least
one round runs). Every output is checked outside the timed region; the
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
PINS = HERE / "pins.json"
BENCH_SCAN = ROOT / "benchmarks" / "bench_scan.py"
DEFAULT_SEED = 0
SETUP_PROBES = (5, 4)   # fresh-interpreter set-ups before and after the timed rounds
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0)
PIN_ROUNDS = {"design-sweep": 8, "map-export": 14, "active-union": 8, "pose-queries": 150}

END_TO_END_UNITS = {"wall_ref": "ref", "latency_p50_ref": "ref", "poses_per_ref": "1/ref",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def load_package():
    """Import cdpr from this checkout's src directory, never from elsewhere."""
    init = SRC / "cdpr" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import cdpr
    import cdpr.cli  # noqa: F401
    if Path(cdpr.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported cdpr from {cdpr.__file__}, not {init}")
    return cdpr


def environment(api) -> dict:
    return {"backend": api.backend_name(), "numba": api.numba_available(),
            "numpy": np.__version__, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


class Bench:
    """One workload at one seed: its inputs and the rounds run so far. CLI
    outputs stay in a temporary directory until the checks at the end; pose
    results are checked between rounds and dropped (settle), so that memory
    does not grow with the number of rounds."""

    def __init__(self, api, name: str, seed: int, tmp: Path):
        self.api, self.name, self.seed, self.tmp = api, name, seed, tmp
        self.geom = api.expand_planar(api.load_table1_preset(), api.Variant.A)
        self.region = self.geom.scan
        elastic_path = None
        if name == "map-export":
            elastic_path = tmp / "elastic.json"
            workloads.write_elastic_geometry(ROOT, seed, elastic_path)
            self.elastic_geom = api.expand_planar(api.load_geometry(elastic_path), api.Variant.A)
        self.stream = workloads.rounds(name, seed, self.region.nx * self.region.ny,
                                       len(os.sched_getaffinity(0)), elastic_path)
        self.pending = []   # CLI rounds: (round, tag, ops, outputs)
        self.examined = []  # (round, tag, errors per op, output digests)

    def warm_up(self):
        """One untimed, unchecked call so that lazy set-up is done."""
        if self.name == "pose-queries":
            workloads.run_pose(self.api, self.geom, workloads.Op(
                "pose", 1, params={"x": 0.0, "y": 0.0, "t5": 3000.0}))
        else:
            workloads.run_cli(self.api, workloads.Op("workspace", 0, (
                "workspace", "--preset", "--t5", "3000", "--step", "0.5", "--jobs", "1",
                "--out", "{out}")), self.tmp / "warm-up")

    def run_round(self, k: int, ops: list, tag: str, latencies: list) -> float:
        outputs = []
        t0 = time.perf_counter()
        for j, op in enumerate(ops):
            s = time.perf_counter()
            try:
                if op.kind == "pose":
                    out = workloads.run_pose(self.api, self.geom, op)
                else:
                    prefix = self.tmp / f"r{k:04d}-{j}{tag}"
                    out = (prefix, workloads.run_cli(self.api, op, prefix))
            except Exception as e:  # a failed operation is counted, not fatal
                out = e
            latencies.append(time.perf_counter() - s)
            outputs.append(out)
        wall = time.perf_counter() - t0
        self.pending.append((k, tag, ops, outputs))
        return wall

    def settle(self):
        """Check the pose rounds run so far and drop their outputs; called
        between rounds, outside the timed region. CLI outputs stay on disk
        until check()."""
        if self.name == "pose-queries":
            self.examined += [self._examine(*e) for e in self.pending]
            self.pending.clear()

    # -- checks -------------------------------------------------------------

    def _check_op(self, op, out, rng) -> list:
        if isinstance(out, Exception):
            return [f"{type(out).__name__}: {out}"]
        if op.kind == "pose":
            return checks.check_pose(op, out, self.geom)
        prefix = out[0]
        if op.kind == "workspace":
            t5, mode = op.params["t5"], op.params["mode"]
            geom = self.geom if mode == "rigid" else self.elastic_geom
            cost = self.api.cost_rigid if mode == "rigid" else self.api.cost_elastic
            return checks.check_map(self.api, prefix, geom, self.region, rng, [t5],
                                    lambda pose, t: cost(geom, pose, t),
                                    {"t5_N": t5, "mode": mode})
        if op.kind == "active-t5":
            ignore = op.params["ignore_t5max"]
            return checks.check_map(self.api, prefix, self.geom, self.region, rng,
                                    op.params["t5_values"],
                                    lambda pose, t: self.api.cost_rigid(
                                        self.geom, pose, t, enforce_t5_bounds=not ignore),
                                    {"ignore_t5max": ignore, "t5_range": op.params["spec"]})
        if op.kind == "sweep-t5":
            return checks.check_sweep_t5(prefix, op, self.region, self.geom.gravity,
                                         self.geom.cb_cable_count)
        if op.kind == "sweep-wp":
            return checks.check_sweep_wp(prefix, op, self.region)
        return checks.check_compare(prefix, op, self.region)

    def round_digests(self, outputs) -> list:
        if any(isinstance(o, Exception) for o in outputs):
            return []
        if self.name == "pose-queries":
            return [checks.pose_digest(outputs)]
        return [d for prefix, _ in outputs for d in checks.digests(prefix)]

    def _examine(self, k, tag, ops, outputs):
        rng = np.random.default_rng([self.seed, k, len(tag)])
        errors = [self._check_op(op, out, rng) for op, out in zip(ops, outputs)]
        return k, tag, errors, self.round_digests(outputs)

    def findings(self) -> list:
        """(round, tag, errors per op, output digests) of every round run."""
        return self.examined + [self._examine(*e) for e in self.pending]

    def check(self, pins: list | None) -> tuple[int, int, list]:
        """Check every op of every round run; returns (attempted, failed,
        error messages)."""
        attempted, failed, messages = tally(self.findings(), pins)
        if self.api.numba_available() and self.name != "pose-queries":
            numba_errors = numba_agreement()
            failed += bool(numba_errors)
            messages += numba_errors
        return attempted, failed, messages


def tally(found: list, pins: list | None) -> tuple[int, int, list]:
    """Count failed ops; a round whose digests differ from its pin fails
    every op in it."""
    attempted = failed = 0
    messages = []
    for k, tag, errors, digests in found:
        if pins is not None and k < len(pins) and digests != pins[k]:
            errors = [e + [f"round {k}{tag}: outputs differ from the pinned SHA-256"]
                      for e in errors]
        attempted += len(errors)
        failed += sum(bool(e) for e in errors)
        messages += [m for e in errors for m in e]
    return attempted, failed, messages


def numba_agreement() -> list:
    """The numba and numpy kernels must classify the preset grid alike.
    benchmarks/bench_scan.py races the two backends and asserts that they
    agree; it runs here, once, when numba is importable."""
    res = subprocess.run([sys.executable, str(BENCH_SCAN), "--repeats", "1"],
                         env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        return [f"{BENCH_SCAN.name}: numba and numpy kernels disagree: "
                f"{res.stderr.strip().splitlines()[-1:]}"]
    return []


def setup_times(bench: Bench, count: int) -> list[float]:
    """Import, geometry load and first call, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(HERE / "setup_probe.py"), bench.name]
    if bench.name == "map-export":
        argv.append(str(bench.tmp / "elastic.json"))
    samples = []
    for _ in range(count):
        res = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        probe = json.loads(res.stdout.strip().splitlines()[-1])
        if Path(probe["package"]).resolve() != (SRC / "cdpr" / "__init__.py").resolve():
            raise SystemExit(f"perfbench: set-up probe imported {probe['package']}")
        samples.append(probe["setup_s"])
    return samples


def tail(latencies: list) -> tuple[float, float] | None:
    """(percentile, value) for the highest ladder percentile with at least
    ten samples beyond it, or None when there are too few samples."""
    for p in TAIL_LADDER:
        if len(latencies) * (100.0 - p) / 100.0 >= 10 - 1e-9:
            return p, float(np.percentile(latencies, p))
    return None


_REF_VALUES = np.linspace(0.5, 1.5, 6000)
REF_SHARE = 0.03   # time given to the reference after a round, as a share of the round


def reference_s(budget_s: float = 0.0) -> float:
    """Seconds taken by a fixed computation that uses no cdpr code: a Python
    loop, numpy element-wise arithmetic and number formatting, the kinds of
    work the workloads do. Median of at least three repetitions, repeated
    for at least budget_s seconds."""
    times = []
    start = time.perf_counter()
    while len(times) < 3 or time.perf_counter() - start < budget_s:
        t = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i
        v = _REF_VALUES
        for _ in range(20):
            v = np.sqrt(v * 1.0001 + 0.5)
        ",".join(f"{x:.6g}" for x in _REF_VALUES)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Timed rounds, untraced. The reference computation runs between
    rounds, outside the timed region, and each round's times are divided by
    the mean of the reference times just before and just after it: on a
    shared host the speed of the processor moves by up to 1.4x over tens of
    seconds, and it moves the program and the reference alike. The times in
    seconds are printed and recorded beside them."""
    walls, latencies, ratios = [], [], []
    refs, between = [], [reference_s()]
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start + statistics.median(walls) <= seconds:
        ops = next(bench.stream)
        ops_s = []
        walls.append(bench.run_round(k, ops, "", ops_s))
        between.append(reference_s(REF_SHARE * walls[-1]))
        refs.append((between[-2] + between[-1]) / 2)
        latencies += ops_s
        ratios += [t / refs[-1] for t in ops_s]
        bench.settle()
        k += 1
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    poses = sum(op.poses for op in ops)   # every round of a workload answers as many
    metrics = {
        "wall_ref": statistics.median(w / r for w, r in zip(walls, refs)),
        "latency_p50_ref": statistics.median(ratios),
        "poses_per_ref": statistics.median(poses * r / w for w, r in zip(walls, refs)),
        "peak_rss_mb": peak_rss,
    }
    info = {"rounds": len(walls), "ops": len(latencies), "tail": tail(latencies),
            "wall_s": statistics.median(walls),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "poses_per_s": poses * len(walls) / sum(walls),
            "ref_ms": statistics.median(refs) * 1e3,
            "round_walls_s": walls, "refs_s": refs}
    return metrics, info


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Each round runs twice on the same inputs, once untraced and once
    traced, alternating which goes first; the per-layer metrics come from the
    traced copies and the overhead from the difference of the pair."""
    tracer = spans.Tracer()
    overhead, pair_walls, k = [], [], 0
    start = time.perf_counter()
    while k == 0 or time.perf_counter() - start + statistics.median(pair_walls) <= seconds:
        t0 = time.perf_counter()
        ops = next(bench.stream)
        walls = {}
        for tag in (("", "-t") if k % 2 == 0 else ("-t", "")):
            if not tag:
                walls[tag] = bench.run_round(k, ops, tag, [])
                continue
            tracer.round = k
            with spans.patched(tracer, bench.api):
                tracer.call(bench.run_round, "bench.round", "bench", (k, ops, tag, []))
            root = tracer.spans[-1]
            walls[tag] = root.t1 - root.t0
        overhead.append(walls["-t"] - walls[""])
        bench.settle()
        pair_walls.append(time.perf_counter() - t0)
        k += 1
    own = spans.self_times(tracer.spans)
    metrics = spans.layer_metrics(tracer.spans, own, k)
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    if abs(layer_sum - metrics["trace.wall_s"]) > 1e-6 * metrics["trace.wall_s"]:
        raise RuntimeError(f"per-layer self times sum to {layer_sum}, "
                           f"traced wall time is {metrics['trace.wall_s']}")
    metrics["trace.overhead_s"] = statistics.fmean(overhead)
    output_bytes = 0
    for _, tag, ops, outputs in bench.pending:
        if tag:
            for prefix, printed in outputs:
                output_bytes += len(printed.encode()) + sum(
                    prefix.with_suffix(s).stat().st_size
                    for s in (".csv", ".summary.json", ".manifest.json"))
    metrics["cli.output_bytes"] = output_bytes / k
    write_spans(bench, tracer.spans, own)
    return metrics, {"rounds": k, "spans": len(tracer.spans)}


def write_spans(bench: Bench, recorded, own: dict):
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{bench.name}.spans.jsonl", "w") as f:
        for s in recorded:
            f.write(json.dumps([s.sid, s.parent, s.name, s.round, s.t0, s.t1, own[s.sid],
                                s.counts]) + "\n")


def load_pins(name: str, seed: int):
    if seed != DEFAULT_SEED or not PINS.is_file():
        return None
    return json.loads(PINS.read_text())["rounds"].get(name)


def record_pins(api):
    """Run the default seed's first rounds untimed, check them, and pin the
    SHA-256 of their outputs."""
    pinned = {}
    for name in workloads.WORKLOADS:
        tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
        try:
            bench = Bench(api, name, DEFAULT_SEED, tmp)
            for k in range(PIN_ROUNDS[name]):
                bench.run_round(k, next(bench.stream), "", [])
            found = bench.findings()
            attempted, failed, messages = tally(found, None)
            if failed:
                raise SystemExit(f"perfbench: {name}: {failed} of {attempted} ops failed: "
                                 f"{messages[:3]}")
            pinned[name] = [digests for _, _, _, digests in found]
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        print(f"pinned {len(pinned[name])} rounds of {name}", file=sys.stderr)
    PINS.write_text(json.dumps({"seed": DEFAULT_SEED, "rounds": pinned}, indent=1) + "\n")


def report(name, seed, trace, env, metrics, units, info, attempted, failed, messages):
    print(f"perfbench {name} seed={seed} trace={trace} {json.dumps(env, sort_keys=True)}")
    for key, value in metrics.items():
        print(f"  {key:32s} {value:14.6g} {units[key]}")
    if "tail" in info:
        print(f"  {'ref_ms':32s} {info['ref_ms']:14.6g} ms (reference computation)")
        print(f"  {'wall_s':32s} {info['wall_s']:14.6g} s")
        print(f"  {'latency_p50_ms':32s} {info['latency_p50_ms']:14.6g} ms")
        print(f"  {'poses_per_s':32s} {info['poses_per_s']:14.6g} 1/s")
        t = info["tail"]
        print(f"  {'latency_tail_ms':32s} " + (
            f"{t[1] * 1e3:14.6g} ms (p{t[0]:g} of {info['ops']} ops)" if t else
            f"{'n/a':>14s}    ({info['ops']} ops; a tail needs 10 beyond the percentile)"))
    print(f"  {'error_rate':32s} {failed / attempted:14.6g} ({failed} of {attempted} ops failed)")
    print(f"  rounds: {info['rounds']}")
    for m in messages[:10]:
        print(f"  error: {m}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-pins", action="store_true",
                        help="re-pin the default seed's output digests and exit")
    args = parser.parse_args(argv)
    if not args.record_pins and args.workload is None:
        parser.error("--workload is required")

    api = load_package()
    if args.record_pins:
        record_pins(api)
        return 0

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        bench = Bench(api, args.workload, args.seed, tmp)
        if args.trace:
            bench.warm_up()
            metrics, info = measure_traced(bench, args.seconds)
            units = spans.LAYER_UNITS
        else:
            # Half the set-up probes run after the timed rounds, so that their
            # median spans the run like the other metrics.
            setup = setup_times(bench, SETUP_PROBES[0])
            bench.warm_up()
            metrics, info = measure(bench, args.seconds)
            setup += setup_times(bench, SETUP_PROBES[1])
            metrics["setup_s"] = statistics.median(setup)
            units = END_TO_END_UNITS
        attempted, failed, messages = bench.check(load_pins(args.workload, args.seed))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = environment(api)
    metrics = {key: metrics[key] for key in units}
    report(args.workload, args.seed, args.trace, env, metrics, units, info,
           attempted, failed, messages)
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "metrics": metrics, "info": info,
              "attempted": attempted, "failed": failed, "errors": messages[:50]}
    (OUT_DIR / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
