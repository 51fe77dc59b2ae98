"""Self-tests of the benchmark's own code.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads

api = run.load_package()


def _take(name, seed, n, elastic=None):
    stream = workloads.rounds(name, seed, 50601, 2, elastic)
    return [next(stream) for _ in range(n)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert _take(name, 7, 3) == _take(name, 7, 3)
    assert _take(name, 7, 3) != _take(name, 8, 3)


def test_same_seed_same_elastic_file(tmp_path):
    docs = []
    for i, seed in enumerate((7, 7, 8)):
        path = tmp_path / f"e{i}.json"
        workloads.write_elastic_geometry(run.ROOT, seed, path)
        docs.append(path.read_bytes())
    assert docs[0] == docs[1] != docs[2]


def _span(sid, parent, t0, t1, layer="x"):
    return spans.Span(sid, parent, f"{layer}.f{sid}", layer, t0, t1, 0, None)


def test_self_time_of_nested_and_concurrent_spans():
    # R [0,10] holds A [1,4] (which holds B [2,3]) and C [5,9]; C's children
    # D [5,7] and E [6,9] run on two threads and overlap on [6,7].
    recorded = [_span(1, 0, 0, 10), _span(2, 1, 1, 4), _span(3, 2, 2, 3),
                _span(4, 1, 5, 9), _span(5, 4, 5, 7), _span(6, 4, 6, 9)]
    own = spans.self_times(recorded)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 0.0, 5: 1.5, 6: 2.5})
    assert sum(own.values()) == pytest.approx(10.0)


def test_tracer_links_worker_thread_spans_to_the_caller():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: None, "kernels.inner", "kernels")

    def outer():
        t = threading.Thread(target=inner)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        inner()

    tracer.call(outer, "workspace.outer", "workspace")
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["workspace.outer"]
    assert [s.parent for s in by_name["kernels.inner"]] == [root.sid, root.sid]


def test_kernel_busy_time_is_cpu_time():
    # A kernel span that waits is open but not busy.
    def kernel():
        threading.Event().wait(0.05)
        return (np.zeros(4, bool),)

    tracer = spans.Tracer()
    waiting = tracer.wrap(kernel, "kernels.scan_cells", "kernels")
    tracer.call(waiting, "workspace.scan", "workspace")
    kernel = next(s for s in tracer.spans if s.name == "kernels.scan_cells")
    assert kernel.t1 - kernel.t0 >= 0.05
    assert kernel.counts["cpu_s"] < 0.02
    metrics = spans.layer_metrics(tracer.spans, spans.self_times(tracer.spans), 1)
    assert metrics["kernels.busy_s"] == kernel.counts["cpu_s"]
    assert metrics["workspace.parallelism"] < 0.4


def test_patching_is_undone_and_transparent():
    original = api.cli.scan
    tracer = spans.Tracer()
    geom = api.expand_planar(api.load_table1_preset(), api.Variant.A)
    pose = api.PlatformPose.planar(1.0, 0.5)
    with spans.patched(tracer, api):
        assert api.cli.scan is not original
        traced = api.cost_rigid(geom, pose, 3000.0)
    assert api.cli.scan is original
    plain = api.cost_rigid(geom, pose, 3000.0)
    assert traced.gamma == plain.gamma
    names = {s.name for s in tracer.spans}
    assert {"statics.cost_rigid", "statics.candidate_tensions", "kinematics.jacobians"} <= names
    metrics = spans.layer_metrics(tracer.spans, spans.self_times(tracer.spans), 1)
    assert sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(
        sum(s.t1 - s.t0 for s in tracer.spans if s.parent == 0))


@pytest.fixture(scope="module")
def coarse_map(tmp_path_factory):
    """A rigid workspace map on a 0.5 m grid, written by the CLI."""
    prefix = tmp_path_factory.mktemp("map") / "ws"
    op = workloads.Op("workspace", 0, ("workspace", "--preset", "--t5", "2500", "--step",
                                       "0.5", "--jobs", "1", "--out", "{out}"),
                      {"mode": "rigid", "t5": 2500.0})
    workloads.run_cli(api, op, prefix)
    geom = api.expand_planar(api.load_table1_preset(), api.Variant.A)
    r = geom.scan
    return prefix, geom, api.ScanRegion(r.x_min, r.x_max, r.y_min, r.y_max, 0.5)


def _flip_first_reachable(prefix: Path, fix_summary: bool):
    csv = prefix.with_suffix(".csv")
    lines = csv.read_text().split("\n")
    i = next(i for i, line in enumerate(lines) if line.split(",")[2] == "1")
    x, y = lines[i].split(",")[:2]
    lines[i] = f"{x},{y},0,,,,,,"
    csv.write_text("\n".join(lines))
    if fix_summary:
        s = json.loads(prefix.with_suffix(".summary.json").read_text())
        s["reachable_cells"] -= 1
        s["area_m2"] = float(s["reachable_cells"]) * s["step_m"] ** 2
        s["covered_fraction"] = s["reachable_cells"] / s["total_cells"]
        prefix.with_suffix(".summary.json").write_text(json.dumps(s))


def _check(coarse_map, prefix):
    _, geom, region = coarse_map
    return checks.check_map(api, prefix, geom, region, np.random.default_rng(0), [2500.0],
                            lambda pose, t5: api.cost_rigid(geom, pose, t5),
                            {"t5_N": 2500.0, "mode": "rigid"})


def test_check_accepts_the_cli_output(coarse_map):
    assert _check(coarse_map, coarse_map[0]) == []


def test_check_rejects_one_flipped_cell(coarse_map, tmp_path, monkeypatch):
    prefix, _, region = coarse_map
    for fix_summary in (False, True):
        bad = tmp_path / f"bad{int(fix_summary)}"
        for suffix in (".csv", ".summary.json"):
            bad.with_suffix(suffix).write_bytes(prefix.with_suffix(suffix).read_bytes())
        _flip_first_reachable(bad, fix_summary)
        # With the summary made to agree, only the per-pose re-solve can see
        # the flip, so every cell of the coarse map is re-solved.
        monkeypatch.setattr(checks, "SPOT_SPLIT", (region.nx * region.ny, 0, 0, 0))
        assert _check(coarse_map, bad), fix_summary


def test_corrupted_output_counts_as_failed(tmp_path):
    bench = run.Bench(api, "map-export", 3, tmp_path)
    bench.run_round(0, next(bench.stream), "", [])
    assert bench.check(None)[:2] == (2, 0)
    _flip_first_reachable(bench.pending[0][3][0][0], fix_summary=False)
    assert bench.check(None)[:2] == (2, 1)


def test_pinned_digest_mismatch_counts_as_failed(tmp_path):
    bench = run.Bench(api, "pose-queries", 3, tmp_path)
    bench.run_round(0, next(bench.stream), "", [])
    good = [bench.findings()[0][3]]
    assert bench.check(good)[:2] == (workloads.POSE_BATCH, 0)
    assert bench.check([["0" * 64]])[:2] == (workloads.POSE_BATCH, workloads.POSE_BATCH)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    assert run.tail(list(range(40)))[0] == 75.0
    assert run.tail(list(range(10_000)))[0] == 99.9


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
