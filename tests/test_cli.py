import hashlib
import json

import pytest

from cdpr import save_geometry, table1_preset_path
from cdpr.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestIk:
    def test_lengths_printed(self, capsys):
        code, out, _ = run(capsys, "ik", "--preset", "--x", "0", "--y", "0")
        assert code == 0
        assert "cable 1: length 13.2689 m" in out
        assert "counterbalance 1: length 13.2973 m" in out

    def test_outside_region_warns(self, capsys):
        code, _, err = run(capsys, "ik", "--preset", "--x", "100", "--y", "0")
        assert code == 0
        assert "outside the scan region" in err

    def test_singular_pose_exit_3(self, capsys):
        # the platform shifted so attachment 1 coincides with anchor 1
        code, _, err = run(capsys, "ik", "--preset", "--x", "-13.05", "--y", "2.4")
        assert code == 3
        assert "degenerate" in err


class TestTensions:
    def test_candidates_printed(self, capsys):
        code, out, _ = run(capsys, "tensions", "--preset",
                           "--x", "0", "--y", "0", "--t5", "3000")
        assert code == 0
        assert "candidate 1 (T1 clamped)" in out
        assert "gamma = 25540.100230 N" in out
        assert "nullspace oracle = True" in out
        assert "counterweight: 6000.000 N" in out


class TestInputErrors:
    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "ik", "--geometry", "/nonexistent.json",
                           "--x", "0", "--y", "0")
        assert code == 2

    def test_bad_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(capsys, "ik", "--geometry", str(bad),
                           "--x", "0", "--y", "0")
        assert code == 2
        assert "error:" in err

    def test_bad_range_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--preset", "--param", "t5",
                           "--values", "5:1:1",
                           "--out", str(tmp_path / "s"))
        assert code == 2


class TestWorkspace:
    def test_outputs_and_manifest(self, capsys, tmp_path):
        out = tmp_path / "ws"
        code, stdout, _ = run(capsys, "workspace", "--preset", "--t5", "3000",
                              "--step", "0.25", "--out", str(out))
        assert code == 0
        assert "area =" in stdout

        csv_path = out.with_suffix(".csv")
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert csv_path.exists()
        assert summary["t5_N"] == 3000.0
        assert summary["step_m"] == 0.25
        assert manifest["command"] == "workspace"
        assert manifest["geometry_sha256"] == hashlib.sha256(
            table1_preset_path().read_bytes()).hexdigest()
        assert str(csv_path) in manifest["outputs"]
        assert manifest["wall_time_s"] >= 0
        timings = manifest["timings_s"]
        assert set(timings) == {"load", "compute", "coverage", "write"}
        assert all(t >= 0 for t in timings.values())
        assert sum(timings.values()) <= manifest["wall_time_s"]
        assert manifest["counters"] == {"scans": 1, "cells": 101 * 21,
                                        "reachable_cells": summary["reachable_cells"]}

    def test_byte_identical_across_jobs(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "workspace", "--preset", "--t5", "3000", "--step", "0.25",
            "--jobs", "1", "--out", str(a))
        run(capsys, "workspace", "--preset", "--t5", "3000", "--step", "0.25",
            "--jobs", "4", "--out", str(b))
        assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()
        assert (a.with_suffix(".summary.json").read_bytes()
                == b.with_suffix(".summary.json").read_bytes())

    def test_general_geometry_file(self, capsys, tmp_path, geom):
        path = tmp_path / "general.json"
        save_geometry(geom, path)
        out = tmp_path / "ws"
        code, _, _ = run(capsys, "workspace", "--geometry", str(path),
                         "--t5", "3000", "--step", "0.5", "--out", str(out))
        assert code == 0


class TestSweep:
    def test_t5_sweep_summary(self, capsys, tmp_path):
        out = tmp_path / "sweep"
        code, stdout, _ = run(capsys, "sweep", "--preset", "--param", "t5",
                              "--values", "0:4000:1000", "--step", "0.25",
                              "--out", str(out))
        assert code == 0
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["param"] == "t5"
        assert "argmax_t5_N" in summary
        assert "gain_vs_zero_percent" in summary
        assert summary["counterweight_force_N"] == 2 * summary["argmax_t5_N"]
        lines = out.with_suffix(".csv").read_text().splitlines()
        assert lines[0] == "param,value,area_m2,covered_fraction"
        assert len(lines) == 6

    def test_wp_sweep(self, capsys, tmp_path):
        out = tmp_path / "wp"
        code, _, _ = run(capsys, "sweep", "--preset", "--param", "wp",
                         "--values", "12,13", "--t5-values", "2000,3000",
                         "--step", "0.25", "--out", str(out))
        assert code == 0
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["aggregate_argmax_wp_m"] in (12.0, 13.0)
        lines = out.with_suffix(".csv").read_text().splitlines()
        assert lines[0] == "t5_N,param,value,area_m2,covered_fraction"
        assert len(lines) == 5


class TestCompare:
    def test_ranking(self, capsys, tmp_path):
        out = tmp_path / "cmp"
        code, _, _ = run(capsys, "compare", "--preset", "--variants", "A,B",
                         "--t5-values", "3000", "--step", "0.25",
                         "--out", str(out))
        assert code == 0
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert set(summary["peak_area_m2"]) == {"A", "B"}
        assert summary["ranking"][0] in ("A", "B")
        lines = out.with_suffix(".csv").read_text().splitlines()
        assert lines[0] == "variant,param,value,area_m2,covered_fraction"
        assert [line.split(",")[:3] for line in lines[1:]] == [
            ["A", "t5", "3000"], ["B", "t5", "3000"]]
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert set(manifest["timings_s"]) == {"load", "compute", "write"}
        assert manifest["counters"] == {"scans": 2, "cells": 101 * 21}


class TestActiveT5:
    def test_union(self, capsys, tmp_path):
        out = tmp_path / "uni"
        code, stdout, _ = run(capsys, "active-t5", "--preset",
                              "--t5-range", "0:6000:2000", "--step", "0.25",
                              "--ignore-t5max", "--out", str(out))
        assert code == 0
        assert "union area" in stdout
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["ignore_t5max"] is True
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["counters"] == {"scans": 4, "cells": 101 * 21,
                                        "reachable_cells": summary["reachable_cells"]}


class TestParsing:
    def test_range_values(self):
        from cdpr.cli import _parse_values
        assert _parse_values("0:1000:250") == [0.0, 250.0, 500.0, 750.0, 1000.0]
        assert _parse_values("1,3,2") == [1.0, 3.0, 2.0]

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
