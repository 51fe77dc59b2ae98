import json

import numpy as np
import pytest

from cdpr import (
    ElasticParams,
    GeometryError,
    GeometryParseError,
    PlanarCaseGeometry,
    RobotGeometry,
    ScanRegion,
    Variant,
    expand_planar,
    load_geometry,
    save_geometry,
)


class TestPreset:
    def test_dimensions(self, planar):
        assert planar.w == 28.0
        assert planar.h == 5.7
        assert planar.w_b == 1.9
        assert planar.w_p == 13.0
        assert planar.h_p == 3.246
        assert planar.h_bp == 0.45
        assert planar.w_bp == 0.95
        assert planar.h_1 == 0.45
        assert planar.h_bu == 0.45
        assert planar.mass_kg == 300.0
        assert planar.gravity_mps2 == 9.81

    def test_tension_bounds(self, planar):
        assert planar.tension_min_N == (0.0,) * 5
        assert planar.tension_max_N == (16000.0, 16000.0, 12000.0, 12000.0, 16000.0)

    def test_scan_region(self, region):
        assert (region.x_min, region.x_max) == (-12.5, 12.5)
        assert (region.y_min, region.y_max) == (-2.85, 2.15)
        assert region.step == 0.05
        assert (region.nx, region.ny) == (501, 101)
        # grid samples are exact multiples of the step from the lower bound
        assert region.x_values()[0] == -12.5
        assert region.x_values()[-1] == pytest.approx(12.5, abs=1e-12)
        assert region.area_m2 == pytest.approx(125.0)


class TestScanRegion:
    def test_cell_counts_floor_plus_one(self):
        r = ScanRegion(0.0, 1.0, 0.0, 0.55, 0.1)
        assert r.nx == 11
        assert r.ny == 6  # floor(0.55 / 0.1) + 1

    def test_edge_kept_when_quotient_rounds_down(self):
        """0.3 / 0.1 is 2.9999999999999996 in floating point; the x = 0.3
        column must still be sampled."""
        r = ScanRegion(0.0, 0.3, 0.0, 0.3, 0.1)
        assert (r.nx, r.ny) == (4, 4)
        assert r.x_values()[-1] == pytest.approx(0.3, abs=1e-12)
        assert r.y_values()[-1] == pytest.approx(0.3, abs=1e-12)

    def test_preset_rectangle_counts(self, region):
        for step, counts in ((0.05, (501, 101)), (0.25, (101, 21)), (0.5, (51, 11))):
            r = ScanRegion(region.x_min, region.x_max, region.y_min, region.y_max, step)
            assert (r.nx, r.ny) == counts

    def test_validation(self):
        with pytest.raises(GeometryError):
            ScanRegion(1.0, 0.0, 0.0, 1.0, 0.1)
        with pytest.raises(GeometryError):
            ScanRegion(0.0, 1.0, 0.0, 1.0, -0.1)

    def test_contains(self):
        outer = ScanRegion(0.0, 10.0, 0.0, 5.0, 0.1)
        inner = ScanRegion(1.0, 9.0, 1.0, 4.0, 0.1)
        assert outer.contains(inner)
        assert not inner.contains(outer)


class TestExpandPlanar:
    def test_anchors_at_frame_corners(self, geom):
        expected = np.array([
            [-14.0, 2.85, 0.0],
            [14.0, 2.85, 0.0],
            [14.0, -2.85, 0.0],
            [-14.0, -2.85, 0.0],
        ])
        np.testing.assert_array_equal(geom.anchors, expected)

    def test_attachments_on_platform_top(self, geom):
        expected = np.array([
            [-0.95, 0.45, 0.0],
            [0.95, 0.45, 0.0],
            [0.95, 0.45, 0.0],
            [-0.95, 0.45, 0.0],
        ])
        np.testing.assert_array_equal(geom.attachments, expected)

    def test_variant_a_pulleys(self, geom):
        np.testing.assert_array_equal(
            geom.cb_pulleys_fixed,
            np.array([[-13.0, 3.246, 0.0], [13.0, 3.246, 0.0]]))
        np.testing.assert_array_equal(
            geom.cb_pulleys_platform,
            np.array([[0.0, 0.45, 0.0], [0.0, 0.45, 0.0]]))

    def test_variant_b_mirrored_attachments(self, planar):
        g = expand_planar(planar, Variant.B)
        np.testing.assert_array_equal(
            g.cb_pulleys_platform,
            np.array([[-0.95, 0.45, 0.0], [0.95, 0.45, 0.0]]))
        np.testing.assert_array_equal(g.cb_pulleys_fixed[:, 0], [-13.0, 13.0])

    def test_variant_c_bottom_attachments(self, planar):
        g = expand_planar(planar, Variant.C)
        np.testing.assert_array_equal(g.cb_pulleys_platform[:, 1], [-0.45, -0.45])

    def test_variant_d_central_pulley(self, planar):
        g = expand_planar(planar, Variant.D)
        np.testing.assert_array_equal(
            g.cb_pulleys_fixed,
            np.array([[0.0, 3.246, 0.0], [0.0, 3.246, 0.0]]))

    def test_tension_bounds_expanded(self, geom):
        np.testing.assert_array_equal(geom.tension_min, np.zeros(6))
        np.testing.assert_array_equal(
            geom.tension_max, [16000, 16000, 12000, 12000, 16000, 16000])
        assert geom.cb_tension_max == 16000.0

    def test_with_wp(self, planar):
        moved = expand_planar(planar.with_wp(10.0), Variant.A)
        np.testing.assert_array_equal(moved.cb_pulleys_fixed[:, 0], [-10.0, 10.0])

    def test_counts(self, geom):
        assert geom.n == 4
        assert geom.m == 2


class TestValidation:
    def test_platform_wider_than_frame(self, planar):
        with pytest.raises(GeometryError, match="platform wider"):
            PlanarCaseGeometry(w=1.0, h=5.7, w_b=1.9, w_p=13.0, h_p=3.246,
                               h_bp=0.45, w_bp=0.95, h_1=0.45, h_bu=0.45)

    def test_negative_length(self):
        with pytest.raises(GeometryError):
            PlanarCaseGeometry(w=28.0, h=5.7, w_b=-1.9, w_p=13.0, h_p=3.246,
                               h_bp=0.45, w_bp=0.95, h_1=0.45, h_bu=0.45)

    def test_inverted_tension_bounds(self):
        with pytest.raises(GeometryError):
            PlanarCaseGeometry(w=28.0, h=5.7, w_b=1.9, w_p=13.0, h_p=3.246,
                               h_bp=0.45, w_bp=0.95, h_1=0.45, h_bu=0.45,
                               tension_min_N=(10.0,) * 5,
                               tension_max_N=(5.0,) * 5)

    def test_elastic_validation(self):
        with pytest.raises(GeometryError):
            ElasticParams(ea=[-1.0] * 6, l0_min=[0.0] * 6, l0_max=[1.0] * 6)
        with pytest.raises(GeometryError):
            ElasticParams(ea=[1e6] * 6, l0_min=[2.0] * 6, l0_max=[1.0] * 6)

    def test_arrays_read_only(self, geom):
        with pytest.raises(ValueError):
            geom.anchors[0, 0] = 0.0


class TestIO:
    def test_planar_round_trip(self, planar, tmp_path):
        path = tmp_path / "case.json"
        save_geometry(planar, path)
        loaded = load_geometry(path)
        assert isinstance(loaded, PlanarCaseGeometry)
        assert loaded == planar

    def test_general_round_trip(self, geom, tmp_path):
        path = tmp_path / "general.json"
        save_geometry(geom, path)
        loaded = load_geometry(path)
        assert isinstance(loaded, RobotGeometry)
        np.testing.assert_array_equal(loaded.anchors, geom.anchors)
        np.testing.assert_array_equal(loaded.tension_max, geom.tension_max)
        # float fields survive exactly
        assert loaded.gravity == geom.gravity

    def test_parse_error_names_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "planar_case", "w_m": 28.0}))
        with pytest.raises(GeometryParseError):
            load_geometry(path)

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(GeometryParseError):
            load_geometry(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"kind": "hexapod"}))
        with pytest.raises(GeometryParseError):
            load_geometry(path)
