import numpy as np
import pytest

from cdpr import (
    ConfigurationError,
    ScanRegion,
    Variant,
    compare_configs,
    counterweight,
    expand_planar,
    scan,
    sweep_t5,
    sweep_wp,
)
from cdpr.optimize import SweepResult, write_sweeps_csv

T5_SET = [1000.0, 2000.0, 3000.0]
WP_SET = [11.0, 12.0, 13.0]


class TestSweepT5:
    def test_areas_match_individual_scans(self, geom, coarse_region):
        result = sweep_t5(geom, T5_SET, coarse_region)
        assert result.parameter == "t5"
        assert result.values == tuple(T5_SET)
        for t5, area in zip(result.values, result.areas):
            assert area == pytest.approx(scan(geom, coarse_region, t5).area_m2)

    def test_argmax(self, geom, coarse_region):
        result = sweep_t5(geom, T5_SET, coarse_region)
        best = int(np.argmax(result.areas))
        assert result.argmax_value == result.values[best]
        assert result.argmax_area == result.areas[best]

    def test_order_invariance(self, geom, coarse_region):
        """Shuffled or duplicated inputs give the same sweep: values are
        sorted and deduplicated before scanning."""
        a = sweep_t5(geom, [3000.0, 1000.0, 2000.0, 1000.0], coarse_region)
        b = sweep_t5(geom, T5_SET, coarse_region)
        assert a == b

    def test_empty_rejected(self, geom, coarse_region):
        with pytest.raises(ConfigurationError):
            sweep_t5(geom, [], coarse_region)

    def test_region_defaults_to_geometry(self, geom, coarse_region):
        explicit = sweep_t5(geom, [3000.0], geom.scan)
        implicit = sweep_t5(geom, [3000.0])
        assert implicit == explicit


class TestSweepWp:
    def test_per_t5_results(self, planar, coarse_region):
        outcome = sweep_wp(planar, WP_SET, T5_SET, coarse_region)
        assert set(outcome.per_t5) == set(T5_SET)
        for t5, result in outcome.per_t5.items():
            assert result.values == tuple(WP_SET)
            for wp, area in zip(result.values, result.areas):
                g = expand_planar(planar.with_wp(wp), Variant.A)
                assert area == pytest.approx(scan(g, coarse_region, t5).area_m2)

    def test_aggregate_argmax(self, planar, coarse_region):
        outcome = sweep_wp(planar, WP_SET, T5_SET, coarse_region)
        totals = np.zeros(len(WP_SET))
        for result in outcome.per_t5.values():
            totals += np.asarray(result.areas)
        assert outcome.aggregate_argmax_wp == WP_SET[int(np.argmax(totals))]

    def test_wp_beyond_frame_rejected(self, planar, coarse_region):
        with pytest.raises(ConfigurationError, match="half the frame"):
            sweep_wp(planar, [15.0], T5_SET, coarse_region)


class TestCompareConfigs:
    def test_all_variants(self, planar, coarse_region):
        results = compare_configs(planar, ["A", "B", "C", "D"], 13.0,
                                  [3000.0], coarse_region)
        assert set(results) == {Variant.A, Variant.B, Variant.C, Variant.D}
        for result in results.values():
            assert result.values == (3000.0,)

    def test_matches_direct_scan(self, planar, coarse_region):
        results = compare_configs(planar, [Variant.B], 13.0, [3000.0],
                                  coarse_region)
        g = expand_planar(planar.with_wp(13.0), Variant.B)
        assert results[Variant.B].areas[0] == pytest.approx(
            scan(g, coarse_region, 3000.0).area_m2)

    def test_empty_variants_rejected(self, planar, coarse_region):
        with pytest.raises(ConfigurationError):
            compare_configs(planar, [], 13.0, [3000.0], coarse_region)


class TestCounterweight:
    def test_force_is_count_times_tension(self):
        sizing = counterweight(3000.0, 2)
        assert sizing.force_N == 6000.0
        assert sizing.mass_kg == pytest.approx(611.6207951070336)

    def test_zero(self):
        assert counterweight(0.0, 2).force_N == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            counterweight(-1.0, 2)
        with pytest.raises(ConfigurationError):
            counterweight(100.0, 0)


class TestSweepResult:
    def test_monotonic_values_required(self, geom, coarse_region):
        with pytest.raises(ConfigurationError):
            SweepResult("t5", (2.0, 1.0), (0.0, 0.0), (None, None))

    def test_to_csv(self, geom, coarse_region, tmp_path):
        result = sweep_t5(geom, T5_SET, coarse_region)
        path = tmp_path / "sweep.csv"
        result.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "param,value,area_m2,covered_fraction"
        assert len(lines) == 1 + len(T5_SET)
        assert lines[1].startswith("t5,1000,")

    def test_sweeps_share_one_csv(self, geom, coarse_region, tmp_path):
        """Several sweeps in one file: the `extra` columns lead every row, and
        one sweep through to_csv(extra) writes the same bytes."""
        a = sweep_t5(geom, T5_SET, coarse_region)
        b = sweep_t5(geom, T5_SET[:1], coarse_region)
        path = tmp_path / "both.csv"
        write_sweeps_csv(path, [({"variant": "A"}, a), ({"variant": "B"}, b)])
        lines = path.read_text().splitlines()
        assert lines[0] == "variant,param,value,area_m2,covered_fraction"
        assert lines[1:] == ["A," + r for r in a.csv_rows()] + ["B," + r for r in b.csv_rows()]
        one = tmp_path / "one.csv"
        a.to_csv(one, extra={"variant": "A"})
        assert one.read_text().splitlines() == lines[:1 + len(T5_SET)]
