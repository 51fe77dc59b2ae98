import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cdpr import (
    ConfigurationError,
    GeometryError,
    PlatformPose,
    RobotGeometry,
    ScanRegion,
    completeness_gap,
    cost_rigid,
    coverage,
    scan,
    union_scan,
)
from cdpr import WorkspaceGrid, _kernels


class TestScan:
    def test_matches_per_pose_classification(self, geom, coarse_region):
        """The vectorized scan agrees with the scalar feasibility check at
        every cell (brute-force oracle)."""
        grid = scan(geom, coarse_region, 3000.0)
        xs, ys = coarse_region.x_values(), coarse_region.y_values()
        for ix in range(0, xs.size, 3):
            for iy in range(ys.size):
                ref = cost_rigid(geom, PlatformPose.planar(xs[ix], ys[iy]), 3000.0)
                assert grid.reachable[ix, iy] == ref.feasible_any
                if ref.feasible_any:
                    assert grid.gamma[ix, iy] == pytest.approx(ref.gamma, rel=1e-9)
                    np.testing.assert_allclose(grid.tensions[ix, iy, :4],
                                               ref.T_opt, rtol=1e-9, atol=1e-6)
                    assert grid.tensions[ix, iy, 4] == 3000.0
                else:
                    assert np.isnan(grid.gamma[ix, iy])

    def test_area_is_count_times_step_squared(self, geom, coarse_region):
        grid = scan(geom, coarse_region, 3000.0)
        assert grid.area_m2 == pytest.approx(
            grid.reachable.sum() * coarse_region.step ** 2)

    def test_x_mirror_symmetry(self, geom, coarse_region):
        grid = scan(geom, coarse_region, 3000.0)
        np.testing.assert_array_equal(grid.reachable, grid.reachable[::-1])

    def test_out_of_bounds_t5_empty(self, geom, coarse_region):
        grid = scan(geom, coarse_region, 1e6)
        assert grid.area_m2 == 0.0
        assert not grid.reachable.any()

    def test_out_of_bounds_t5_lifted(self, geom, coarse_region):
        grid = scan(geom, coarse_region, 17000.0, enforce_t5_bounds=False)
        assert grid.area_m2 > 0.0

    def test_jobs_invariance(self, geom, coarse_region):
        a = scan(geom, coarse_region, 3000.0, jobs=1)
        b = scan(geom, coarse_region, 3000.0, jobs=5)
        np.testing.assert_array_equal(a.reachable, b.reachable)
        np.testing.assert_array_equal(np.nan_to_num(a.gamma), np.nan_to_num(b.gamma))
        np.testing.assert_array_equal(np.nan_to_num(a.tensions),
                                      np.nan_to_num(b.tensions))

    def test_elastic_rigid_limit(self, planar, coarse_region):
        from dataclasses import replace
        from cdpr import ElasticParams, Variant, expand_planar
        wide = ElasticParams(ea=[1e15] * 6, l0_min=[0.0] * 6, l0_max=[100.0] * 6)
        g = expand_planar(replace(planar, elastic=wide), Variant.A)
        rigid = scan(g, coarse_region, 3000.0)
        elastic = scan(g, coarse_region, 3000.0, mode="elastic")
        np.testing.assert_array_equal(rigid.reachable, elastic.reachable)

    def test_elastic_requires_parameters(self, geom, coarse_region):
        with pytest.raises(ConfigurationError):
            scan(geom, coarse_region, 3000.0, mode="elastic")

    def test_unknown_mode(self, geom, coarse_region):
        with pytest.raises(ConfigurationError):
            scan(geom, coarse_region, 3000.0, mode="magic")


class TestKernel:
    def test_elastic_binding_window_matches_per_pose(self, planar, coarse_region):
        """A window that cuts cells off (EA = 1e6 N, l0 in [2, 22] m): the
        grid's elastic mode agrees with per-pose cost_elastic at every cell."""
        from dataclasses import replace
        from cdpr import ElasticParams, Variant, cost_elastic, expand_planar
        window = ElasticParams(ea=[1e6] * 6, l0_min=[2.0] * 6, l0_max=[22.0] * 6)
        g = expand_planar(replace(planar, elastic=window), Variant.A)
        grid = scan(g, coarse_region, 3000.0, mode="elastic")
        rigid = scan(g, coarse_region, 3000.0)
        assert 0 < grid.reachable.sum() < rigid.reachable.sum()
        xs, ys = coarse_region.x_values(), coarse_region.y_values()
        for ix in range(xs.size):
            for iy in range(ys.size):
                ref = cost_elastic(g, PlatformPose.planar(xs[ix], ys[iy]), 3000.0)
                assert grid.reachable[ix, iy] == ref.feasible_any
                if ref.feasible_any:
                    assert grid.gamma[ix, iy] == pytest.approx(ref.gamma, rel=1e-9)
                    np.testing.assert_allclose(grid.tensions[ix, iy, :4],
                                               ref.T_opt, rtol=1e-9, atol=1e-6)
                else:
                    assert np.isnan(grid.gamma[ix, iy])

    def test_largest_feasible_norm_wins(self):
        """With the lower-left anchor high, some cells have two feasible
        candidates of different norms; the grid keeps the larger, as the
        per-pose aggregation does."""
        g = RobotGeometry(
            anchors=[[-9, 4, 0], [9, 4, 0], [9, -2.8, 0], [-9, 3.5, 0]],
            attachments=[[-1.1, 0.3, 0], [1.1, 0.3, 0], [1.1, -0.2, 0], [-1.1, -0.1, 0]],
            cb_pulleys_fixed=[[-9, 5, 0], [9, 5, 0]], cb_pulleys_platform=np.zeros((2, 3)),
            platform_mass=389.0, gravity=9.81, tension_min=np.zeros(6),
            tension_max=[17100.0, 10000.0, 12300.0, 3500.0, 20000.0, 20000.0])
        region = ScanRegion(-6.0, 6.0, -2.0, 2.0, 0.5)
        grid = scan(g, region, 1000.0)
        two = 0
        for ix, x in enumerate(region.x_values()):
            for iy, y in enumerate(region.y_values()):
                ref = cost_rigid(g, PlatformPose.planar(x, y), 1000.0)
                norms = [c.norm for c in ref.candidates if c.feasible]
                two += len(norms) == 2 and max(norms) - min(norms) > 1.0
                assert grid.reachable[ix, iy] == ref.feasible_any
                if ref.feasible_any:
                    assert grid.gamma[ix, iy] == pytest.approx(max(norms), rel=1e-9)
                    np.testing.assert_allclose(grid.tensions[ix, iy, :4], ref.T_opt,
                                               rtol=1e-9, atol=1e-6)
        assert two > 0

    def test_tension_slack_matches_per_pose(self, geom):
        """A tension TOL_TENSION / 2 below its lower bound passes, 2 TOL_TENSION
        below fails, on the grid and per pose alike. At the origin the
        optimal lower-cable tensions are about 8375.46 N."""
        from dataclasses import replace
        origin = PlatformPose.planar(0.0, 0.0)
        t_low = cost_rigid(geom, origin, 3000.0).T_opt[2]
        region = ScanRegion(-0.5, 0.5, -0.5, 0.5, 0.5)
        for excess, reachable in ((0.5, True), (2.0, False)):
            tmin = geom.tension_min.copy()
            tmin[2:4] = t_low + excess * _kernels.TOL_TENSION
            g = replace(geom, tension_min=tmin)
            assert cost_rigid(g, origin, 3000.0).feasible_any is reachable
            assert scan(g, region, 3000.0).reachable[1, 1] == reachable

    def test_solve3_singular_block_invalid(self):
        B = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]])
        _, rcond, valid = _kernels._solve3(B.tolist(), [1.0, 2.0, 3.0])
        assert rcond == 0.0
        assert not valid

    def test_solve3_near_singular_block_invalid(self):
        B = np.diag([1.0, 1.0, 1e-14])
        _, rcond, valid = _kernels._solve3(B.tolist(), [1.0, 2.0, 3.0])
        assert 0.0 < rcond < _kernels.RCOND_MIN
        assert not valid

    def test_solve3_matches_lapack(self, rng):
        """Scalar and array calls agree with np.linalg.solve and with the
        1-norm reciprocal condition number to 1e-12 relative."""
        blocks = 3.0 * np.eye(3) + rng.uniform(-1.0, 1.0, (50, 3, 3))
        rhs = rng.uniform(-1e4, 1e4, (50, 3))
        want_x = np.linalg.solve(blocks, rhs[..., None])[..., 0]
        want_rcond = 1.0 / (np.linalg.norm(blocks, 1, axis=(-2, -1))
                            * np.linalg.norm(np.linalg.inv(blocks), 1, axis=(-2, -1)))
        x, rcond, valid = _kernels._solve3(
            [[blocks[:, r, c] for c in range(3)] for r in range(3)],
            [rhs[:, r] for r in range(3)])
        assert valid.all()
        np.testing.assert_allclose(np.stack(x, axis=-1), want_x, rtol=1e-12)
        np.testing.assert_allclose(rcond, want_rcond, rtol=1e-12)
        for n in range(5):
            xs, rc, ok = _kernels._solve3(blocks[n].tolist(), rhs[n].tolist())
            assert ok
            np.testing.assert_array_equal(xs, [x[r][n] for r in range(3)])
            assert rc == rcond[n]


class TestT5Validation:
    @pytest.mark.parametrize("t5", [-1.0, float("nan"), float("inf")])
    def test_scan_rejects(self, geom, coarse_region, t5):
        with pytest.raises(ConfigurationError):
            scan(geom, coarse_region, t5)
        with pytest.raises(ConfigurationError):
            scan(geom, coarse_region, t5, enforce_t5_bounds=False)

    @pytest.mark.parametrize("t5", [-1.0, float("nan"), float("inf")])
    def test_union_scan_rejects(self, geom, coarse_region, t5):
        with pytest.raises(ConfigurationError):
            union_scan(geom, coarse_region, [3000.0, t5])


class TestUnion:
    def test_singleton_union_equals_scan(self, geom, coarse_region):
        single = scan(geom, coarse_region, 3000.0, enforce_t5_bounds=False)
        union = union_scan(geom, coarse_region, [3000.0])
        np.testing.assert_array_equal(single.reachable, union.reachable)
        np.testing.assert_array_equal(np.nan_to_num(single.tensions),
                                      np.nan_to_num(union.tensions))

    def test_union_contains_members(self, geom, coarse_region):
        t5s = [0.0, 2000.0, 4000.0]
        union = union_scan(geom, coarse_region, t5s)
        for t5 in t5s:
            member = scan(geom, coarse_region, t5, enforce_t5_bounds=False)
            assert not (member.reachable & ~union.reachable).any()
        assert union.area_m2 >= max(
            scan(geom, coarse_region, t5, enforce_t5_bounds=False).area_m2
            for t5 in t5s)

    def test_first_tension_wins(self, geom, coarse_region):
        union = union_scan(geom, coarse_region, [2000.0, 3000.0])
        first = scan(geom, coarse_region, 2000.0, enforce_t5_bounds=False)
        cells = first.reachable
        np.testing.assert_array_equal(union.tensions[cells, 4],
                                      np.full(cells.sum(), 2000.0))

    def test_empty_values_rejected(self, geom, coarse_region):
        with pytest.raises(ConfigurationError):
            union_scan(geom, coarse_region, [])


class TestCoverage:
    def test_full_region_fraction(self, geom, coarse_region):
        grid = scan(geom, coarse_region, 3000.0)
        report = coverage(grid, coarse_region)
        assert report.covered_fraction == pytest.approx(
            grid.reachable.sum() / grid.reachable.size)
        assert report.desired_area_m2 == pytest.approx(coarse_region.area_m2)

    def test_corner_flags(self, geom, coarse_region):
        grid = scan(geom, coarse_region, 3000.0)
        report = coverage(grid, coarse_region)
        assert report.corners_covered == (
            bool(grid.reachable[0, 0]), bool(grid.reachable[-1, 0]),
            bool(grid.reachable[0, -1]), bool(grid.reachable[-1, -1]))
        assert report.bottom_corners_covered == (
            report.corners_covered[0] and report.corners_covered[1])

    def test_desired_must_be_contained(self, geom, coarse_region):
        grid = scan(geom, coarse_region, 3000.0)
        too_big = ScanRegion(-50.0, 50.0, -5.0, 5.0, 0.25)
        with pytest.raises(GeometryError):
            coverage(grid, too_big)

    def test_subregion(self, geom, coarse_region):
        grid = scan(geom, coarse_region, 3000.0)
        inner = ScanRegion(-5.0, 5.0, -1.0, 1.0, 0.25)
        report = coverage(grid, inner)
        assert report.covered_fraction == 1.0


class TestCsv:
    def test_format(self, geom, tmp_path):
        region = ScanRegion(-1.0, 1.0, -0.5, 0.5, 0.5)
        grid = scan(geom, region, 3000.0)
        path = tmp_path / "grid.csv"
        grid.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x_m,y_m,reachable,gamma_N,T1_N,T2_N,T3_N,T4_N,T5_N"
        assert len(lines) == 1 + region.nx * region.ny
        # y-major: the first nx rows share the lowest y
        first = [line.split(",") for line in lines[1:1 + region.nx]]
        assert all(row[1] == "-0.5" for row in first)
        assert [row[0] for row in first] == ["-1", "-0.5", "0", "0.5", "1"]
        for row in first:
            if row[2] == "0":
                assert row[3:] == [""] * 6
            else:
                assert all(cell for cell in row[3:])

    def test_deterministic_bytes(self, geom, coarse_region, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        scan(geom, coarse_region, 3000.0, jobs=1).to_csv(a)
        scan(geom, coarse_region, 3000.0, jobs=4).to_csv(b)
        assert a.read_bytes() == b.read_bytes()


def reference_to_csv(grid, path) -> None:
    """The per-cell writer that the streamed WorkspaceGrid.to_csv replaced,
    kept as the byte reference."""
    xs, ys = grid.x_values, grid.y_values
    lines = ["x_m,y_m,reachable,gamma_N,T1_N,T2_N,T3_N,T4_N,T5_N"]
    for iy in range(ys.size):
        for ix in range(xs.size):
            vals = [grid.gamma[ix, iy], *grid.tensions[ix, iy]]
            lines.append(
                f"{xs[ix]:.6g},{ys[iy]:.6g},{int(grid.reachable[ix, iy])},"
                + ",".join("" if np.isnan(v) else f"{v:.6g}" for v in vals)
            )
    Path(path).write_text("\n".join(lines) + "\n")


def assert_csv_matches_reference(grid) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = Path(tmp) / "new.csv", Path(tmp) / "ref.csv"
        grid.to_csv(new)
        reference_to_csv(grid, ref)
        assert new.read_bytes() == ref.read_bytes()


class TestCsvBytes:
    """The streamed writer gives the reference writer's bytes."""

    def test_rigid(self, geom, coarse_region):
        assert_csv_matches_reference(scan(geom, coarse_region, 3000.0))

    def test_elastic_binding_window(self, planar, coarse_region):
        from dataclasses import replace
        from cdpr import ElasticParams, Variant, expand_planar
        window = ElasticParams(ea=[1e6] * 6, l0_min=[2.0] * 6, l0_max=[22.0] * 6)
        g = expand_planar(replace(planar, elastic=window), Variant.A)
        grid = scan(g, coarse_region, 3000.0, mode="elastic")
        assert 0 < grid.reachable.sum() < grid.reachable.size
        assert_csv_matches_reference(grid)

    def test_bounded_union_first_t5_wins(self, geom, coarse_region):
        grid = union_scan(geom, coarse_region, [0.0, 1000.0, 2000.0, 3000.0],
                          enforce_t5_bounds=True)
        assert 0 < grid.reachable.sum() < grid.reachable.size
        assert np.unique(grid.tensions[grid.reachable, 4]).size > 1
        assert_csv_matches_reference(grid)

    def test_all_unreachable(self, geom, coarse_region):
        grid = scan(geom, coarse_region, 1e6)
        assert not grid.reachable.any()
        assert_csv_matches_reference(grid)

    def test_single_cell(self, geom):
        grid = scan(geom, ScanRegion(0.0, 0.1, 0.0, 0.1, 1.0), 3000.0)
        assert grid.reachable.shape == (1, 1)
        assert_csv_matches_reference(grid)


CSV_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), 0.0, -0.0, 1e-7, -2.5e-5, 123456.5, 9999995.0,
                     -1e21, 3000.0]),
)


@st.composite
def random_grids(draw):
    """A WorkspaceGrid built directly: any reachable mask, any NaN pattern,
    coordinates and values that format in exponent form or as -0, and one
    reachable cell holding a NaN (a row that mixes filled and empty
    fields)."""
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    x_min = draw(st.sampled_from([-12.5, -1e-7, 0.0, 2.5e6]))
    y_min = draw(st.sampled_from([-2.85, -3e-6, 0.0, 4.5e5]))
    step = draw(st.sampled_from([0.05, 0.25, 1e-6, 1234.5]))
    region = ScanRegion(x_min, x_min + (nx - 0.5) * step,
                        y_min, y_min + (ny - 0.5) * step, step)
    nx, ny = region.nx, region.ny
    reach = draw(arrays(bool, (nx, ny)))
    vals = draw(arrays(np.float64, (nx, ny, 6), elements=CSV_VALUES))
    ix, iy, k = (draw(st.integers(0, n - 1)) for n in (nx, ny, 6))
    reach[ix, iy] = True
    vals[ix, iy, k] = np.nan
    return WorkspaceGrid(region=region, reachable=reach, gamma=vals[..., 0],
                         tensions=vals[..., 1:])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(grid=random_grids())
def test_csv_bytes_match_reference_on_random_grids(grid):
    assert_csv_matches_reference(grid)


class TestCompletenessGap:
    def test_candidate_method_sound(self, geom):
        """No cell is candidate-feasible yet null-space-infeasible. The
        reverse set (poses only the null-space interval reaches) is reported
        by the audit but carries no assertion."""
        audit = ScanRegion(-12.5, 12.5, -2.85, 2.15, 1.0)
        unsound, incomplete = completeness_gap(geom, audit, 3000.0)
        assert unsound == []
        assert isinstance(incomplete, list)
