"""Property tests over random planar geometries: the grid kernel, the
per-pose candidate solve and the null-space oracle must agree, and a
mirror-symmetric robot must have a mirror-symmetric workspace."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdpr import PlatformPose, RobotGeometry, ScanRegion, cost_rigid, nullspace_oracle, scan

STEP = 0.5   # a power of two keeps the x samples exact mirror images


@st.composite
def planar_robots(draw):
    """A four-cable planar robot laid out like the preset (corner anchors,
    upper pair to the platform top, lower pair crossing up) with two
    counterbalance cables over pulleys above the frame, and the scan grid
    inside it. Asymmetric robots move the anchors outward and the lower pair
    to any height, where some cells have two feasible candidates of
    different norms. Returns (geometry, region, symmetric)."""
    fl = lambda lo, hi: draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))
    W, H = fl(4.0, 14.0), fl(2.5, 4.0)               # frame half width, half height
    bw, h1, hb = fl(0.1, 0.15) * W, fl(0.0, 0.6), fl(-0.6, 0.6)
    wp, hp, hbp = fl(0.3, 1.2) * W, fl(1.1, 1.6) * H, fl(0.0, 0.15) * H
    wbp = draw(st.sampled_from([0.0, bw]))
    anchors = np.array([[-W, H, 0], [W, H, 0], [W, -H, 0], [-W, -H, 0]], float)
    attachments = np.array([[-bw, h1, 0], [bw, h1, 0], [bw, hb, 0], [-bw, hb, 0]], float)
    cb_fixed = np.array([[-wp, hp, 0], [wp, hp, 0]], float)
    cb_platform = np.array([[-wbp, hbp, 0], [wbp, hbp, 0]], float)
    t_top, t_bottom = fl(4000.0, 20000.0), fl(4000.0, 20000.0)
    tmax = np.array([t_top, t_top, t_bottom, t_bottom, 20000.0, 20000.0])
    symmetric = draw(st.booleans())
    if not symmetric:
        anchors[:, 0] += np.sign(anchors[:, 0]) * [fl(0.0, 0.5) for _ in range(4)]
        anchors[2:, 1] = [fl(-H, H), fl(-H, H)]
        tmax[:4] *= np.array(draw(st.lists(st.floats(0.8, 1.2), min_size=4, max_size=4)))
    geom = RobotGeometry(
        anchors=anchors, attachments=attachments, cb_pulleys_fixed=cb_fixed,
        cb_pulleys_platform=cb_platform, platform_mass=fl(50.0, 500.0), gravity=9.81,
        tension_min=np.zeros(6), tension_max=tmax)
    half_x = STEP * np.floor(0.75 * W / STEP)
    half_y = STEP * np.floor(0.6 * H / STEP)
    region = ScanRegion(-half_x, half_x, -half_y, half_y, STEP)
    return geom, region, symmetric


@settings(max_examples=40, deadline=None, derandomize=True)
@given(robot=planar_robots(), t5=st.floats(0.0, 6000.0))
def test_grid_per_pose_and_oracle_agree(robot, t5):
    """At every cell: the grid equals the per-pose candidate solve, and a
    reachable cell is feasible for the null-space oracle."""
    geom, region, symmetric = robot
    grid = scan(geom, region, t5, enforce_t5_bounds=False)
    xs, ys = region.x_values(), region.y_values()

    for ix in range(xs.size):
        for iy in range(ys.size):
            pose = PlatformPose.planar(xs[ix], ys[iy])
            ref = cost_rigid(geom, pose, t5, enforce_t5_bounds=False)
            assert grid.reachable[ix, iy] == ref.feasible_any
            if ref.feasible_any:
                assert grid.gamma[ix, iy] == pytest.approx(ref.gamma, rel=1e-9)
                np.testing.assert_allclose(grid.tensions[ix, iy, :4], ref.T_opt,
                                           rtol=1e-9, atol=1e-6)
                assert nullspace_oracle(geom, pose, t5)

    if symmetric:
        np.testing.assert_array_equal(grid.reachable, grid.reachable[::-1])
        np.testing.assert_allclose(np.nan_to_num(grid.gamma),
                                   np.nan_to_num(grid.gamma[::-1]), rtol=1e-9, atol=1e-6)
