import numpy as np
import pytest
from dataclasses import replace

from cdpr import (
    ElasticParams,
    PlatformPose,
    Variant,
    cost_elastic,
    cost_rigid,
    dynamics_residual,
    equilibrium_input,
    expand_planar,
    feasible_alpha_interval,
    gravity_wrench,
    jacobians,
    nullspace_oracle,
    nullspace_solver,
)
from cdpr.statics import TOL_TENSION, candidate_tensions

from conftest import random_poses

ORIGIN = PlatformPose.planar(0.0, 0.0)


def feasible_poses(geom, rng, count, t5=3000.0):
    out = []
    while len(out) < count:
        for x, y in random_poses(rng, count):
            if cost_rigid(geom, PlatformPose.planar(x, y), t5).feasible_any:
                out.append((x, y))
    return out[:count]


class TestEquilibriumInput:
    def test_gravity_wrench(self, geom):
        np.testing.assert_array_equal(gravity_wrench(geom), [0.0, 2943.0, 0.0])

    def test_origin_t5_3000(self, geom):
        eq = equilibrium_input(geom, ORIGIN, 3000.0)
        # frozen from a hand calculation: G_y - 2 * T5 * sin(atan2(2.796, 13))
        assert eq.u[0] == pytest.approx(0.0, abs=1e-9)
        assert eq.u[1] == pytest.approx(1681.3884622261653, abs=1e-9)
        assert eq.u[2] == pytest.approx(0.0, abs=1e-9)

    def test_affine_in_t5(self, geom, rng):
        """u is affine in the counterbalance tension: second differences
        vanish."""
        for x, y in random_poses(rng, 20):
            pose = PlatformPose.planar(x, y)
            u1 = equilibrium_input(geom, pose, 1000.0).u
            u2 = equilibrium_input(geom, pose, 2000.0).u
            u3 = equilibrium_input(geom, pose, 3000.0).u
            np.testing.assert_allclose(u1 + u3 - 2 * u2, 0.0, atol=1e-9)


class TestCandidates:
    def test_frozen_origin_solution(self, geom):
        result = cost_rigid(geom, ORIGIN, 3000.0)
        assert result.feasible_any
        assert result.gamma == pytest.approx(25540.100230427208, abs=1e-6)
        np.testing.assert_allclose(
            result.T_opt,
            [16000.0, 16000.0, 8375.46177176, 8375.46177176], atol=1e-6)
        by_index = {c.candidate_index: c for c in result.candidates}
        assert by_index[1].feasible and by_index[2].feasible
        assert not by_index[3].feasible and not by_index[4].feasible
        assert by_index[3].T[0] == pytest.approx(20912.683, abs=1e-3)

    def test_clamp_exactness(self, geom, rng):
        for x, y in random_poses(rng, 100):
            for c in candidate_tensions(geom, PlatformPose.planar(x, y), 3000.0):
                if c.valid:
                    k = c.candidate_index - 1
                    assert c.T[k] == geom.tension_max[k]

    def test_equilibrium_exactness(self, geom, rng):
        """Every valid candidate solves A_l T = u to 1e-9 relative."""
        for x, y in random_poses(rng, 200):
            pose = PlatformPose.planar(x, y)
            A = jacobians(geom, pose).structure_matrix
            u = equilibrium_input(geom, pose, 3000.0).u
            scale = max(1.0, float(np.linalg.norm(u)))
            for c in candidate_tensions(geom, pose, 3000.0):
                if c.valid:
                    assert np.linalg.norm(A @ c.T - u) <= 1e-9 * scale

    def test_gamma_is_max_feasible_norm(self, geom, rng):
        for x, y in feasible_poses(geom, rng, 50):
            result = cost_rigid(geom, PlatformPose.planar(x, y), 3000.0)
            norms = [c.norm for c in result.candidates if c.feasible]
            assert result.gamma == pytest.approx(max(norms), abs=1e-9)

    def test_tie_breaks_to_lowest_index(self, geom):
        result = cost_rigid(geom, ORIGIN, 3000.0)
        # candidates 1 and 2 coincide by symmetry; the first wins
        assert result.best_index == 1

    def test_x_mirror_symmetry(self, geom, rng):
        for x, y in random_poses(rng, 100):
            a = cost_rigid(geom, PlatformPose.planar(x, y), 3000.0)
            b = cost_rigid(geom, PlatformPose.planar(-x, y), 3000.0)
            assert a.feasible_any == b.feasible_any
            if a.feasible_any:
                assert a.gamma == pytest.approx(b.gamma, rel=1e-9)

    def test_affine_in_t5(self, geom, rng):
        """With the clamped entry fixed, each candidate solution is affine in
        the counterbalance tension."""
        for x, y in random_poses(rng, 30):
            pose = PlatformPose.planar(x, y)
            sols = [candidate_tensions(geom, pose, t5)
                    for t5 in (1000.0, 2000.0, 3000.0)]
            for c1, c2, c3 in zip(*sols):
                if c1.valid and c2.valid and c3.valid:
                    np.testing.assert_allclose(
                        c1.T + c3.T - 2 * c2.T, 0.0, atol=1e-6)

    def test_linear_in_mass(self, geom, rng):
        """At zero counterbalance tension the solutions scale linearly with
        the platform mass."""
        doubled = replace(geom, platform_mass=2 * geom.platform_mass)
        for x, y in random_poses(rng, 30):
            pose = PlatformPose.planar(x, y)
            for c1, c2 in zip(candidate_tensions(geom, pose, 0.0),
                              candidate_tensions(doubled, pose, 0.0)):
                if c1.valid and c2.valid:
                    k = c1.candidate_index - 1
                    free = [i for i in range(4) if i != k]
                    np.testing.assert_allclose(
                        2 * c1.T[free] - c2.T[free],
                        geom.tension_max[k] * _influence(geom, pose, k)[free],
                        atol=1e-6)

    def test_t5_bounds_enforced(self, geom):
        assert not cost_rigid(geom, ORIGIN, 1e9).feasible_any
        from cdpr import ConfigurationError
        with pytest.raises(ConfigurationError):
            cost_rigid(geom, ORIGIN, -5.0)
        lifted = cost_rigid(geom, ORIGIN, 17000.0, enforce_t5_bounds=False)
        assert lifted.feasible_any != cost_rigid(geom, ORIGIN, 17000.0).feasible_any


class TestT5Validation:
    @pytest.mark.parametrize("t5", [-1.0, float("nan"), float("inf")])
    def test_per_pose_rejects(self, geom, t5):
        from cdpr import ConfigurationError
        for call in (equilibrium_input, candidate_tensions, nullspace_oracle):
            with pytest.raises(ConfigurationError):
                call(geom, ORIGIN, t5)
        with pytest.raises(ConfigurationError):
            cost_rigid(geom, ORIGIN, t5, enforce_t5_bounds=False)


def _influence(geom, pose, k):
    """Tension response to a unit clamped tension at zero load: solving the
    3 x 3 block with rhs = -A[:, k] and doubling the load doubles only the
    load-dependent part. Used to separate the affine offset in
    test_linear_in_mass."""
    A = jacobians(geom, pose).structure_matrix
    free = [i for i in range(4) if i != k]
    T = np.zeros(4)
    T[free] = np.linalg.solve(A[:, free], -A[:, k])
    T[k] = 1.0
    return T


class TestNullspace:
    def test_equilibrium_for_any_alpha(self, geom, rng):
        for x, y in random_poses(rng, 50):
            pose = PlatformPose.planar(x, y)
            A = jacobians(geom, pose).structure_matrix
            u = equilibrium_input(geom, pose, 3000.0).u
            scale = max(1.0, float(np.linalg.norm(u)))
            for alpha in (-5000.0, 0.0, 1234.5):
                T = nullspace_solver(geom, pose, 3000.0, alpha)
                assert np.linalg.norm(A @ T - u) <= 1e-9 * scale

    def test_alpha_zero_is_min_norm(self, geom, rng):
        for x, y in random_poses(rng, 20):
            pose = PlatformPose.planar(x, y)
            t0 = nullspace_solver(geom, pose, 3000.0, 0.0)
            for alpha in (-100.0, 100.0):
                assert np.linalg.norm(t0) <= np.linalg.norm(
                    nullspace_solver(geom, pose, 3000.0, alpha)) + 1e-9

    def test_interval_endpoints_touch_bounds(self, geom, rng):
        tmin = geom.tension_min[:4]
        tmax = geom.tension_max[:4]
        for x, y in feasible_poses(geom, rng, 30):
            pose = PlatformPose.planar(x, y)
            interval = feasible_alpha_interval(geom, pose, 3000.0)
            assert interval is not None
            for alpha in interval:
                T = nullspace_solver(geom, pose, 3000.0, alpha)
                assert np.all(T >= tmin - 1e-6) and np.all(T <= tmax + 1e-6)
                # an endpoint sits on at least one bound
                at_bound = np.isclose(T, tmin, atol=1e-6) | np.isclose(T, tmax, atol=1e-6)
                assert at_bound.any()

    def test_oracle_soundness(self, geom, rng):
        """Candidate feasibility implies null-space feasibility: the clamped
        candidates are particular in-bounds solutions."""
        for x, y in random_poses(rng, 200):
            pose = PlatformPose.planar(x, y)
            if cost_rigid(geom, pose, 3000.0).feasible_any:
                assert nullspace_oracle(geom, pose, 3000.0)


class TestElastic:
    @pytest.fixture()
    def elastic_geom(self, planar):
        wide = ElasticParams(ea=[1e15] * 6, l0_min=[0.0] * 6, l0_max=[100.0] * 6)
        return expand_planar(replace(planar, elastic=wide), Variant.A)

    def test_rigid_limit(self, elastic_geom, geom, rng):
        """Near-infinite stiffness and a wide length window reproduce the
        rigid result."""
        for x, y in random_poses(rng, 100):
            pose = PlatformPose.planar(x, y)
            r = cost_rigid(geom, pose, 3000.0)
            e = cost_elastic(elastic_geom, pose, 3000.0)
            assert r.feasible_any == e.feasible_any
            if r.feasible_any:
                assert e.gamma == pytest.approx(r.gamma, rel=1e-12)

    def test_tight_window_rejects(self, planar):
        tight = ElasticParams(ea=[1e6] * 6,
                              l0_min=[0.0] * 6, l0_max=[1.0] * 6)
        g = expand_planar(replace(planar, elastic=tight), Variant.A)
        assert not cost_elastic(g, ORIGIN, 3000.0).feasible_any

    def test_requires_parameters(self, geom):
        from cdpr import ConfigurationError
        with pytest.raises(ConfigurationError):
            cost_elastic(geom, ORIGIN, 3000.0)


class TestDynamicsResidual:
    def test_zero_at_static_solution(self, geom, rng):
        scale = geom.platform_mass * geom.gravity
        for x, y in feasible_poses(geom, rng, 50):
            pose = PlatformPose.planar(x, y)
            result = cost_rigid(geom, pose, 3000.0)
            res = dynamics_residual(geom, pose, np.zeros(6), np.zeros(6),
                                    result.T_opt, np.array([3000.0, 3000.0]))
            # planar components must balance; out-of-plane are zero by construction
            assert np.linalg.norm(res[[0, 1, 5]]) <= 1e-9 * scale

    def test_acceleration_term(self, geom):
        result = cost_rigid(geom, ORIGIN, 3000.0)
        qddot = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        res = dynamics_residual(geom, ORIGIN, np.zeros(6), qddot,
                                result.T_opt, np.array([3000.0, 3000.0]))
        base = dynamics_residual(geom, ORIGIN, np.zeros(6), np.zeros(6),
                                 result.T_opt, np.array([3000.0, 3000.0]))
        assert res[0] - base[0] == pytest.approx(geom.platform_mass, rel=1e-12)

    def test_shape_validation(self, geom):
        with pytest.raises(ValueError):
            dynamics_residual(geom, ORIGIN, np.zeros(5), np.zeros(6),
                              np.zeros(4), np.zeros(2))
        with pytest.raises(ValueError):
            dynamics_residual(geom, ORIGIN, np.zeros(6), np.zeros(6),
                              np.zeros(3), np.zeros(2))
