"""Static equilibrium and tension distribution for the planar four-cable case.

The platform is in equilibrium when A_l @ T = u, where A_l is the planar
3 x 4 structure matrix of the driven cables and u is the gravity wrench minus
the counterbalance contribution. With four cables and three planar degrees of
freedom there is one degree of redundancy; it is resolved by clamping one
cable at its upper bound and solving the remaining 3 x 3 system, giving four
candidate tension vectors per pose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import RCOND_MIN, TOL_TENSION, _solve3
from .errors import ConfigurationError, SingularConfigurationError
from .geometry import PlatformPose, RobotGeometry
from .kinematics import Jacobians, cable_state, jacobians

__all__ = [
    "TOL_TENSION",
    "TOL_RESIDUAL",
    "RCOND_MIN",
    "EquilibriumInput",
    "TensionSolution",
    "CostResult",
    "gravity_wrench",
    "equilibrium_input",
    "candidate_tensions",
    "cost_rigid",
    "cost_elastic",
    "nullspace_solver",
    "nullspace_oracle",
    "feasible_alpha_interval",
    "dynamics_residual",
]

TOL_RESIDUAL = 1e-9   # relative linear-system residual accepted


@dataclass(frozen=True)
class EquilibriumInput:
    """Planar wrench the driven cables must produce: u = G - J_d^T F."""

    u: np.ndarray          # (3,) [Fx, Fy, Mz]
    F: np.ndarray          # (m,) counterbalance tensions
    G: np.ndarray          # (3,) planar gravity wrench


@dataclass(frozen=True)
class TensionSolution:
    candidate_index: int   # 1-based; this cable is clamped at its upper bound
    T: np.ndarray          # (4,) driven-cable tensions
    feasible: bool
    valid: bool            # False when the 3x3 block was near singular
    norm: float
    rcond: float


@dataclass(frozen=True)
class CostResult:
    candidates: tuple      # four TensionSolution entries
    feasible_any: bool
    gamma: float | None    # max feasible candidate norm
    T_opt: np.ndarray | None

    @property
    def best_index(self) -> int | None:
        if self.T_opt is None:
            return None
        for c in self.candidates:
            if c.feasible and c.norm == self.gamma:
                return c.candidate_index
        return None


def gravity_wrench(geom: RobotGeometry) -> np.ndarray:
    """Planar gravity wrench [0, m*g, 0] that the cables must support."""
    return np.array([0.0, geom.platform_mass * geom.gravity, 0.0])


def _validate_t5(t5: float) -> None:
    """The counterbalance tension must be a finite number >= 0; the per-pose
    and the grid routes both check it here."""
    if not (math.isfinite(t5) and t5 >= 0):
        raise ConfigurationError(
            f"counterbalance tension must be finite and >= 0, got {t5!r}")


def equilibrium_input(geom: RobotGeometry, pose: PlatformPose, t5: float) -> EquilibriumInput:
    """Wrench left for the driven cables once the counterbalance cables all
    carry tension t5."""
    return _equilibrium(geom, jacobians(geom, pose), t5)


def _equilibrium(geom: RobotGeometry, jac: Jacobians, t5: float) -> EquilibriumInput:
    _validate_t5(t5)
    G = gravity_wrench(geom)
    F = np.full(geom.m, float(t5))
    u = G - jac.cb_structure_matrix @ F
    return EquilibriumInput(u=u, F=F, G=G)


def _check_planar(geom: RobotGeometry) -> None:
    if geom.n != 4:
        raise ConfigurationError(
            f"redundancy resolution requires exactly 4 driven cables, got {geom.n}")


def candidate_tensions(geom: RobotGeometry, pose: PlatformPose, t5: float) -> list[TensionSolution]:
    """The four clamped-cable candidate solutions of A_l @ T = u.

    Candidate k fixes T_k = T_kmax and solves the remaining 3 x 3 system.
    Near-singular blocks (rcond < RCOND_MIN) mark that candidate invalid
    rather than failing the pose.
    """
    _check_planar(geom)
    jac = jacobians(geom, pose)
    u = _equilibrium(geom, jac, t5).u
    A = jac.structure_matrix
    tmin = geom.tension_min[:4]
    tmax = geom.tension_max[:4]
    out = []
    for k in range(4):
        idx = [i for i in range(4) if i != k]
        sol, rcond, valid = _solve3(A[:, idx].tolist(), (u - A[:, k] * tmax[k]).tolist())
        rcond = float(rcond)
        if not valid:
            out.append(TensionSolution(
                candidate_index=k + 1, T=np.full(4, np.nan), feasible=False,
                valid=False, norm=np.nan, rcond=rcond))
            continue
        T = np.empty(4)
        T[k] = tmax[k]
        T[idx] = sol
        feasible = bool(np.all(T >= tmin - TOL_TENSION) and np.all(T <= tmax + TOL_TENSION))
        out.append(TensionSolution(
            candidate_index=k + 1, T=T, feasible=feasible, valid=True,
            norm=float(np.linalg.norm(T)), rcond=rcond))
    return out


def _t5_within_bounds(geom: RobotGeometry, t5: float) -> bool:
    return geom.cb_tension_min - TOL_TENSION <= t5 <= geom.cb_tension_max + TOL_TENSION


def _aggregate(candidates: list[TensionSolution], extra_ok) -> CostResult:
    gamma = None
    best = None
    for c in candidates:
        if not (c.feasible and extra_ok(c)):
            continue
        if gamma is None or c.norm > gamma + TOL_TENSION:
            gamma = c.norm
            best = c
    return CostResult(
        candidates=tuple(candidates),
        feasible_any=best is not None,
        gamma=gamma,
        T_opt=None if best is None else best.T,
    )


def cost_rigid(geom: RobotGeometry, pose: PlatformPose, t5: float,
               *, enforce_t5_bounds: bool = True) -> CostResult:
    """Feasibility and max-norm score over the four candidates, cables rigid.

    The counterbalance tension itself must sit inside its own bounds unless
    enforce_t5_bounds is lifted (used by the active-counterbalance scan).
    Infeasibility is a result, not an error.
    """
    candidates = candidate_tensions(geom, pose, t5)
    if enforce_t5_bounds and not _t5_within_bounds(geom, t5):
        return CostResult(candidates=tuple(candidates), feasible_any=False,
                          gamma=None, T_opt=None)
    return _aggregate(candidates, lambda c: True)


def cost_elastic(geom: RobotGeometry, pose: PlatformPose, t5: float,
                 *, enforce_t5_bounds: bool = True) -> CostResult:
    """As cost_rigid, plus the unstretched-length window check per cable:
    the unstretched length l * EA / (T + EA) must lie in [l0_min, l0_max]."""
    if geom.elastic is None:
        raise ConfigurationError("geometry has no elastic parameters")
    state = cable_state(geom, pose)
    ea = geom.elastic.ea
    lo = geom.elastic.l0_min
    hi = geom.elastic.l0_max

    def cb_ok(t5_val: float) -> bool:
        for j in range(geom.m):
            l0 = state.d_len[j] * ea[4 + j] / (t5_val + ea[4 + j])
            if not (lo[4 + j] <= l0 <= hi[4 + j]):
                return False
        return True

    def extra_ok(c: TensionSolution) -> bool:
        l0 = state.l_len * ea[:4] / (c.T + ea[:4])
        return bool(np.all(lo[:4] <= l0) and np.all(l0 <= hi[:4]))

    candidates = candidate_tensions(geom, pose, t5)
    if (enforce_t5_bounds and not _t5_within_bounds(geom, t5)) or not cb_ok(t5):
        return CostResult(candidates=tuple(candidates), feasible_any=False,
                          gamma=None, T_opt=None)
    return _aggregate(candidates, extra_ok)


# ---------------------------------------------------------------------------
# Null-space route: the general pseudoinverse solution, used as an
# independent feasibility oracle for the candidate method.

def _pinv_and_null(geom: RobotGeometry, jac: Jacobians):
    _check_planar(geom)
    A = jac.structure_matrix
    if np.linalg.matrix_rank(A, tol=1e-9) < 3:
        raise SingularConfigurationError("structure matrix is rank deficient")
    _, _, vt = np.linalg.svd(A)
    null = vt[-1]
    return np.linalg.pinv(A), null


def nullspace_solver(geom: RobotGeometry, pose: PlatformPose, t5: float,
                     alpha: float) -> np.ndarray:
    """T(alpha) = pinv(A_l) u + alpha * null(A_l); exact equilibrium for
    every alpha."""
    jac = jacobians(geom, pose)
    pinv, null = _pinv_and_null(geom, jac)
    u = _equilibrium(geom, jac, t5).u
    return pinv @ u + alpha * null


def feasible_alpha_interval(geom: RobotGeometry, pose: PlatformPose, t5: float):
    """Closed interval of alpha keeping every driven tension within bounds,
    or None when empty. Computed analytically by intersecting the per-cable
    linear constraints."""
    jac = jacobians(geom, pose)
    pinv, null = _pinv_and_null(geom, jac)
    t0 = pinv @ _equilibrium(geom, jac, t5).u
    lo, hi = -np.inf, np.inf
    tmin = geom.tension_min[:4]
    tmax = geom.tension_max[:4]
    for i in range(4):
        if abs(null[i]) < 1e-14:
            if not (tmin[i] - TOL_TENSION <= t0[i] <= tmax[i] + TOL_TENSION):
                return None
            continue
        a = (tmin[i] - t0[i]) / null[i]
        b = (tmax[i] - t0[i]) / null[i]
        lo = max(lo, min(a, b))
        hi = min(hi, max(a, b))
    if lo > hi + 1e-12:
        return None
    return (lo, hi)


def nullspace_oracle(geom: RobotGeometry, pose: PlatformPose, t5: float) -> bool:
    """True iff some tension vector within bounds balances the wrench
    (non-empty feasible alpha interval). Independent of the candidate
    clamping scheme; bounds on t5 itself are not checked here."""
    return feasible_alpha_interval(geom, pose, t5) is not None


# ---------------------------------------------------------------------------
# Newton-Euler residual, for verifying static solutions.

def dynamics_residual(geom: RobotGeometry, pose: PlatformPose,
                      qdot: np.ndarray, qddot: np.ndarray,
                      T: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Residual of the equations of motion: M qddot + C(q, qdot) qdot + G
    - J^T [T; F]. Zero (to rounding) at any static solution with
    qdot = qddot = 0. External forces and moments are taken as zero."""
    qdot = np.asarray(qdot, float)
    qddot = np.asarray(qddot, float)
    T = np.asarray(T, float)
    F = np.asarray(F, float)
    if qdot.shape != (6,) or qddot.shape != (6,):
        raise ValueError("qdot and qddot must be 6-vectors")
    if T.shape != (geom.n,) or F.shape != (geom.m,):
        raise ValueError("tension vectors must match cable counts")
    jac = jacobians(geom, pose)
    omega = qdot[3:]
    inertial = np.concatenate([
        geom.platform_mass * qddot[:3],
        geom.platform_inertia @ qddot[3:],
    ])
    coriolis = np.concatenate([np.zeros(3),
                               np.cross(omega, geom.platform_inertia @ omega)])
    G6 = np.concatenate([[0.0, geom.platform_mass * geom.gravity, 0.0], np.zeros(3)])
    return inertial + coriolis + G6 - jac.J.T @ np.concatenate([T, F])
