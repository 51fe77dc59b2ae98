"""Cable kinematics: cable vectors, lengths, unit vectors, and the Jacobians
mapping platform twist to cable length rates.

Sign convention: the cable vector points from its fixed point to its platform
point, the unit vector points back along the cable (the direction the cable
pulls the platform), and length rates satisfy rates = -J @ twist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import EPS_LEN
from .errors import SingularPoseError
from .geometry import PlatformPose, RobotGeometry

__all__ = ["EPS_LEN", "CableState", "Jacobians", "cable_state", "jacobians", "cable_rates"]


@dataclass(frozen=True)
class CableState:
    l_vec: np.ndarray   # (n, 3) driven cable vectors
    l_len: np.ndarray   # (n,)
    u_hat: np.ndarray   # (n, 3) driven cable pull directions
    d_vec: np.ndarray   # (m, 3) counterbalance cable vectors
    d_len: np.ndarray   # (m,)
    v_hat: np.ndarray   # (m, 3)


@dataclass(frozen=True)
class Jacobians:
    """J_l (n x 6) for driven cables, J_d (m x 6) for counterbalance cables,
    row i = [u_i^T, (r_i x u_i)^T]. J is their row stack."""

    J_l: np.ndarray
    J_d: np.ndarray

    @property
    def J(self) -> np.ndarray:
        return np.vstack([self.J_l, self.J_d])

    @property
    def structure_matrix(self) -> np.ndarray:
        """Planar 3 x n view of J_l^T: rows are (Fx, Fy, Mz)."""
        return self.J_l.T[[0, 1, 5], :]

    @property
    def cb_structure_matrix(self) -> np.ndarray:
        """Planar 3 x m view of J_d^T."""
        return self.J_d.T[[0, 1, 5], :]


def cable_state(geom: RobotGeometry, pose: PlatformPose) -> CableState:
    """Cable vectors, lengths, and unit vectors at the given pose.

    Raises SingularPoseError if any cable length falls below EPS_LEN.
    """
    p = pose.position
    l_vec = p + geom.attachments - geom.anchors
    l_len = np.linalg.norm(l_vec, axis=1)
    for i, length in enumerate(l_len):
        if length < EPS_LEN:
            raise SingularPoseError("driven", i + 1)
    u_hat = -l_vec / l_len[:, None]

    d_vec = p + geom.cb_pulleys_platform - geom.cb_pulleys_fixed
    d_len = np.linalg.norm(d_vec, axis=1)
    for j, length in enumerate(d_len):
        if length < EPS_LEN:
            raise SingularPoseError("counterbalance", j + 1)
    v_hat = -d_vec / d_len[:, None] if geom.m else d_vec.reshape(0, 3)

    return CableState(l_vec=l_vec, l_len=l_len, u_hat=u_hat,
                      d_vec=d_vec, d_len=d_len, v_hat=v_hat)


def jacobians(geom: RobotGeometry, pose: PlatformPose) -> Jacobians:
    state = cable_state(geom, pose)
    J_l = np.hstack([state.u_hat, np.cross(geom.attachments, state.u_hat)])
    if geom.m:
        J_d = np.hstack([state.v_hat, np.cross(geom.cb_pulleys_platform, state.v_hat)])
    else:
        J_d = np.zeros((0, 6))
    return Jacobians(J_l=J_l, J_d=J_d)


def cable_rates(geom: RobotGeometry, pose: PlatformPose, twist: np.ndarray):
    """Length rates (driven, counterbalance) for a platform twist
    [linear velocity; angular velocity]."""
    twist = np.asarray(twist, float)
    if twist.shape != (6,):
        raise ValueError("twist must be a 6-vector [v; omega]")
    jac = jacobians(geom, pose)
    rates = -jac.J @ twist
    return rates[: geom.n], rates[geom.n:]
