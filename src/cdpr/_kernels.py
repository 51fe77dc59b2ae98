"""Grid-scan kernel: per-cell feasibility classification over a planar grid.

One vectorized numpy kernel classifies the whole grid at once. Every cell has
four clamped-cable candidates, and each candidate is a 3 x 3 solve done in
closed form by the adjugate (`_solve3`) as element-wise arithmetic over the
grid, with no per-cell factorization. The per-pose statics route calls the
same `_solve3` with scalars, so there is one copy of the candidate solve.

The tolerance constants shared by the kinematics, statics and grid routes are
defined here; `kinematics` and `statics` re-export them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["backend_name", "numba_available", "scan_cells"]

EPS_LEN = 1e-9        # m, degenerate-cable threshold, far below any physical length
TOL_TENSION = 1e-6    # N, slack on tension bound checks
RCOND_MIN = 1e-12     # reciprocal condition below which a candidate is invalid


def numba_available() -> bool:
    """Always False: the kernel is numpy only. Kept for callers that record
    the run environment."""
    return False


def backend_name() -> str:
    return "numpy"


def _solve3(B, rhs):
    """Solve the 3 x 3 system B @ x = rhs by the adjugate.

    `B[r][c]` and `rhs[r]` are floats or equally shaped arrays; with arrays
    every element is an independent system. Returns (x, rcond, valid): x as
    three components, the exact 1-norm reciprocal condition number (0.0 where
    det == 0), and valid = det != 0 and rcond >= RCOND_MIN. x is meaningless
    where valid is False.
    """
    (a, b, c), (d, e, f), (g, h, i) = B
    c11 = e * i - f * h
    c12 = c * h - b * i
    c13 = b * f - c * e
    c21 = f * g - d * i
    c22 = a * i - c * g
    c23 = c * d - a * f
    c31 = d * h - e * g
    c32 = b * g - a * h
    c33 = a * e - b * d
    det = a * c11 + b * c21 + c * c31
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_det = np.divide(1.0, det)
        # column 1-norms of B and of its adjugate
        norm_b = np.maximum(np.maximum(abs(a) + abs(d) + abs(g), abs(b) + abs(e) + abs(h)),
                            abs(c) + abs(f) + abs(i))
        norm_adj = np.maximum(np.maximum(abs(c11) + abs(c21) + abs(c31),
                                         abs(c12) + abs(c22) + abs(c32)),
                              abs(c13) + abs(c23) + abs(c33))
        rcond = np.where(det == 0, 0.0, 1.0 / (norm_b * (norm_adj * abs(inv_det))))
        r0, r1, r2 = rhs
        x = ((c11 * r0 + c12 * r1 + c13 * r2) * inv_det,
             (c21 * r0 + c22 * r1 + c23 * r2) * inv_det,
             (c31 * r0 + c32 * r1 + c33 * r2) * inv_det)
    return x, rcond, rcond >= RCOND_MIN


def scan_cells(xs, ys, anchors, attachments, cb_fixed, cb_platform,
               tmin, tmax, t5, weight, elastic_on=False,
               ea=None, l0_min=None, l0_max=None):
    """Classify every (x, y) cell of the grid.

    Returns (feasible, gamma, tensions): boolean (nx, ny), float (nx, ny)
    with NaN at infeasible cells, and float (nx, ny, 4) candidate-optimal
    driven tensions (NaN rows at infeasible cells).

    `anchors`/`attachments` are (4, 2) planar points; `cb_fixed`/`cb_platform`
    are (m, 2). `weight` is platform_mass * g. Bounds on t5 itself are the
    caller's concern.
    """
    xs = np.ascontiguousarray(xs, float)
    ys = np.ascontiguousarray(ys, float)
    anchors = np.ascontiguousarray(anchors, float)
    attachments = np.ascontiguousarray(attachments, float)
    cb_fixed = np.ascontiguousarray(cb_fixed, float).reshape(-1, 2)
    cb_platform = np.ascontiguousarray(cb_platform, float).reshape(-1, 2)
    tmin = np.ascontiguousarray(tmin, float)
    tmax = np.ascontiguousarray(tmax, float)
    ncb = cb_fixed.shape[0]
    if ea is None:
        ea = np.ones(4 + ncb)
        l0_min = np.zeros(4 + ncb)
        l0_max = np.full(4 + ncb, np.inf)
    ea = np.ascontiguousarray(ea, float)
    l0_min = np.ascontiguousarray(l0_min, float)
    l0_max = np.ascontiguousarray(l0_max, float)
    return _scan_numpy(xs, ys, anchors, attachments, cb_fixed, cb_platform,
                       tmin, tmax, float(t5), float(weight), bool(elastic_on),
                       ea, l0_min, l0_max)


def _scan_numpy(xs, ys, anchors, attachments, cb_fixed, cb_platform,
                tmin, tmax, t5, weight, elastic_on, ea, l0_min, l0_max):
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    shape = X.shape
    A = [[None] * 4 for _ in range(3)]   # A[row][cable], rows (Fx, Fy, Mz)
    l_len = []
    degenerate = np.zeros(shape, bool)
    for i in range(4):
        lx = X + attachments[i, 0] - anchors[i, 0]
        ly = Y + attachments[i, 1] - anchors[i, 1]
        L = np.hypot(lx, ly)
        degenerate |= L < EPS_LEN
        L = np.where(L < EPS_LEN, 1.0, L)
        ux, uy = -lx / L, -ly / L
        A[0][i] = ux
        A[1][i] = uy
        A[2][i] = attachments[i, 0] * uy - attachments[i, 1] * ux
        l_len.append(L)

    u = [np.zeros(shape), np.full(shape, weight), np.zeros(shape)]
    cb_elastic_ok = np.ones(shape, bool)
    for j in range(cb_fixed.shape[0]):
        dx = X + cb_platform[j, 0] - cb_fixed[j, 0]
        dy = Y + cb_platform[j, 1] - cb_fixed[j, 1]
        D = np.hypot(dx, dy)
        degenerate |= D < EPS_LEN
        D = np.where(D < EPS_LEN, 1.0, D)
        vx, vy = -dx / D, -dy / D
        u[0] -= t5 * vx
        u[1] -= t5 * vy
        u[2] -= t5 * (cb_platform[j, 0] * vy - cb_platform[j, 1] * vx)
        if elastic_on:
            l0 = D * ea[4 + j] / (t5 + ea[4 + j])
            cb_elastic_ok &= (l0 >= l0_min[4 + j]) & (l0 <= l0_max[4 + j])

    feasible = np.zeros(shape, bool)
    gamma = np.full(shape, np.nan)
    tens = np.full(shape + (4,), np.nan)
    for k in range(4):
        free = [i for i in range(4) if i != k]
        rhs = [u[r] - A[r][k] * tmax[k] for r in range(3)]
        sol, _, valid = _solve3([[row[i] for i in free] for row in A], rhs)
        T = [tmax[k]] * 4
        for col, i in enumerate(free):
            T[i] = sol[col]
        good = valid & ~degenerate
        for i in range(4):
            good &= (T[i] >= tmin[i] - TOL_TENSION) & (T[i] <= tmax[i] + TOL_TENSION)
        if elastic_on:
            for i in range(4):
                l0 = l_len[i] * ea[i] / (T[i] + ea[i])
                good &= (l0 >= l0_min[i]) & (l0 <= l0_max[i])
            good &= cb_elastic_ok
        norm = np.sqrt(T[0] * T[0] + T[1] * T[1] + T[2] * T[2] + T[3] * T[3])
        # NaN gamma compares false, so freshly feasible cells need ~feasible
        take = good & (~feasible | (norm > gamma + TOL_TENSION))
        np.copyto(gamma, norm, where=take)
        for i in range(4):
            np.copyto(tens[..., i], T[i], where=take)
        feasible |= good
    return feasible, gamma, tens
