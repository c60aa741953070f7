"""Hot numeric kernel: fixed-step marching of the rotational branch.

The candidate non-constant-curvature family of rotation surfaces is driven
by the angle form of the profile equations,

    r'     = F cos(sigma),              F = 1 + kappa r^2 / 4
    z'     = sin(sigma) sqrt(1 + tau^2 r^2)
    sigma' = sin(sigma) (kappa r / 4 - 1 / (3 r)),

solved by classical RK4 at a fixed step.  Neither r' nor sigma' involves z
or tau, so `branch_march` marches (r, sigma) alone, in plain Python on
floats, and z is a quadrature along the recorded rows: `branch_heights`
redoes each step's RK4 stages on arrays and sums the z increments in row
order.  That gives the bits of a scalar loop marching z too, as long as
numpy's float64 sin and cos round as `math`'s do (the tests compare every
column with such a loop bit for bit).  `run_branch_kernel` returns the s, r
and sigma columns of the rows, sized to the rows marched; a trajectory
computes z from them when z is first read.  The trajectory and the reduced
formulas evaluated along its rows live in `bcvgeo.rotation`.
"""

from __future__ import annotations

import math

import numpy as np

STATUS_SMAX = 0
STATUS_MAX_STEPS = 1
STATUS_NEAR_AXIS = 2
STATUS_DOMAIN_EXIT = 3

STATUS_NAMES = {
    STATUS_SMAX: "smax_reached",
    STATUS_MAX_STEPS: "max_steps_reached",
    STATUS_NEAR_AXIS: "near_axis",
    STATUS_DOMAIN_EXIT: "domain_exit",
}


def branch_march(kappa, r0, sigma0, s0, step, max_rows, s_max, r_stop, f_stop):
    """March (r, sigma) of the branch system, recording the state of each row.

    Returns (rows, status_code), rows a flat list r_0, sigma_0, r_1, sigma_1,
    ...; row i sits at arclength s0 + i step, accumulated step by step.
    Stops on s >= s_max, row budget, r <= r_stop (axis), or F <= f_stop
    (domain boundary); stage values are guarded the same way so a step can
    never be committed through the singular set.  Takes Python floats
    (numpy scalars slow every operation of the loop).
    """
    s, r, sig = s0, r0, sigma0
    rows = []
    status = STATUS_MAX_STEPS
    sin, cos = math.sin, math.cos
    kq = 0.25 * kappa           # the products below associate left, so
    half = 0.5 * step           # hoisting these factors changes no bit
    s_last = s_max - half
    for _ in range(max_rows):
        rows.extend((r, sig))
        if s >= s_last:
            status = STATUS_SMAX
            break

        # RK4 step with per-stage guards
        k1r = (1.0 + kq * r * r) * cos(sig)
        k1g = sin(sig) * (kq * r - 1.0 / (3.0 * r))

        r2_ = r + half * k1r
        g2_ = sig + half * k1g
        F2 = 1.0 + kq * r2_ * r2_
        if r2_ <= r_stop or F2 <= f_stop:
            status = STATUS_NEAR_AXIS if r2_ <= r_stop else STATUS_DOMAIN_EXIT
            break
        k2r = F2 * cos(g2_)
        k2g = sin(g2_) * (kq * r2_ - 1.0 / (3.0 * r2_))

        r3_ = r + half * k2r
        g3_ = sig + half * k2g
        F3 = 1.0 + kq * r3_ * r3_
        if r3_ <= r_stop or F3 <= f_stop:
            status = STATUS_NEAR_AXIS if r3_ <= r_stop else STATUS_DOMAIN_EXIT
            break
        k3r = F3 * cos(g3_)
        k3g = sin(g3_) * (kq * r3_ - 1.0 / (3.0 * r3_))

        r4_ = r + step * k3r
        g4_ = sig + step * k3g
        F4 = 1.0 + kq * r4_ * r4_
        if r4_ <= r_stop or F4 <= f_stop:
            status = STATUS_NEAR_AXIS if r4_ <= r_stop else STATUS_DOMAIN_EXIT
            break
        k4r = F4 * cos(g4_)
        k4g = sin(g4_) * (kq * r4_ - 1.0 / (3.0 * r4_))

        r_new = r + step * (k1r + 2.0 * k2r + 2.0 * k3r + k4r) / 6.0
        if r_new <= r_stop or 1.0 + kq * r_new * r_new <= f_stop:
            status = STATUS_NEAR_AXIS if r_new <= r_stop else STATUS_DOMAIN_EXIT
            break
        sig = sig + step * (k1g + 2.0 * k2g + 2.0 * k3g + k4g) / 6.0
        r = r_new
        s = s + step
    return rows, status


def branch_heights(kappa, tau, z0, step, r, sigma):
    """The z column of marched rows (r, sigma), starting from z0.

    Redoes the RK4 stages of each committed step on arrays, with the
    march's operations in the march's order, and adds the z increments in
    row order (`np.add.accumulate` does not reorder), so each z has the
    bits a scalar loop marching z alongside (r, sigma) would give.
    """
    kq = 0.25 * kappa
    t2 = tau * tau
    half = 0.5 * step

    def rates(r, sig):
        """(r', z', sigma') at stage values, written as the march writes them."""
        sin_g = np.sin(sig)
        return ((1.0 + kq * r * r) * np.cos(sig), sin_g * np.sqrt(1.0 + t2 * r * r),
                sin_g * (kq * r - 1.0 / (3.0 * r)))

    r, sig = r[:-1], sigma[:-1]
    k1r, k1z, k1g = rates(r, sig)
    k2r, k2z, k2g = rates(r + half * k1r, sig + half * k1g)
    k3r, k3z, k3g = rates(r + half * k2r, sig + half * k2g)
    k4z = rates(r + step * k3r, sig + step * k3g)[1]
    dz = np.empty(len(sigma))
    dz[0] = z0
    dz[1:] = step * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0
    return np.add.accumulate(dz)


def run_branch_kernel(kappa, r0, sigma0, s0, step, max_rows, s_max, r_stop, f_stop):
    """March the branch from (s0, r0, sigma0) for at most max_rows rows.

    `branch_march` marches (r, sigma), and the s column accumulates the step
    from s0 as the march does; z is left to `branch_heights`.  Returns
    (rows, status_code, s, r, sigma), each column a 1-D array of `rows`
    floats.  Every argument is coerced to a Python float (max_rows to int)
    before the march.
    """
    s0, step = float(s0), float(step)
    rows, status = branch_march(float(kappa), float(r0), float(sigma0), s0, step, int(max_rows),
                                float(s_max), float(r_stop), float(f_stop))
    r, sigma = np.array(rows).reshape(-1, 2).T
    ds = np.full(len(r), step)
    ds[0] = s0
    return len(r), status, np.add.accumulate(ds), r, sigma
