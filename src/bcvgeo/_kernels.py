"""Hot numeric kernel: fixed-step marching of the rotational branch.

The candidate non-constant-curvature family of rotation surfaces is driven
by the angle form of the profile equations,

    r'     = F cos(sigma),              F = 1 + kappa r^2 / 4
    z'     = sin(sigma) sqrt(1 + tau^2 r^2)
    sigma' = sin(sigma) (kappa r / 4 - 1 / (3 r)),

marched by classical RK4 in plain Python on floats, one (s, r, z, sigma)
row per step.  The reduced formulas evaluated along the rows live in
`bcvgeo.rotation`.
"""

from __future__ import annotations

import math

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


def branch_march(kappa, tau, r0, z0, sigma0, s0, step, max_rows, s_max,
                 r_stop, f_stop):
    """March the branch system, recording the state of each row.

    Returns ((s, r, z, sigma), status_code), the columns as lists.  Stops on
    s >= s_max, row budget, r <= r_stop (axis), or F <= f_stop (domain
    boundary); stage values are guarded the same way so a step can never be
    committed through the singular set.  Takes Python floats (numpy scalars
    slow every operation of the loop).
    """
    s, r, z, sig = s0, r0, z0, sigma0
    rows_s, rows_r, rows_z, rows_g = [], [], [], []
    status = STATUS_MAX_STEPS
    t2 = tau * tau
    kq = 0.25 * kappa           # the products below associate left, so
    half = 0.5 * step           # hoisting these factors changes no bit
    s_last = s_max - half
    while len(rows_s) < max_rows:
        rows_s.append(s)
        rows_r.append(r)
        rows_z.append(z)
        rows_g.append(sig)
        if s >= s_last:
            status = STATUS_SMAX
            break

        # RK4 step with per-stage guards
        sin_s = math.sin(sig)
        k1r = (1.0 + kq * r * r) * math.cos(sig)
        k1z = sin_s * math.sqrt(1.0 + t2 * r * r)
        k1g = sin_s * (kq * r - 1.0 / (3.0 * r))

        r2_ = r + half * k1r
        g2_ = sig + half * k1g
        F2 = 1.0 + kq * r2_ * r2_
        if r2_ <= r_stop or F2 <= f_stop:
            status = STATUS_NEAR_AXIS if r2_ <= r_stop else STATUS_DOMAIN_EXIT
            break
        sin_g = math.sin(g2_)
        k2r = F2 * math.cos(g2_)
        k2z = sin_g * math.sqrt(1.0 + t2 * r2_ * r2_)
        k2g = sin_g * (kq * r2_ - 1.0 / (3.0 * r2_))

        r3_ = r + half * k2r
        g3_ = sig + half * k2g
        F3 = 1.0 + kq * r3_ * r3_
        if r3_ <= r_stop or F3 <= f_stop:
            status = STATUS_NEAR_AXIS if r3_ <= r_stop else STATUS_DOMAIN_EXIT
            break
        sin_g = math.sin(g3_)
        k3r = F3 * math.cos(g3_)
        k3z = sin_g * math.sqrt(1.0 + t2 * r3_ * r3_)
        k3g = sin_g * (kq * r3_ - 1.0 / (3.0 * r3_))

        r4_ = r + step * k3r
        g4_ = sig + step * k3g
        F4 = 1.0 + kq * r4_ * r4_
        if r4_ <= r_stop or F4 <= f_stop:
            status = STATUS_NEAR_AXIS if r4_ <= r_stop else STATUS_DOMAIN_EXIT
            break
        sin_g = math.sin(g4_)
        k4r = F4 * math.cos(g4_)
        k4z = sin_g * math.sqrt(1.0 + t2 * r4_ * r4_)
        k4g = sin_g * (kq * r4_ - 1.0 / (3.0 * r4_))

        r_new = r + step * (k1r + 2.0 * k2r + 2.0 * k3r + k4r) / 6.0
        if r_new <= r_stop or 1.0 + kq * r_new * r_new <= f_stop:
            status = STATUS_NEAR_AXIS if r_new <= r_stop else STATUS_DOMAIN_EXIT
            break
        z = z + step * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0
        sig = sig + step * (k1g + 2.0 * k2g + 2.0 * k3g + k4g) / 6.0
        r = r_new
        s = s + step
    return (rows_s, rows_r, rows_z, rows_g), status


def run_branch_kernel(kappa, tau, r0, z0, sigma0, s0, step, max_rows, s_max,
                      r_stop, f_stop, out):
    """March the branch from (s0, r0, z0, sigma0) and write the s, r, z and
    sigma of each row into the first four columns of `out` (at least
    max_rows rows).

    Returns (rows_written, status_code).  Every argument is coerced to a
    Python float (max_rows to int) before the march.
    """
    cols, status = branch_march(
        float(kappa), float(tau), float(r0), float(z0), float(sigma0), float(s0),
        float(step), int(max_rows), float(s_max), float(r_stop), float(f_stop))
    n = len(cols[0])
    for j, col in enumerate(cols):
        out[:n, j] = col
    return n, status
