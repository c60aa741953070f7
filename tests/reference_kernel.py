"""Reference for the branch march: the per-row loop that computed the
state and the five diagnostic columns together, kept as it was so that the
march in `bcvgeo._kernels` and the reduced helpers of `bcvgeo.rotation` can
be checked against it row by row."""

import math

from bcvgeo._kernels import (
    STATUS_DOMAIN_EXIT,
    STATUS_MAX_STEPS,
    STATUS_NEAR_AXIS,
    STATUS_SMAX,
)

# the row layout of `out`
COLUMNS = ("s", "r", "z", "sigma", "f", "f_prime", "R1", "R2", "obstruction")


def branch_kernel(kappa, tau, r0, z0, sigma0, s0, step, max_rows, s_max,
                  r_stop, f_stop, out):
    """March the branch system, filling `out` rows per COLUMNS.

    Returns (rows_written, status_code).  Stops on s >= s_max, row budget,
    r <= r_stop (axis), or F <= f_stop (domain boundary); stage values are
    guarded the same way so a step can never be committed through the
    singular set.
    """
    r = r0
    z = z0
    sig = sigma0
    s = s0
    n = 0
    status = STATUS_MAX_STEPS
    t2 = tau * tau
    while n < max_rows:
        F = 1.0 + 0.25 * kappa * r * r
        q2 = 1.0 + t2 * r * r
        q = math.sqrt(q2)
        sin_s = math.sin(sig)
        cos_s = math.cos(sig)
        f = 2.0 * sin_s / (3.0 * r)
        fp = -8.0 * sin_s * cos_s / (9.0 * r * r)
        b = sin_s / q
        d = tau * r / q
        cos_a = cos_s / q
        sin2_a = 1.0 - cos_a * cos_a
        sig_p = sin_s * (0.25 * kappa * r - 1.0 / (3.0 * r))
        r_p = F * cos_s
        cos_a_p = -sin_s * sig_p / q - t2 * r * r_p * cos_s / (q2 * q)
        curv = 4.0 * t2 - kappa
        R1 = fp * (b * f - 2.0 * tau * d - 2.0 * cos_a_p) - 2.0 * f * curv * cos_a * sin2_a
        R2 = fp * (3.0 * d * f - 2.0 * tau * b)
        obs = -curv * f * (math.cos(2.0 * sig) - 1.0 - 2.0 * t2 * r * r) * cos_s
        out[n, 0] = s
        out[n, 1] = r
        out[n, 2] = z
        out[n, 3] = sig
        out[n, 4] = f
        out[n, 5] = fp
        out[n, 6] = R1
        out[n, 7] = R2
        out[n, 8] = obs
        n += 1
        if s >= s_max - 0.5 * step:
            status = STATUS_SMAX
            break

        # RK4 step with per-stage guards
        k1r = F * cos_s
        k1z = sin_s * q
        k1g = sig_p

        r2_ = r + 0.5 * step * k1r
        g2_ = sig + 0.5 * step * k1g
        if r2_ <= r_stop:
            status = STATUS_NEAR_AXIS
            break
        F2 = 1.0 + 0.25 * kappa * r2_ * r2_
        if F2 <= f_stop:
            status = STATUS_DOMAIN_EXIT
            break
        k2r = F2 * math.cos(g2_)
        k2z = math.sin(g2_) * math.sqrt(1.0 + t2 * r2_ * r2_)
        k2g = math.sin(g2_) * (0.25 * kappa * r2_ - 1.0 / (3.0 * r2_))

        r3_ = r + 0.5 * step * k2r
        g3_ = sig + 0.5 * step * k2g
        if r3_ <= r_stop:
            status = STATUS_NEAR_AXIS
            break
        F3 = 1.0 + 0.25 * kappa * r3_ * r3_
        if F3 <= f_stop:
            status = STATUS_DOMAIN_EXIT
            break
        k3r = F3 * math.cos(g3_)
        k3z = math.sin(g3_) * math.sqrt(1.0 + t2 * r3_ * r3_)
        k3g = math.sin(g3_) * (0.25 * kappa * r3_ - 1.0 / (3.0 * r3_))

        r4_ = r + step * k3r
        g4_ = sig + step * k3g
        if r4_ <= r_stop:
            status = STATUS_NEAR_AXIS
            break
        F4 = 1.0 + 0.25 * kappa * r4_ * r4_
        if F4 <= f_stop:
            status = STATUS_DOMAIN_EXIT
            break
        k4r = F4 * math.cos(g4_)
        k4z = math.sin(g4_) * math.sqrt(1.0 + t2 * r4_ * r4_)
        k4g = math.sin(g4_) * (0.25 * kappa * r4_ - 1.0 / (3.0 * r4_))

        r_new = r + step * (k1r + 2.0 * k2r + 2.0 * k3r + k4r) / 6.0
        z_new = z + step * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0
        g_new = sig + step * (k1g + 2.0 * k2g + 2.0 * k3g + k4g) / 6.0
        if r_new <= r_stop:
            status = STATUS_NEAR_AXIS
            break
        F_new = 1.0 + 0.25 * kappa * r_new * r_new
        if F_new <= f_stop:
            status = STATUS_DOMAIN_EXIT
            break
        r = r_new
        z = z_new
        sig = g_new
        s = s + step
    return n, status
