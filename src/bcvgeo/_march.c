/* Compiled RK4 march of the rotational branch: `branch_march` of
 * bcvgeo/_kernels.py, written line for line in its operation order so that
 * every row has the same bits.  Build without FMA contraction and without
 * fast-math (see the `_kernels` module docstring); `_kernels` does so.
 *
 * The arguments follow `branch_march`'s order, with the starting state
 * (s, r, z, sigma), the state of row 0, in state.  The march records at
 * most max_rows rows (s_i, r_i, z_i, sigma_i, sin sigma_i, cos sigma_i),
 * six doubles each, into rows, stores their number in *n_rows, and returns
 * the status code.  Each row's sin and cos are taken once, at the top of
 * the row before it is stored, and RK4 stage 1 reuses them; the residual
 * columns of `bcvgeo.rotation` read them in place of a numpy pass.  On
 * return state holds the state after the last recorded row: the next
 * row's when the row budget ran out (so a march resumed from it continues
 * bit for bit), the last row's otherwise.
 *
 * math.sin and math.cos raise ValueError on an infinite argument, where
 * libm's sin and cos return NaN, so the march returns MATH_DOMAIN where
 * the Python march would call one of them on an infinite argument, before
 * the row is stored.  The Python march's other error, a division by r = 0,
 * cannot arise from the callers, which pass r0 > 0 and r_stop > 0; its
 * math.sqrt never meets a negative argument, 1 + tau^2 r^2.
 */

#include <math.h>

enum {
    STATUS_SMAX = 0,
    STATUS_MAX_STEPS = 1,
    STATUS_NEAR_AXIS = 2,
    STATUS_DOMAIN_EXIT = 3,
    MATH_DOMAIN = -1
};

int branch_march(double kappa, double tau, double *state, double step, long long max_rows,
                 double s_max, double r_stop, double f_stop, double *rows,
                 long long *n_rows)
{
    double s = state[0], r = state[1], z = state[2], sig = state[3];
    int status = STATUS_MAX_STEPS;
    const double kq = 0.25 * kappa;
    const double half = 0.5 * step;
    const double t2 = tau * tau;
    const double s_last = s_max - half;
    long long n = 0;
    while (n < max_rows) {
        if (isinf(sig)) {
            status = MATH_DOMAIN;
            break;
        }
        double sin1 = sin(sig);
        double cos1 = cos(sig);
        double *row = rows + 6 * n;
        row[0] = s;
        row[1] = r;
        row[2] = z;
        row[3] = sig;
        row[4] = sin1;
        row[5] = cos1;
        n++;
        if (s >= s_last) {
            status = STATUS_SMAX;
            break;
        }

        /* RK4 step with per-stage guards */
        double k1r = (1.0 + kq * r * r) * cos1;
        double k1z = sin1 * sqrt(1.0 + t2 * r * r);
        double k1g = sin1 * (kq * r - 1.0 / (3.0 * r));

        double r2_ = r + half * k1r;
        double g2_ = sig + half * k1g;
        double F2 = 1.0 + kq * r2_ * r2_;
        if (r2_ <= r_stop || F2 <= f_stop) {
            status = r2_ <= r_stop ? STATUS_NEAR_AXIS : STATUS_DOMAIN_EXIT;
            break;
        }
        if (isinf(g2_)) {
            status = MATH_DOMAIN;
            break;
        }
        double sin2 = sin(g2_);
        double k2r = F2 * cos(g2_);
        double k2z = sin2 * sqrt(1.0 + t2 * r2_ * r2_);
        double k2g = sin2 * (kq * r2_ - 1.0 / (3.0 * r2_));

        double r3_ = r + half * k2r;
        double g3_ = sig + half * k2g;
        double F3 = 1.0 + kq * r3_ * r3_;
        if (r3_ <= r_stop || F3 <= f_stop) {
            status = r3_ <= r_stop ? STATUS_NEAR_AXIS : STATUS_DOMAIN_EXIT;
            break;
        }
        if (isinf(g3_)) {
            status = MATH_DOMAIN;
            break;
        }
        double sin3 = sin(g3_);
        double k3r = F3 * cos(g3_);
        double k3z = sin3 * sqrt(1.0 + t2 * r3_ * r3_);
        double k3g = sin3 * (kq * r3_ - 1.0 / (3.0 * r3_));

        double r4_ = r + step * k3r;
        double g4_ = sig + step * k3g;
        double F4 = 1.0 + kq * r4_ * r4_;
        if (r4_ <= r_stop || F4 <= f_stop) {
            status = r4_ <= r_stop ? STATUS_NEAR_AXIS : STATUS_DOMAIN_EXIT;
            break;
        }
        if (isinf(g4_)) {
            status = MATH_DOMAIN;
            break;
        }
        double sin4 = sin(g4_);
        double k4r = F4 * cos(g4_);
        double k4z = sin4 * sqrt(1.0 + t2 * r4_ * r4_);
        double k4g = sin4 * (kq * r4_ - 1.0 / (3.0 * r4_));

        double r_new = r + step * (k1r + 2.0 * k2r + 2.0 * k3r + k4r) / 6.0;
        if (r_new <= r_stop || 1.0 + kq * r_new * r_new <= f_stop) {
            status = r_new <= r_stop ? STATUS_NEAR_AXIS : STATUS_DOMAIN_EXIT;
            break;
        }
        z = z + step * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0;
        sig = sig + step * (k1g + 2.0 * k2g + 2.0 * k3g + k4g) / 6.0;
        r = r_new;
        s = s + step;
    }
    state[0] = s;
    state[1] = r;
    state[2] = z;
    state[3] = sig;
    *n_rows = n;
    return status;
}
