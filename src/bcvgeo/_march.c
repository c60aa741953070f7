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
 * columns of `bcvgeo.rotation` read them in place of a numpy pass.  Stages
 * 2, 3 and 4 are one loop over their offsets (h/2, h/2, h) and weights
 * (2, 2, 1), as in `branch_march`: each is guarded, then adds each of its
 * three rates, weighted, to a running sum as it makes it, so the sums are
 * k1 + 2 k2 + 2 k3 + k4 added from the left.  On
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
    const double offset[3] = {half, half, step};   /* stages 2, 3 and 4 */
    const double weight[3] = {2.0, 2.0, 1.0};
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

        /* RK4 step: stage 1 from the row's sin and cos, then stages 2 to 4,
         * each guarded before its rates are made; the running sums are
         * k1 + 2 k2 + 2 k3 + k4 from the left */
        double kr = (1.0 + kq * r * r) * cos1;
        double kz = sin1 * sqrt(1.0 + t2 * r * r);
        double kg = sin1 * (kq * r - 1.0 / (3.0 * r));
        double sum_r = kr, sum_z = kz, sum_g = kg;
        for (int i = 0; i < 3; i++) {
            double rs = r + offset[i] * kr;
            double gs = sig + offset[i] * kg;
            double F = 1.0 + kq * rs * rs;
            if (rs <= r_stop || F <= f_stop) {
                status = rs <= r_stop ? STATUS_NEAR_AXIS : STATUS_DOMAIN_EXIT;
                break;
            }
            if (isinf(gs)) {
                status = MATH_DOMAIN;
                break;
            }
            double sn = sin(gs);
            kr = F * cos(gs);
            kz = sn * sqrt(1.0 + t2 * rs * rs);
            kg = sn * (kq * rs - 1.0 / (3.0 * rs));
            sum_r += weight[i] * kr;
            sum_z += weight[i] * kz;
            sum_g += weight[i] * kg;
        }
        if (status != STATUS_MAX_STEPS)
            break;

        double r_new = r + step * sum_r / 6.0;
        if (r_new <= r_stop || 1.0 + kq * r_new * r_new <= f_stop) {
            status = r_new <= r_stop ? STATUS_NEAR_AXIS : STATUS_DOMAIN_EXIT;
            break;
        }
        z = z + step * sum_z / 6.0;
        sig = sig + step * sum_g / 6.0;
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
