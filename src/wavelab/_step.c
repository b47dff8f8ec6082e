/* One leapfrog step of the two-component cubic wave system, in one pass over
 * the held cells (see the module docstring of solver.py for the scheme):
 * radial_step and cartesian_step, the library's only functions.  They are
 * also the only stencil: the run's start level is one free pass of them, with
 * a zero middle level and no flush.
 *
 * Every value is the result of the same IEEE operations, in the same order,
 * as the expression its comment gives, which is how numpy evaluates it; the
 * library is built with -ffp-contract=off, so that no multiply and add are
 * fused into one rounding, and its results are bit-identical to numpy's.
 *
 * Every buffer is a C-contiguous float64 array of both components, (2, cells)
 * in radial mode and (2, n, n) in Cartesian mode: component 2 starts one
 * component (`second` values) after component 1.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>

/* the status bits of a step */
enum { GROW = 1, NONFINITE = 2 };

/* A*top - mid + cp*top[i+1] + cm*top[i-1] at cell i of a window of m cells,
   its first cell without its left neighbour and its last without its right */
static inline double radial_lin(const double *top, const double *mid, const double *cp,
                                const double *cm, int64_t i, int64_t m, double A)
{
    double x = A * top[i] - mid[i];
    if (i + 1 < m)
        x += cp[i] * top[i + 1];
    if (i > 0)
        x += cm[i] * top[i - 1];
    return x;
}

/* (A*top - mid) + k*(((x+ + x-) + y+) + y-) at the interior node f of an n x n
   grid, x along the first axis */
static inline double cartesian_lin(const double *top, const double *mid, int64_t f,
                                   int64_t n, double A, double k)
{
    return (A * top[f] - mid[f])
        + k * (((top[f + n] + top[f - n]) + top[f + 1]) + top[f - 1]);
}

/* the cubic term's predictor and two correctors, from the linear parts *a and
   *b of both components: new_j = lin_j - ((c w_0) w_1) w_k, k the other
   component, with w = top - mid and c = 1/dt, then twice w = new - mid and
   c = 1/(8 dt) */
static inline void cubic(double *a, double *b, double top0, double top1, double mid0,
                         double mid1, double inv_dt, double inv_8dt)
{
    double w0 = top0 - mid0, w1 = top1 - mid1, c = inv_dt;
    double lin0 = *a, lin1 = *b;
    for (int pass = 0; pass < 3; pass++) {
        double P = (w0 * c) * w1;
        *a = lin0 - P * w1;
        *b = lin1 - P * w0;
        w0 = *a - mid0;
        w1 = *b - mid1;
        c = inv_8dt;
    }
}

/* write the new values a and b at f, d_t u = (new - mid) * (1/(2 dt)), and
   record f in bad when a value is the first non-finite one of its component */
static inline void store(double *new, double *dtu, const double *mid, int64_t f,
                         int64_t second, double a, double b, double inv_2dt, int64_t *bad)
{
    new[f] = a;
    new[second + f] = b;
    dtu[f] = (a - mid[f]) * inv_2dt;
    dtu[second + f] = (b - mid[second + f]) * inv_2dt;
    if (!isfinite(a) && bad[0] < 0)
        bad[0] = f;
    if (!isfinite(b) && bad[1] < 0)
        bad[1] = f;
}

/* one radial step of the global cells [lo, hi), the state's constants first,
   then whether the step is nonlinear and the levels new, mid and top: new
   from top and mid, zeroing the new values below DBL_MIN in the cells from
   flush on; bad receives the global index of each component's first
   non-finite value, or -1.  Returns NONFINITE when there is one, and GROW
   when a value of new or top is nonzero in the window's last two cells. */
int radial_step(double *dtu, const double *cp, const double *cm, int64_t cells, double A,
                double inv_dt, double inv_8dt, double inv_2dt, int64_t *bad, int nonlinear,
                double *new, const double *mid, const double *top, int64_t lo, int64_t hi,
                int64_t flush)
{
    int64_t m = hi - lo;
    dtu += lo, cp += lo, cm += lo, new += lo, top += lo, mid += lo;
    bad[0] = bad[1] = -1;
    for (int64_t i = 0; i < m; i++) {
        double a = radial_lin(top, mid, cp, cm, i, m, A);
        double b = radial_lin(top + cells, mid + cells, cp, cm, i, m, A);
        if (nonlinear)
            cubic(&a, &b, top[i], top[cells + i], mid[i], mid[cells + i], inv_dt, inv_8dt);
        if (lo + i >= flush) {
            if (fabs(a) < DBL_MIN)
                a = 0.0;
            if (fabs(b) < DBL_MIN)
                b = 0.0;
        }
        store(new, dtu, mid, i, cells, a, b, inv_2dt, bad);
    }
    int status = 0;
    for (int c = 0; c < 2; c++)
        if (bad[c] >= 0) {
            bad[c] += lo;
            status = NONFINITE;
        }
    for (int64_t i = m < 2 ? 0 : m - 2; i < m; i++)
        if (new[i] != 0.0 || new[cells + i] != 0.0 || top[i] != 0.0 || top[cells + i] != 0.0)
            status |= GROW;
    return status;
}

/* one Cartesian step, the state's constants first, then whether the step is
   nonlinear and the levels new, mid and top: new from top and mid at the
   interior nodes, the Dirichlet ring of new left as it is; d_t u and the
   finiteness record over every node, bad receiving the flat index of each
   component's first non-finite value, or -1.  Returns NONFINITE when there
   is one. */
int cartesian_step(double *dtu, int64_t n, double A, double k, double inv_dt,
                   double inv_8dt, double inv_2dt, int64_t *bad, int nonlinear,
                   double *new, const double *mid, const double *top)
{
    int64_t second = n * n;
    bad[0] = bad[1] = -1;
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0, f = i * n; j < n; j++, f++) {
            double a = new[f], b = new[second + f];
            if (i > 0 && i < n - 1 && j > 0 && j < n - 1) {
                a = cartesian_lin(top, mid, f, n, A, k);
                b = cartesian_lin(top + second, mid + second, f, n, A, k);
                if (nonlinear)
                    cubic(&a, &b, top[f], top[second + f], mid[f], mid[second + f],
                          inv_dt, inv_8dt);
            }
            store(new, dtu, mid, f, second, a, b, inv_2dt, bad);
        }
    return (bad[0] >= 0 || bad[1] >= 0) ? NONFINITE : 0;
}
