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
 * The cells whose neighbours are all held run in loops without a branch, one
 * per value of nonlinear, which the compiler vectorises (-O3 -march=native):
 * each SIMD lane does the same IEEE operations as the scalar code, so the
 * results do not depend on the vector width.  A radial window's interior is
 * split at its first flushed cell; only its first and last cell, and the
 * Dirichlet ring of a Cartesian grid, are done one at a time.  Finiteness is
 * one AND over the new values; only when it fails is each component scanned
 * for its first NaN or inf.
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

/* a state's constants, bound once per state: d_t u, the radial neighbour
   coefficient rows cp and cm (unused in Cartesian mode), bad, which receives
   the index of each component's first non-finite new value or -1, the cells
   of a component (radial) or the nodes per axis (Cartesian), the folded
   update's A, the Cartesian neighbour factor k, and the reciprocals 1/dt,
   1/(8 dt) and 1/(2 dt) */
struct state {
    double *dtu;
    const double *cp, *cm;
    int64_t *bad;
    int64_t cells;
    double A, k, inv_dt, inv_8dt, inv_2dt;
};

/* whether x is neither NaN nor infinite */
static int finite_value(double x)
{
    return fabs(x) <= DBL_MAX;
}

/* x, or 0.0 when its magnitude is below tiny: x itself when tiny is 0.0 */
static double flushed(double x, double tiny)
{
    return fabs(x) < tiny ? 0.0 : x;
}

/* the cubic term's predictor and two correctors, from the linear parts *a and
   *b of both components: new_j = lin_j - ((c w_0) w_1) w_k, k the other
   component, with w = top - mid and c = 1/dt, then twice w = new - mid and
   c = 1/(8 dt) */
static void cubic(double *a, double *b, double top0, double top1, double mid0, double mid1,
                  double inv_dt, double inv_8dt)
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

/* write the new values a and b at f and d_t u = (new - mid) * (1/(2 dt)) */
static void store(double *restrict new, double *restrict dtu, const double *restrict mid,
                  int64_t f, int64_t second, double a, double b, double inv_2dt)
{
    new[f] = a;
    new[second + f] = b;
    dtu[f] = (a - mid[f]) * inv_2dt;
    dtu[second + f] = (b - mid[second + f]) * inv_2dt;
}

/* bad[c] = base + the index of component c's first non-finite value among
   the m values of new, or -1 */
static void scan(const double *new, int64_t second, int64_t m, int64_t base, int64_t *bad)
{
    for (int c = 0; c < 2; c++) {
        bad[c] = -1;
        for (int64_t i = 0; i < m; i++)
            if (!finite_value(new[c * second + i])) {
                bad[c] = base + i;
                break;
            }
    }
}

/* A*top - mid + cp*top[i+1] + cm*top[i-1] at cell i of a window of m cells,
   its first cell without its left neighbour and its last without its right */
static double radial_lin(const double *top, const double *mid, const double *cp,
                         const double *cm, int64_t i, int64_t m, double A)
{
    double x = A * top[i] - mid[i];
    if (i + 1 < m)
        x += cp[i] * top[i + 1];
    if (i > 0)
        x += cm[i] * top[i - 1];
    return x;
}

/* cell i of a window of m cells, one at a time: its linear update by
   radial_lin, the cubic term when nonlinear and the flush from the cell
   first_flushed on; whether its values are finite (a flush keeps that, so it
   is tested before one) */
static int radial_cell(const struct state *s, double *new, double *dtu, const double *mid,
                       const double *top, const double *cp, const double *cm, int64_t i,
                       int64_t m, int64_t first_flushed, int nonlinear)
{
    int64_t second = s->cells;
    double tiny = i >= first_flushed ? DBL_MIN : 0.0;
    double a = radial_lin(top, mid, cp, cm, i, m, s->A);
    double b = radial_lin(top + second, mid + second, cp, cm, i, m, s->A);
    if (nonlinear)
        cubic(&a, &b, top[i], top[second + i], mid[i], mid[second + i], s->inv_dt,
              s->inv_8dt);
    int ok = finite_value(a) & finite_value(b);
    store(new, dtu, mid, i, second, flushed(a, tiny), flushed(b, tiny), s->inv_2dt);
    return ok;
}

/* the cells [i0, i1) of a window, each with both neighbours held, as
   radial_cell does them, in a loop without a branch for each value of
   nonlinear: ((A*top - mid) + cp*top[i+1]) + cm*top[i-1], the cubic term when
   nonlinear, the values below tiny zeroed (none when tiny is 0.0); whether
   they are all finite.  Never inlined: inlined, its restrict parameters no
   longer tell the compiler that the levels do not overlap, and it does not
   vectorise the loops. */
__attribute__((noinline))
static int radial_run(const struct state *s, double *restrict new, double *restrict dtu,
                      const double *restrict mid, const double *restrict top,
                      const double *restrict cp, const double *restrict cm, int64_t i0,
                      int64_t i1, double tiny, int nonlinear)
{
    const int64_t second = s->cells;
    const double A = s->A, inv_dt = s->inv_dt, inv_8dt = s->inv_8dt, inv_2dt = s->inv_2dt;
    int ok = 1;
    if (nonlinear)
        for (int64_t i = i0, j = second + i0; i < i1; i++, j++) {
            double a = ((A * top[i] - mid[i]) + cp[i] * top[i + 1]) + cm[i] * top[i - 1];
            double b = ((A * top[j] - mid[j]) + cp[i] * top[j + 1]) + cm[i] * top[j - 1];
            cubic(&a, &b, top[i], top[j], mid[i], mid[j], inv_dt, inv_8dt);
            ok &= finite_value(a) & finite_value(b);
            store(new, dtu, mid, i, second, flushed(a, tiny), flushed(b, tiny), inv_2dt);
        }
    else
        for (int64_t i = i0, j = second + i0; i < i1; i++, j++) {
            double a = ((A * top[i] - mid[i]) + cp[i] * top[i + 1]) + cm[i] * top[i - 1];
            double b = ((A * top[j] - mid[j]) + cp[i] * top[j + 1]) + cm[i] * top[j - 1];
            ok &= finite_value(a) & finite_value(b);
            store(new, dtu, mid, i, second, flushed(a, tiny), flushed(b, tiny), inv_2dt);
        }
    return ok;
}

/* one radial step of the global cells [lo, hi) with the state's constants s:
   the level new from top and mid, the cubic term when nonlinear, the new
   values below DBL_MIN zeroed in the cells from flush on, and d_t u; bad
   receives the global index of each component's first non-finite value, or
   -1.  Returns NONFINITE when there is one, and GROW when a value of new or
   top is nonzero in the window's last two cells. */
int radial_step(const struct state *s, int nonlinear, double *new, const double *mid,
                const double *top, int64_t lo, int64_t hi, int64_t flush)
{
    int64_t m = hi - lo, second = s->cells, first_flushed = flush - lo;
    double *dtu = s->dtu + lo;
    const double *cp = s->cp + lo, *cm = s->cm + lo;
    new += lo, mid += lo, top += lo;
    /* the interior [1, m - 1) split at its first flushed cell */
    int64_t cut = first_flushed < 1 ? 1 : first_flushed;
    cut = cut < m - 1 ? cut : m - 1;
    int ok = 1;
    if (m > 0)
        ok &= radial_cell(s, new, dtu, mid, top, cp, cm, 0, m, first_flushed, nonlinear);
    ok &= radial_run(s, new, dtu, mid, top, cp, cm, 1, cut, 0.0, nonlinear);
    ok &= radial_run(s, new, dtu, mid, top, cp, cm, cut, m - 1, DBL_MIN, nonlinear);
    if (m > 1)
        ok &= radial_cell(s, new, dtu, mid, top, cp, cm, m - 1, m, first_flushed, nonlinear);
    int status = 0;
    s->bad[0] = s->bad[1] = -1;
    if (!ok) {
        scan(new, second, m, lo, s->bad);
        status = NONFINITE;
    }
    for (int64_t i = m < 2 ? 0 : m - 2; i < m; i++)
        if (new[i] != 0.0 || new[second + i] != 0.0 || top[i] != 0.0 || top[second + i] != 0.0)
            status |= GROW;
    return status;
}

/* the nodes [f0, f1) of an n x n grid left as they are in new, with their
   d_t u; whether their values are all finite */
static int cartesian_keep(const struct state *s, double *new, const double *mid, int64_t f0,
                          int64_t f1)
{
    int64_t second = s->cells * s->cells;
    int ok = 1;
    for (int64_t f = f0; f < f1; f++) {
        double a = new[f], b = new[second + f];
        ok &= finite_value(a) & finite_value(b);
        store(new, s->dtu, mid, f, second, a, b, s->inv_2dt);
    }
    return ok;
}

/* the interior nodes [f0, f1) of one row of an n x n grid, x along the first
   axis, in a loop without a branch for each value of nonlinear:
   (A*top - mid) + k*(((x+ + x-) + y+) + y-), the cubic term when nonlinear;
   whether their new values are all finite.  Never inlined, as radial_run */
__attribute__((noinline))
static int cartesian_run(const struct state *s, double *restrict new, double *restrict dtu,
                         const double *restrict mid, const double *restrict top, int64_t f0,
                         int64_t f1, int nonlinear)
{
    const int64_t n = s->cells, second = n * n;
    const double A = s->A, k = s->k, inv_dt = s->inv_dt, inv_8dt = s->inv_8dt,
                 inv_2dt = s->inv_2dt;
    int ok = 1;
    if (nonlinear)
        for (int64_t f = f0, g = second + f0; f < f1; f++, g++) {
            double a = (A * top[f] - mid[f])
                + k * (((top[f + n] + top[f - n]) + top[f + 1]) + top[f - 1]);
            double b = (A * top[g] - mid[g])
                + k * (((top[g + n] + top[g - n]) + top[g + 1]) + top[g - 1]);
            cubic(&a, &b, top[f], top[g], mid[f], mid[g], inv_dt, inv_8dt);
            ok &= finite_value(a) & finite_value(b);
            store(new, dtu, mid, f, second, a, b, inv_2dt);
        }
    else
        for (int64_t f = f0, g = second + f0; f < f1; f++, g++) {
            double a = (A * top[f] - mid[f])
                + k * (((top[f + n] + top[f - n]) + top[f + 1]) + top[f - 1]);
            double b = (A * top[g] - mid[g])
                + k * (((top[g + n] + top[g - n]) + top[g + 1]) + top[g - 1]);
            ok &= finite_value(a) & finite_value(b);
            store(new, dtu, mid, f, second, a, b, inv_2dt);
        }
    return ok;
}

/* one Cartesian step with the state's constants s: the level new from top
   and mid at the interior nodes, row by row, the cubic term when nonlinear,
   the Dirichlet ring of new left as it is; d_t u and the finiteness record
   over every node, bad receiving the flat index of each component's first
   non-finite value, or -1.  Returns NONFINITE when there is one. */
int cartesian_step(const struct state *s, int nonlinear, double *new, const double *mid,
                   const double *top)
{
    int64_t n = s->cells, second = n * n;
    int ok = cartesian_keep(s, new, mid, 0, n)
             & cartesian_keep(s, new, mid, second - n, second);
    for (int64_t f = n; f < second - n; f += n) {
        ok &= cartesian_keep(s, new, mid, f, f + 1)
              & cartesian_keep(s, new, mid, f + n - 1, f + n);
        ok &= cartesian_run(s, new, s->dtu, mid, top, f + 1, f + n - 1, nonlinear);
    }
    s->bad[0] = s->bad[1] = -1;
    if (ok)
        return 0;
    scan(new, second, second, 0, s->bad);
    return NONFINITE;
}
