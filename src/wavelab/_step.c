/* One leapfrog step of the two-component cubic wave system, in one pass over
 * the held cells (see the module docstring of solver.py for the scheme):
 * radial_step and cartesian_step, the library's only functions.  They are
 * also the only stencil: the run's start level is one free pass of them, with
 * a zero middle level.
 *
 * Every value is the result of the same IEEE operations, in the same order,
 * as the expression its comment gives, which is how numpy evaluates it; the
 * library is built with -ffp-contract=off, so that no multiply and add are
 * fused into one rounding, and its results are bit-identical to numpy's.
 *
 * Each grid's update is written once, in radial_cell and cartesian_node.  The
 * cells whose neighbours are all held run it in loops without a branch, one
 * per value of nonlinear, which the compiler vectorises (-O3 -march=native):
 * each SIMD lane does the same IEEE operations as the scalar code, so the
 * results do not depend on the vector width.  A radial window's first and
 * last cell are the same update with the neighbour outside the window
 * skipped; a Cartesian step never writes its grid's Dirichlet ring.
 *
 * The one subnormal rule: a radial step writes 0.0 in place of every new
 * value below DBL_MIN, the smallest normal double; a Cartesian step flushes
 * nothing.  Finiteness is one AND over the new values, and a step returns
 * only whether it held: which value failed is found by the caller, in the
 * level the step wrote.
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
   coefficient rows cp and cm (unused in Cartesian mode), the cells of a
   component (radial) or the nodes per axis (Cartesian), the folded update's
   A, the Cartesian neighbour factor k, and the reciprocals 1/dt, 1/(8 dt) and
   1/(2 dt) */
struct state {
    double *dtu;
    const double *cp, *cm;
    int64_t cells;
    double A, k, inv_dt, inv_8dt, inv_2dt;
};

/* whether x is neither NaN nor infinite */
static int finite_value(double x)
{
    return fabs(x) <= DBL_MAX;
}

/* x, or 0.0 when its magnitude is below DBL_MIN */
static double flushed(double x)
{
    return fabs(x) < DBL_MIN ? 0.0 : x;
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

/* cell i of a radial window: the folded update
   ((A*top - mid) + cp*top[i+1]) + cm*top[i-1], a neighbour whose flag left
   or right is 0 skipped, not read; the cubic term when nonlinear; the new
   values below DBL_MIN zeroed, and their d_t u.
   Whether they are finite: a flush keeps that, so it is tested before one.
   The only place the radial update is written */
static int radial_cell(const struct state *s, double *restrict new, double *restrict dtu,
                       const double *restrict mid, const double *restrict top,
                       const double *restrict cp, const double *restrict cm, int64_t i,
                       int left, int right, int nonlinear)
{
    const int64_t second = s->cells, j = second + i;
    double a = s->A * top[i] - mid[i], b = s->A * top[j] - mid[j];
    if (right) {
        a += cp[i] * top[i + 1];
        b += cp[i] * top[j + 1];
    }
    if (left) {
        a += cm[i] * top[i - 1];
        b += cm[i] * top[j - 1];
    }
    if (nonlinear)
        cubic(&a, &b, top[i], top[j], mid[i], mid[j], s->inv_dt, s->inv_8dt);
    int ok = finite_value(a) & finite_value(b);
    store(new, dtu, mid, i, second, flushed(a), flushed(b), s->inv_2dt);
    return ok;
}

/* the cells [i0, i1) of a window, each with both neighbours held, by
   radial_cell in a loop without a branch for each value of nonlinear;
   whether their new values are all finite.  Never inlined: inlined, its
   restrict parameters no longer tell the compiler that the levels do not
   overlap, and it does not vectorise the loops. */
__attribute__((noinline))
static int radial_run(const struct state *s, double *restrict new, double *restrict dtu,
                      const double *restrict mid, const double *restrict top,
                      const double *restrict cp, const double *restrict cm, int64_t i0,
                      int64_t i1, int nonlinear)
{
    int ok = 1;
    if (nonlinear)
        for (int64_t i = i0; i < i1; i++)
            ok &= radial_cell(s, new, dtu, mid, top, cp, cm, i, 1, 1, 1);
    else
        for (int64_t i = i0; i < i1; i++)
            ok &= radial_cell(s, new, dtu, mid, top, cp, cm, i, 1, 1, 0);
    return ok;
}

/* one radial step of the global cells [lo, hi), hi - lo >= 4, with the
   state's constants s: the level new from top and mid, the cubic term when
   nonlinear, the new values below DBL_MIN zeroed, and d_t u.  Returns
   NONFINITE when a new value is not finite, and GROW when a value of new or
   top is nonzero in the window's last two cells. */
int radial_step(const struct state *s, int nonlinear, double *new, const double *mid,
                const double *top, int64_t lo, int64_t hi)
{
    int64_t m = hi - lo, second = s->cells;
    double *dtu = s->dtu + lo;
    const double *cp = s->cp + lo, *cm = s->cm + lo;
    new += lo, mid += lo, top += lo;
    /* the first cell without its left neighbour, the interior [1, m - 1), the
       last cell without its right one */
    int ok = radial_cell(s, new, dtu, mid, top, cp, cm, 0, 0, 1, nonlinear);
    ok &= radial_run(s, new, dtu, mid, top, cp, cm, 1, m - 1, nonlinear);
    ok &= radial_cell(s, new, dtu, mid, top, cp, cm, m - 1, 1, 0, nonlinear);
    int status = ok ? 0 : NONFINITE;
    for (int64_t i = m - 2; i < m; i++)
        if (new[i] != 0.0 || new[second + i] != 0.0 || top[i] != 0.0 || top[second + i] != 0.0)
            status |= GROW;
    return status;
}

/* node f of an n x n grid, its four neighbours held, x along the first axis:
   (A*top - mid) + k*(((x+ + x-) + y+) + y-), the cubic term when nonlinear,
   and its d_t u; whether its new values are finite.  The only place the
   Cartesian update is written */
static int cartesian_node(const struct state *s, double *restrict new, double *restrict dtu,
                          const double *restrict mid, const double *restrict top, int64_t f,
                          int nonlinear)
{
    const int64_t n = s->cells, second = n * n, g = second + f;
    double a = (s->A * top[f] - mid[f])
        + s->k * (((top[f + n] + top[f - n]) + top[f + 1]) + top[f - 1]);
    double b = (s->A * top[g] - mid[g])
        + s->k * (((top[g + n] + top[g - n]) + top[g + 1]) + top[g - 1]);
    if (nonlinear)
        cubic(&a, &b, top[f], top[g], mid[f], mid[g], s->inv_dt, s->inv_8dt);
    int ok = finite_value(a) & finite_value(b);
    store(new, dtu, mid, f, second, a, b, s->inv_2dt);
    return ok;
}

/* the interior nodes [f0, f1) of one row of an n x n grid by cartesian_node,
   in a loop without a branch for each value of nonlinear; whether their new
   values are all finite.  Never inlined, as radial_run */
__attribute__((noinline))
static int cartesian_run(const struct state *s, double *restrict new, double *restrict dtu,
                         const double *restrict mid, const double *restrict top, int64_t f0,
                         int64_t f1, int nonlinear)
{
    int ok = 1;
    if (nonlinear)
        for (int64_t f = f0; f < f1; f++)
            ok &= cartesian_node(s, new, dtu, mid, top, f, 1);
    else
        for (int64_t f = f0; f < f1; f++)
            ok &= cartesian_node(s, new, dtu, mid, top, f, 0);
    return ok;
}

/* one Cartesian step with the state's constants s: the level new from top
   and mid at the interior nodes, row by row, the cubic term when nonlinear,
   and their d_t u; the Dirichlet ring of new and of d_t u is never written.
   Returns NONFINITE when a new value is not finite. */
int cartesian_step(const struct state *s, int nonlinear, double *new, const double *mid,
                   const double *top)
{
    int64_t n = s->cells, second = n * n;
    int ok = 1;
    for (int64_t f = n; f < second - n; f += n)
        ok &= cartesian_run(s, new, s->dtu, mid, top, f + 1, f + n - 1, nonlinear);
    return ok ? 0 : NONFINITE;
}
