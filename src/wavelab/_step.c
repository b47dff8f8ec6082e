/* One leapfrog step of the two-component cubic wave system, in one pass over
 * the held cells (see the module docstring of solver.py for the scheme), and
 * the two diagnostics a run reads at its steps.  radial_step and
 * cartesian_step are the only stencil: the run's start level is one free
 * pass of them, with a zero middle level.  dissipation sums the integrand
 * (d_t u1 d_t u2)^2 times the cell measure, and radial_sample interpolates a
 * radial level and its d_t u and d_r u at points.
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

/* the dissipation integrand of value i, ((d0 d1)^2) m with p = d0 d1 rounded
   first, as numpy's ((d0*d1)**2)*m: m[i * stride], the cell measure, is one
   value for every i when stride is 0 */
static double integrand(const double *d0, const double *d1, const double *m, int64_t stride,
                        int64_t i)
{
    double p = d0[i] * d1[i];
    return (p * p) * m[i * stride];
}

/* the sum of the integrand's first n values in the order of numpy's pairwise
   summation (its float64 add.reduce of a contiguous array): below 8 values a
   loop from 0.0; up to 128, eight running sums of every eighth value joined
   as a tree, then the rest in order; above, the sums of two halves, split at
   a multiple of 8 */
static double pairwise(const double *d0, const double *d1, const double *m, int64_t stride,
                       int64_t n)
{
    if (n < 8) {
        double sum = 0.0;
        for (int64_t i = 0; i < n; i++)
            sum += integrand(d0, d1, m, stride, i);
        return sum;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int k = 0; k < 8; k++)
            r[k] = integrand(d0, d1, m, stride, k);
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += integrand(d0, d1, m, stride, i + k);
        double sum = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            sum += integrand(d0, d1, m, stride, i);
        return sum;
    }
    int64_t n2 = n / 2 - (n / 2) % 8;
    return pairwise(d0, d1, m, stride, n2)
        + pairwise(d0 + n2, d1 + n2, m + n2 * stride, stride, n - n2);
}

/* int (d_t u1)^2 (d_t u2)^2 dx over the first n values of each component of
   d_t u, component 2 `second` values after component 1, with the measure
   measure[i * stride]: numpy's np.sum of the integrand, 0.0 plus its
   pairwise sum, bit for bit */
double dissipation(const struct state *s, const double *measure, int64_t stride,
                   int64_t second, int64_t n)
{
    return 0.0 + pairwise(s->dtu, s->dtu + second, measure, stride, n);
}

/* the weights of a 4-node Lagrange stencil at x = p - k0: node i's weight
   the product of (x - j) / (i - j) over j != i, multiplied left to right in
   the order of solver._stencil's factors */
static void lagrange(double x, double w[4])
{
    static const double J[3][4] = {{1, 0, 0, 0}, {2, 2, 1, 1}, {3, 3, 3, 2}};
    static const double D[3][4] = {{-1, 1, 2, 3}, {-2, -1, 1, 2}, {-3, -2, -1, 1}};
    for (int i = 0; i < 4; i++)
        w[i] = (((x - J[0][i]) / D[0][i]) * ((x - J[1][i]) / D[1][i])) * ((x - J[2][i]) / D[2][i]);
}

/* a 4-point stencil's values a[0..3] times its weights, in the order numpy's
   batched matmul takes with OpenBLAS for a (2, 4) block on x86-64: the even
   products, the odd, then both; written out, so the sample does not depend
   on a BLAS */
static double dot4(const double *a, const double w[4])
{
    return (a[0] * w[0] + a[2] * w[2]) + (a[1] * w[1] + a[3] * w[3]);
}

/* the radial level `level` and its d_t u and d_r u at the m radii r, each
   (n - 1/2) h at most, into out, (3, 2, m): u, d_t u and the fourth-order
   d_r u of both components.  Per radius: the stencil k0 =
   min(max(floor(r/h - 1/2) - 1, 0), n - 4) and its weights; the cells
   k0 - 2 to k0 + 5 of the level, even ghosts across r = 0 and 0.0 past the
   n cells; d_r u = (((a0 - 8 a1) + 8 a3) - a4) / (12 h) on those cells
   alone; each field's stencil values times the weights by dot4 */
void radial_sample(const struct state *s, const double *level, const double *r, int64_t m,
                   double h, double *out)
{
    const int64_t n = s->cells;
    const double den = 12.0 * h;
    for (int64_t p = 0; p < m; p++) {
        double x = r[p] / h - 0.5, w[4];
        int64_t k0 = (int64_t)floor(x) - 1;
        k0 = k0 < 0 ? 0 : k0 > n - 4 ? n - 4 : k0;
        lagrange(x - (double)k0, w);
        for (int c = 0; c < 2; c++) {
            const double *u = level + c * n, *dtu = s->dtu + c * n;
            double a[8], grad[4];
            for (int k = 0; k < 8; k++) {
                int64_t cell = k0 - 2 + k;
                cell = cell < 0 ? -1 - cell : cell;
                a[k] = cell < n ? u[cell] : 0.0;
            }
            for (int k = 0; k < 4; k++)
                grad[k] = (((a[k] - 8.0 * a[k + 1]) + 8.0 * a[k + 3]) - a[k + 4]) / den;
            out[(0 + c) * m + p] = dot4(a + 2, w);
            out[(2 + c) * m + p] = dot4(dtu + k0, w);
            out[(4 + c) * m + p] = dot4(grad, w);
        }
    }
}
