/* The leapfrog steps of the two-component cubic wave system, one pass over
 * the held cells each (see the module docstring of solver.py for the scheme),
 * the time loop that advances a state between the steps its samplers read,
 * and the two diagnostics a run reads at its steps.  The state, struct state,
 * is the whole interface: each exported function takes it and only the
 * buffers its caller owns, and reads every other choice from it.  advance is
 * the only code that writes a level: it calls radial_step or cartesian_step,
 * the only update, once per step, and the run's start level is one call of
 * it from n = -1 with nonlinear off, a free pass over a zero middle level.
 * dissipation sums the integrand (d_t u1 d_t u2)^2 times the cell measure
 * over the held cells, and sample, the only point sampler of either grid,
 * interpolates the diagnosed level at points by 4-node Lagrange stencils: u,
 * d_t u and d_r u of a radial level, u of a Cartesian one.  A dissipating
 * state keeps the dissipation D of its diagnosed level and cum_D, its
 * step-resolution trapezoid in time, which advance carries forward at every
 * step.
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
 * The window rule is written once, in place_lo and advance: after each step
 * hi grows by one cell when the step reports GROW, up to the domain, and lo
 * is placed by place_lo.  advance stops at a step whose new values are not
 * all finite, before it counts that step, so that the caller finds the
 * state as single steps would have left it and the bad value in the level
 * the step wrote.
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

/* a state, bound once per state and the whole of what the kernel is told
   about it: d_t u, the radial neighbour coefficient rows cp and cm (unused in
   Cartesian mode), the cell measure (one value in Cartesian mode), and the
   buffers of slots 0, 1 and 2, which hold the level of time index j in slot
   j % 3; the cells of a component (radial) or the nodes per axis
   (Cartesian), whether the state is radial, its steps nonlinear and it
   dissipating; the steps taken n, -1 before the start level, and the held
   global cells [lo, hi), which advance moves; the last step last_n a
   light-cone window allows, INT64_MAX for the whole disk, and the window's
   lo there, lo_last, 0 for the whole disk; the spacing h, the folded
   update's A, the Cartesian neighbour factor k, the reciprocals 1/dt,
   1/(8 dt) and 1/(2 dt), and dt/2; and, while dissipating, the dissipation
   D of the diagnosed level and its trapezoid cum_D since the start */
struct state {
    double *dtu;
    const double *cp, *cm, *measure;
    double *slot0, *slot1, *slot2;
    int64_t cells, radial, nonlinear, dissipating, n, lo, hi, lo_last, last_n;
    double h, A, k, inv_dt, inv_8dt, inv_2dt, half_dt, D, cum_D;
};

/* the slot of the level of time index j >= 0 */
static double *slot(const struct state *s, int64_t j)
{
    return j % 3 == 0 ? s->slot0 : j % 3 == 1 ? s->slot1 : s->slot2;
}

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

/* one radial step of the held cells [lo, hi), hi - lo >= 4, of the state s:
   the level new from top and mid, the cubic term when s is nonlinear, the
   new values below DBL_MIN zeroed, and d_t u.  Returns NONFINITE when a new
   value is not finite, and GROW when a value of new or top is nonzero in the
   window's last two cells. */
static int radial_step(const struct state *s, double *new, const double *mid,
                       const double *top)
{
    int64_t lo = s->lo, m = s->hi - lo, second = s->cells;
    int nonlinear = (int)s->nonlinear;
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

/* one Cartesian step of the state s: the level new from top and mid at the
   interior nodes, row by row, the cubic term when s is nonlinear, and their
   d_t u; the Dirichlet ring of new and of d_t u is never written.
   Returns NONFINITE when a new value is not finite. */
static int cartesian_step(const struct state *s, double *new, const double *mid,
                          const double *top)
{
    int64_t n = s->cells, second = n * n;
    int ok = 1;
    for (int64_t f = n; f < second - n; f += n)
        ok &= cartesian_run(s, new, s->dtu, mid, top, f + 1, f + n - 1, (int)s->nonlinear);
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

/* int (d_t u1)^2 (d_t u2)^2 dx over the held cells of the state s: radial,
   the cells [0, hi) with the measure of each; Cartesian, every node with the
   one measure h^2.  numpy's np.sum of the integrand, 0.0 plus its pairwise
   sum, bit for bit */
double dissipation(const struct state *s)
{
    int64_t second = s->radial ? s->cells : s->cells * s->cells;
    return 0.0 + pairwise(s->dtu, s->dtu + second, s->measure, s->radial,
                          s->radial ? s->hi : second);
}

/* place lo at the state's step n: lo_last - (last_n - n), up one cell per
   step to lo_last at last_n, but not below the origin, and a stencil's worth
   below hi at least.  lo never falls, so no cell below it is read again */
void place_lo(struct state *s)
{
    int64_t lo = s->lo_last - (s->last_n - s->n);
    lo = lo > 0 ? lo : 0;
    s->lo = lo < s->hi - 4 ? lo : s->hi - 4;
}

/* count steps of the state s from n >= -1, count <= last_n - n: each writes
   the level of time index n + 2 into its slot from levels n + 1 (top) and n
   (mid), slots (n + 4) % 3 and (n + 3) % 3, by radial_step over [lo, hi) or
   cartesian_step, counts n, grows hi by one cell on GROW up to the cells of
   the domain (steps write only held cells and hi never falls, so the
   buffers are 0.0 past hi), places lo and, dissipating, adds the step's
   trapezoid to cum_D as (dt/2) (D + D_new), numpy's 0.5 * dt * (D + D_new),
   and keeps D_new, the new level's dissipation, as D.  Returns NONFINITE at
   the first step with a new value that is not finite, whose n, lo, hi, D
   and cum_D it leaves as they were, else 0 */
int advance(struct state *s, int64_t count)
{
    int (*one_step)(const struct state *, double *, const double *, const double *) =
        s->radial ? radial_step : cartesian_step;
    for (int64_t step = 0; step < count; step++) {
        int status = one_step(s, slot(s, s->n + 2), slot(s, s->n + 3), slot(s, s->n + 4));
        if (status & NONFINITE)
            return NONFINITE;
        s->n++;
        s->hi += (status & GROW) && s->hi < s->cells;
        place_lo(s);
        if (s->dissipating) {
            double D = dissipation(s);
            s->cum_D += s->half_dt * (s->D + D);
            s->D = D;
        }
    }
    return 0;
}

/* the weights of a 4-node Lagrange stencil at x = p - k0: node i's weight
   the product of (x - j) / (i - j) over j != i, its three factors
   multiplied left to right.  The only code that computes the weights */
static void lagrange(double x, double w[4])
{
    static const double J[3][4] = {{1, 0, 0, 0}, {2, 2, 1, 1}, {3, 3, 3, 2}};
    static const double D[3][4] = {{-1, 1, 2, 3}, {-2, -1, 1, 2}, {-3, -2, -1, 1}};
    for (int i = 0; i < 4; i++)
        w[i] = (((x - J[0][i]) / D[0][i]) * ((x - J[1][i]) / D[1][i])) * ((x - J[2][i]) / D[2][i]);
}

/* the 4-node stencil of the fractional node index x on n nodes: its weights
   into w, and its first node k0 = min(max(floor(x) - 1, 0), n - 4), which
   it returns */
static int64_t stencil(double x, int64_t n, double w[4])
{
    int64_t k0 = (int64_t)fmin(fmax(floor(x) - 1.0, 0.0), (double)(n - 4));
    lagrange(x - (double)k0, w);
    return k0;
}

/* the 4 stencil values a[0], a[d], a[2d], a[3d] times their weights, in one
   fixed order, so that a sample depends on no BLAS: the even products, the
   odd, then both, the order numpy's batched matmul took with OpenBLAS for
   the radial sample's (2, 4) blocks on x86-64, whose values it keeps */
static double dot4(const double *a, int64_t d, const double w[4])
{
    return (a[0] * w[0] + a[2 * d] * w[2]) + (a[d] * w[1] + a[3 * d] * w[3]);
}

/* the diagnosed level of the state s, slot n % 3, at m points, into out.
   Radial, the points are m radii r, each (cells - 1/2) h at most, and out,
   (3, 2, m), holds u, d_t u and the fourth-order d_r u of both components:
   per radius the stencil at r/h - 1/2; the cells k0 - 2 to k0 + 5 of the
   level, even ghosts across r = 0 and 0.0 past the cells; d_r u =
   (((a0 - 8 a1) + 8 a3) - a4) / (12 h) on those cells alone; each field's
   stencil values times the weights by dot4.  Cartesian, x holds the m
   first-axis fractional node indices, each in [0, n - 1], then the m
   second-axis ones, and out, (2, m), holds u of both components: per point
   and component, dot4 of the first-axis values at each of the four
   second-axis nodes, then dot4 of those four with the second-axis weights */
void sample(const struct state *s, const double *x, int64_t m, double *out)
{
    const int64_t n = s->cells;
    const double h = s->h, den = 12.0 * h, *level = slot(s, s->n);
    if (!s->radial) {
        for (int64_t p = 0; p < m; p++) {
            double wx[4], wy[4], rows[4];
            int64_t i0 = stencil(x[p], n, wx), j0 = stencil(x[m + p], n, wy);
            for (int c = 0; c < 2; c++) {
                for (int j = 0; j < 4; j++)
                    rows[j] = dot4(level + (c * n + i0) * n + j0 + j, n, wx);
                out[c * m + p] = dot4(rows, 1, wy);
            }
        }
        return;
    }
    for (int64_t p = 0; p < m; p++) {
        double w[4], a[8], grad[4];
        int64_t k0 = stencil(x[p] / h - 0.5, n, w);
        for (int c = 0; c < 2; c++) {
            const double *u = level + c * n, *dtu = s->dtu + c * n;
            for (int k = 0; k < 8; k++) {
                int64_t cell = k0 - 2 + k;
                cell = cell < 0 ? -1 - cell : cell;
                a[k] = cell < n ? u[cell] : 0.0;
            }
            for (int k = 0; k < 4; k++)
                grad[k] = (((a[k] - 8.0 * a[k + 1]) + 8.0 * a[k + 3]) - a[k + 4]) / den;
            out[(0 + c) * m + p] = dot4(a + 2, 1, w);
            out[(2 + c) * m + p] = dot4(dtu + k0, 1, w);
            out[(4 + c) * m + p] = dot4(grad, 1, w);
        }
    }
}
