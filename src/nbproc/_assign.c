/* Topic assignment draw for every training token: the compiled form of
 * the numpy loop nbproc.models._assign_numpy, with the same z bit for bit.
 *
 * Build contract: compile without FMA contraction (-ffp-contract=off),
 * without -march=native and without -ffast-math.  Each of them lets the
 * compiler fuse, reorder or vectorize the running sum below, which changes
 * its rounding and so the drawn topics.
 *
 * For token i of document j with term v, the weights omega_t[v, k] *
 * lam[j, k] are summed in order k = 0..K-1 (the IEEE operations of numpy's
 * multiply and cumsum), and z[i] is the number of k whose running sum lies
 * below u[i] * total.  The caller checks that omega_t and lam hold no
 * negative entry, so the running sums never decrease and that number is
 * found by bisection.  Returns -1, or the first document whose total is
 * not positive and finite; z is then partly written.
 */
#include <math.h>
#include <stdint.h>

int64_t assign_topics(const double *omega_t, const double *lam, int64_t K, const int64_t *terms,
                      const int64_t *offsets, int64_t J, const double *u, int64_t *z, double *cum)
{
    for (int64_t j = 0; j < J; j++) {
        const double *weights = lam + j * K;
        for (int64_t i = offsets[j]; i < offsets[j + 1]; i++) {
            const double *row = omega_t + terms[i] * K;
            double total = 0.0;
            for (int64_t k = 0; k < K; k++) {
                total += row[k] * weights[k];
                cum[k] = total;
            }
            if (!(isfinite(total) && total > 0.0))
                return j;
            const double threshold = u[i] * total;
            int64_t below = 0, above = K; /* the answer lies in [below, above] */
            while (below < above) {
                const int64_t mid = below + (above - below) / 2;
                if (cum[mid] < threshold)
                    below = mid + 1;
                else
                    above = mid;
            }
            z[i] = below;
        }
    }
    return -1;
}
