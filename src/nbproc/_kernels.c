/* The package's per-token loops, compiled: topic assignment, the
 * documents' and the topics' token counts, CRT table counts and held-out
 * evaluation.  nbproc runs them only here.  One more, read_docword, reads
 * the data lines of a docword file of the plainest form and declines any
 * other, which nbproc.corpus then reads with np.loadtxt.  nbproc._kernels
 * compiles this file once per source version and flags, and keeps the
 * library in the __pycache__ directory beside it.
 *
 * Build contract: compile without FMA contraction (-ffp-contract=off),
 * without -march=native and without -ffast-math.  Each of them lets the
 * compiler fuse, reorder or vectorize the sums below, which changes their
 * rounding and so the drawn topics and the held-out mass.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* The number of entries of the nondecreasing cum[0..K-1] that lie below t:
 * a lower-bound search whose steps take no branch on the data (Khuong and
 * Morin, "Array layouts for comparison-based searching", 2017), so a
 * mispredicted comparison never stalls the next one.
 */
static inline int64_t count_below(const double *cum, int64_t K, double t)
{
    const double *base = cum;
    for (int64_t n = K; n > 1; n -= n / 2)
        base = base[n / 2] < t ? base + n / 2 : base;
    return (base - cum) + (*base < t);
}

/* For token i of document j with term v, the weights omega_t[v, k] *
 * lam[j, k] are summed in order k = 0..K-1 (the IEEE operations of numpy's
 * multiply and cumsum), and z[i] is the number of k whose running sum lies
 * below u[i] * total, at most K - 1 since u[i] < 1.  The caller checks
 * that omega_t and lam hold no negative entry, so the running sums never
 * decrease and that number is found by a lower-bound search.  Each sum is
 * one chain of K dependent adds, so four tokens of a document run in
 * lockstep, each with its own sum and its own K-entry part of the 4 * K
 * doubles of cum; a document's last len % 4 tokens run one by one.  Row j
 * of the documents x topics counts gets document j's topics.  Returns -1,
 * or the first document whose total is not positive and finite; z and
 * counts are then partly written.
 *
 * u and z may share one buffer, the uniforms drawn into the new z's
 * memory: token i reads u[i] before it writes z[i], and no other token
 * reads or writes either, so threads that run disjoint runs of documents
 * never touch each other's entries.
 */
int64_t assign_topics(const double *omega_t, const double *lam, int64_t K, const int64_t *terms,
                      const int64_t *offsets, int64_t J, const double *u, int64_t *z, int64_t *counts,
                      double *cum)
{
    double *cum1 = cum + K, *cum2 = cum + 2 * K, *cum3 = cum + 3 * K;
    for (int64_t j = 0; j < J; j++) {
        const double *weights = lam + j * K;
        int64_t *row_counts = counts + j * K;
        for (int64_t k = 0; k < K; k++)
            row_counts[k] = 0;
        int64_t i = offsets[j];
        for (; i + 4 <= offsets[j + 1]; i += 4) {
            const double *row0 = omega_t + terms[i] * K, *row1 = omega_t + terms[i + 1] * K;
            const double *row2 = omega_t + terms[i + 2] * K, *row3 = omega_t + terms[i + 3] * K;
            double total0 = 0.0, total1 = 0.0, total2 = 0.0, total3 = 0.0;
            for (int64_t k = 0; k < K; k++) {
                const double weight = weights[k];
                total0 += row0[k] * weight;
                total1 += row1[k] * weight;
                total2 += row2[k] * weight;
                total3 += row3[k] * weight;
                cum[k] = total0;
                cum1[k] = total1;
                cum2[k] = total2;
                cum3[k] = total3;
            }
            if (!(isfinite(total0) && total0 > 0.0 && isfinite(total1) && total1 > 0.0 && isfinite(total2) &&
                  total2 > 0.0 && isfinite(total3) && total3 > 0.0))
                return j;
            z[i] = count_below(cum, K, u[i] * total0);
            z[i + 1] = count_below(cum1, K, u[i + 1] * total1);
            z[i + 2] = count_below(cum2, K, u[i + 2] * total2);
            z[i + 3] = count_below(cum3, K, u[i + 3] * total3);
            row_counts[z[i]]++;
            row_counts[z[i + 1]]++;
            row_counts[z[i + 2]]++;
            row_counts[z[i + 3]]++;
        }
        for (; i < offsets[j + 1]; i++) {
            const double *row = omega_t + terms[i] * K;
            double total = 0.0;
            for (int64_t k = 0; k < K; k++) {
                total += row[k] * weights[k];
                cum[k] = total;
            }
            if (!(isfinite(total) && total > 0.0))
                return j;
            z[i] = count_below(cum, K, u[i] * total);
            row_counts[z[i]]++;
        }
    }
    return -1;
}

/* Row j of the J x K counts gets the number of tokens i of document j,
 * offsets[j] <= i < offsets[j + 1], with each topic z[i].  Returns -1, or
 * the first token whose topic lies outside [0, K); counts is then partly
 * written.
 */
int64_t count_documents(const int64_t *z, const int64_t *offsets, int64_t J, int64_t K, int64_t *counts)
{
    for (int64_t j = 0; j < J; j++) {
        int64_t *row_counts = counts + j * K;
        for (int64_t k = 0; k < K; k++)
            row_counts[k] = 0;
        for (int64_t i = offsets[j]; i < offsets[j + 1]; i++) {
            if (z[i] < 0 || z[i] >= K)
                return i;
            row_counts[z[i]]++;
        }
    }
    return -1;
}

/* Adds 1.0 to counts[(k - first) * V + terms[i]] for each token i < N of
 * topic k = z[i] in [first, last).  The counts stay exact integers, so the
 * order of the adds never changes them.
 */
void count_topics(const int64_t *z, const int64_t *terms, int64_t N, int64_t first, int64_t last, int64_t V,
                  double *counts)
{
    for (int64_t i = 0; i < N; i++) {
        const int64_t k = z[i];
        if (k >= first && k < last)
            counts[(k - first) * V + terms[i]] += 1.0;
    }
}

/* Lists the cell (k - start) * V + terms[i] of each token i < N of topic
 * z[i] in [start, stop), k = z[i], topic by topic and in token order
 * within a topic: topic k's cells go from cells[next[k - start]] on, and
 * next[k - start] ends past them.
 */
void gather_cells(const int64_t *z, const int64_t *terms, int64_t N, int64_t start, int64_t stop, int64_t V,
                  int64_t *next, int64_t *cells)
{
    for (int64_t i = 0; i < N; i++) {
        const int64_t k = z[i] - start;
        if (k >= 0 && k < stop - start)
            cells[next[k]++] = k * V + terms[i];
    }
}

/* Adds 1.0 to counts[cells[t] - base] for t = 0..n-1. */
void add_cells(const int64_t *cells, int64_t n, int64_t base, double *counts)
{
    for (int64_t t = 0; t < n; t++)
        counts[cells[t] - base] += 1.0;
}

/* CRT(m, r) table counts of a rows x cols array of counts m, in C order.
 * Cell (a, b) reads its rate at r[a * r_row + b * r_col] (strides in
 * doubles, 0 along a broadcast axis) and takes the next m uniforms of u:
 * its count is the number of k = 0..m-1 with u < r / (k + r).  Returns -1,
 * or the first cell with m > 0 whose rate is not positive and finite;
 * tables is then partly written.
 */
int64_t crt_tables(const int64_t *m, int64_t rows, int64_t cols, const double *r, int64_t r_row,
                   int64_t r_col, const double *u, int64_t *tables)
{
    for (int64_t a = 0; a < rows; a++) {
        for (int64_t b = 0; b < cols; b++) {
            const int64_t cell = a * cols + b, n = m[cell];
            int64_t count = 0;
            if (n > 0) {
                const double rate = r[a * r_row + b * r_col];
                if (!(isfinite(rate) && rate > 0.0))
                    return cell;
                for (int64_t k = 0; k < n; k++)
                    count += u[k] < rate / ((double)k + rate);
                u += n;
            }
            tables[cell] = count;
        }
    }
    return -1;
}

/* sum_k a[k] * b[k] in four lanes: lane l adds the k = l (mod 4) in
 * increasing k, and the lanes are added as (l0 + l1) + (l2 + l3). */
static double lane_dot(const double *a, const double *b, int64_t K)
{
    double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
    int64_t k = 0;
    for (; k + 4 <= K; k += 4) {
        l0 += a[k] * b[k];
        l1 += a[k + 1] * b[k + 1];
        l2 += a[k + 2] * b[k + 2];
        l3 += a[k + 3] * b[k + 3];
    }
    if (k < K)
        l0 += a[k] * b[k];
    if (k + 1 < K)
        l1 += a[k + 1] * b[k + 1];
    if (k + 2 < K)
        l2 += a[k + 2] * b[k + 2];
    return (l0 + l1) + (l2 + l3);
}

/* Adds to mass[i], for held-out token i of document j with term v, the
 * lane sum of omega_t[v, k] * lam[j, k], and to totals[j] the lane sum of
 * lam[j, k] * topic_mass[k]. */
void heldout_mass(const double *omega_t, const double *lam, int64_t K, const int64_t *terms,
                  const int64_t *offsets, int64_t J, const double *topic_mass, double *mass, double *totals)
{
    for (int64_t j = 0; j < J; j++) {
        const double *weights = lam + j * K;
        for (int64_t i = offsets[j]; i < offsets[j + 1]; i++)
            mass[i] += lane_dot(omega_t + terms[i] * K, weights, K);
        totals[j] += lane_dot(weights, topic_mass, K);
    }
}

/* sums[j] = the sum, in token order, of log(mass[i] / totals[j]) over
 * document j's held-out tokens, or 0 for a document with none.  Returns -1,
 * or the first document holding a ratio <= 0; sums is then partly written.
 */
int64_t heldout_log_sums(const double *mass, const double *totals, const int64_t *offsets, int64_t J,
                         double *sums)
{
    for (int64_t j = 0; j < J; j++) {
        double sum = 0.0;
        for (int64_t i = offsets[j]; i < offsets[j + 1]; i++) {
            const double ratio = mass[i] / totals[j];
            if (ratio <= 0.0)
                return j;
            sum += log(ratio);
        }
        sums[j] = sum;
    }
    return -1;
}

/* Reads one field of at most 18 digits, which no int64 overflows, ending at
 * the byte stop: returns the byte after stop, or NULL. */
static const char *read_field(const char *p, const char *end, char stop, int64_t *value)
{
    const char *first = p;
    int64_t v = 0;
    while (p < end && p - first < 18 && *p >= '0' && *p <= '9')
        v = v * 10 + (*p++ - '0');
    if (p == first || p == end || *p != stop)
        return NULL;
    *value = v;
    return p + 1;
}

/* Reads the nnz data lines of a docword file into the nnz x 3 rows of
 * docID, wordID and count.  text holds the whole file; its first three
 * lines, the header, are skipped.  Returns 1 when every header line ends
 * at an LF and holds no CR, every data line is "digits SP digits SP
 * digits LF" with at most 18 digits a field, a docID in 1..num_docs, a
 * wordID in 1..vocab_size and a count of at least 1, and the text ends
 * after the nnz-th data line.  Returns 0 otherwise; rows is then partly
 * written.  So every file it reads holds ASCII decimal lines that
 * np.loadtxt reads as the same rows, and a file with any other layout
 * (CRLF, tabs, signs, blank lines) is left to np.loadtxt.
 */
int64_t read_docword(const char *text, int64_t size, int64_t nnz, int64_t num_docs, int64_t vocab_size,
                     int64_t *rows)
{
    const char *p = text, *end = text + size;
    for (int line = 0; line < 3; line++) {
        while (p < end && *p != '\n')
            if (*p++ == '\r')
                return 0;
        if (p == end)
            return 0;
        p++;
    }
    for (int64_t n = 0; n < nnz; n++) {
        int64_t *row = rows + 3 * n;
        if (!(p = read_field(p, end, ' ', row)) || !(p = read_field(p, end, ' ', row + 1)) ||
            !(p = read_field(p, end, '\n', row + 2)))
            return 0;
        if (row[0] < 1 || row[0] > num_docs || row[1] < 1 || row[1] > vocab_size || row[2] < 1)
            return 0;
    }
    return p == end;
}
