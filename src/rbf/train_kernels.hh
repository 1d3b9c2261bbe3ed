/**
 * @file
 * Register-tiled kernels of RBF subset selection: the Gram
 * accumulation of a candidate set and the residual pass of a fit.
 *
 * Numerical contract: every tier returns the bits of the scalar loop.
 * Each output element keeps the scalar loop's own operation order (a
 * Gram entry sums its products over points in ascending order; a
 * prediction sums its weighted columns over centers in ascending
 * order), each step a multiply followed by a separate add. A tier only
 * runs more elements side by side, one accumulator per element in a
 * register tile. train_kernels.cc is compiled with -ffp-contract=off,
 * so no multiply-add pair is fused into an FMA.
 *
 * Tiers follow rbf::activeSimd() (PPM_SIMD): AVX-512 and AVX2 on x86,
 * the scalar loop otherwise (including NEON builds and -DPPM_SIMD=OFF).
 * The residual pass has no AVX-512 tile of its own (it measured no
 * faster than the AVX2 one); AVX-512 runs the AVX2 tile. A caller must
 * pass a kind the CPU supports.
 */

#ifndef PPM_RBF_TRAIN_KERNELS_HH
#define PPM_RBF_TRAIN_KERNELS_HH

#include <cstddef>

#include "rbf/rbf_batch.hh"

namespace ppm::rbf {

/** Offset of row @p i in a packed lower-triangular matrix. */
constexpr std::size_t
packedRow(std::size_t i)
{
    return i * (i + 1) / 2;
}

/**
 * Add @p rows design rows to a packed lower-triangular Gram matrix:
 * for every j <= i < n, g[packedRow(i) + j] += h(r, i) * h(r, j), r
 * ascending, where h(r, i) = h[r * n + i]. A larger sample calls this
 * once per block of rows; each entry continues from its stored
 * partial sum.
 */
void gramAccumulate(SimdKind kind, const double *h, std::size_t rows,
                    std::size_t n, double *g);

/**
 * Predictions of a weighted column subset: pred[i] = sum over j < m
 * of w[j] * cols[j][i] for every i < p, j ascending from 0.0.
 */
void residualPredict(SimdKind kind, const double *const *cols,
                     const double *w, std::size_t m, std::size_t p,
                     double *pred);

} // namespace ppm::rbf

#endif // PPM_RBF_TRAIN_KERNELS_HH
