/**
 * @file
 * The training kernels of every tier this build and CPU run, against
 * verbatim copies of the loops they replaced.
 *
 * gramAccumulate() and residualPredict() promise the scalar loop's
 * bits on every tier: the same per-element operation order, with no
 * multiply-add pair contracted into an FMA. The references below are
 * the loops the subset scorer ran before the tiled kernels (a full
 * upper-triangle Gram updated point by point, skipping zero responses;
 * a zero-filled prediction vector updated center by center), so a
 * tier that reorders a sum or fuses a product differs from them in
 * the last bits of some entry. This file is compiled with
 * -ffp-contract=off so the references themselves stay unfused.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "math/matrix.hh"
#include "math/rng.hh"
#include "rbf/rbf_batch.hh"
#include "rbf/train_kernels.hh"

namespace {

using namespace ppm;
using rbf::SimdKind;

/** Every tier this binary and CPU run: scalar, then the vector ones. */
std::vector<SimdKind>
tiersHere()
{
    std::vector<SimdKind> tiers = {SimdKind::Scalar};
    const SimdKind cpu = rbf::detectSimd();
    if (cpu == SimdKind::Avx2 || cpu == SimdKind::Avx512)
        tiers.push_back(SimdKind::Avx2);
    if (cpu == SimdKind::Avx512)
        tiers.push_back(SimdKind::Avx512);
    return tiers;
}

/** A design-matrix-like value: exact zeros, tiny, ordinary and one. */
double
responseLike(math::Rng &rng)
{
    const double u = rng.uniform();
    if (u < 0.25)
        return 0.0;
    if (u < 0.30)
        return 1.0;
    if (u < 0.35)
        return rng.uniform() * 1e-300;
    return rng.uniform();
}

/** The scorer's Gram loop before the tiled kernels, over all rows. */
math::Matrix
referenceGram(const std::vector<double> &h, std::size_t p, std::size_t n)
{
    math::Matrix gram(n, n);
    for (std::size_t r = 0; r < p; ++r) {
        const double *a = h.data() + r * n;
        for (std::size_t i = 0; i < n; ++i) {
            const double ai = a[i];
            if (ai == 0.0)
                continue;
            double *g = gram.rowPtr(i);
            for (std::size_t j = i; j < n; ++j)
                g[j] += ai * a[j];
        }
    }
    return gram;
}

TEST(TrainKernels, GramTiersMatchTheScalarLoop)
{
    // Sizes around the 16-column AVX-512 and 8-column AVX2 tiles and
    // the p_min = 1 candidate count of a 200-point sample; 200 and 600
    // points cross the scorer's 64-point design blocks and end in a
    // partial one. The 399-candidate inputs are the slow ones, so they
    // get fewer of the 1,000.
    constexpr std::size_t kBlock = 64;
    const std::size_t ns[] = {1, 15, 16, 17, 399};
    const std::size_t ps[] = {1, 200, 600};
    math::Rng rng(399);
    int runs = 0;
    for (int input = 0; input < 1000; ++input) {
        const std::size_t n =
            input % 83 == 0 ? 399 : ns[rng.uniformInt(std::uint64_t{4})];
        const std::size_t p = ps[rng.uniformInt(std::uint64_t{3})];
        SCOPED_TRACE(::testing::Message()
                     << "input " << input << " n " << n << " p " << p);
        std::vector<double> h(p * n);
        for (double &v : h)
            v = responseLike(rng);
        const math::Matrix want = referenceGram(h, p, n);
        for (SimdKind tier : tiersHere()) {
            SCOPED_TRACE(rbf::simdKindName(tier));
            std::vector<double> g(rbf::packedRow(n), 0.0);
            for (std::size_t r0 = 0; r0 < p; r0 += kBlock)
                rbf::gramAccumulate(tier, h.data() + r0 * n,
                                    std::min(kBlock, p - r0), n, g.data());
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t j = 0; j <= i; ++j)
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(
                                  g[rbf::packedRow(i) + j]),
                              std::bit_cast<std::uint64_t>(want(j, i)))
                        << "G(" << i << ", " << j << ")";
            ++runs;
        }
    }
    EXPECT_GE(runs, 1000);
}

TEST(TrainKernels, ResidualTiersMatchTheScalarLoop)
{
    math::Rng rng(200);
    for (int input = 0; input < 1000; ++input) {
        // Ragged point counts around the 32-point AVX2 tile.
        const std::size_t p = 1 + rng.uniformInt(std::uint64_t{300});
        const std::size_t m = rng.uniformInt(std::uint64_t{120});
        SCOPED_TRACE(::testing::Message()
                     << "input " << input << " m " << m << " p " << p);
        std::vector<double> data(m * p);
        for (double &v : data)
            v = responseLike(rng);
        std::vector<double> w(m);
        for (double &v : w)
            v = rng.gaussian(0.0, 1e3);
        std::vector<const double *> cols(m);
        for (std::size_t j = 0; j < m; ++j)
            cols[j] = data.data() + j * p;

        std::vector<double> want(p, 0.0);
        for (std::size_t j = 0; j < m; ++j) {
            const double wj = w[j];
            const double *col = cols[j];
            for (std::size_t i = 0; i < p; ++i)
                want[i] += wj * col[i];
        }
        for (SimdKind tier : tiersHere()) {
            SCOPED_TRACE(rbf::simdKindName(tier));
            // Stale values must be overwritten, not accumulated into.
            std::vector<double> pred(p, 7.0);
            rbf::residualPredict(tier, cols.data(), w.data(), m, p,
                                 pred.data());
            for (std::size_t i = 0; i < p; ++i)
                ASSERT_EQ(std::bit_cast<std::uint64_t>(pred[i]),
                          std::bit_cast<std::uint64_t>(want[i]))
                    << "point " << i;
        }
    }
}

} // namespace
