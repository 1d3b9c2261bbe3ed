/**
 * @file
 * Unit tests for the linear solvers: Cholesky, Householder QR, and the
 * least-squares front end with ridge fallback. qrSolve must also give
 * the bits of the frozen column-at-a-time QR in reference_linreg.hh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "math/linalg.hh"
#include "math/rng.hh"
#include "reference_linreg.hh"

namespace {

using namespace ppm::math;

TEST(Cholesky, FactorOfKnownMatrix)
{
    // a = L L^T with L = [[2,0],[1,3]]
    Matrix a{{4, 2}, {2, 10}};
    auto l = cholesky(a);
    ASSERT_TRUE(l.has_value());
    EXPECT_NEAR((*l)(0, 0), 2.0, 1e-12);
    EXPECT_NEAR((*l)(1, 0), 1.0, 1e-12);
    EXPECT_NEAR((*l)(1, 1), 3.0, 1e-12);
    EXPECT_NEAR((*l)(0, 1), 0.0, 1e-12);
}

TEST(Cholesky, RejectsIndefinite)
{
    Matrix a{{1, 2}, {2, 1}}; // eigenvalues 3, -1
    EXPECT_FALSE(cholesky(a).has_value());
}

TEST(Cholesky, RejectsNegativeDefinite)
{
    Matrix a{{-4, 0}, {0, -1}};
    EXPECT_FALSE(cholesky(a).has_value());
}

TEST(Cholesky, SolveRecoversKnownSolution)
{
    Matrix a{{4, 2}, {2, 10}};
    Vector x_true{1.0, -2.0};
    Vector b = a * x_true;
    auto x = choleskySolve(a, b);
    ASSERT_TRUE(x.has_value());
    EXPECT_NEAR((*x)[0], 1.0, 1e-10);
    EXPECT_NEAR((*x)[1], -2.0, 1e-10);
}

TEST(Cholesky, SolveLargeRandomSpd)
{
    Rng rng(42);
    const std::size_t n = 30;
    Matrix g(n, n);
    // Random A, then G = A^T A + I is SPD.
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = rng.gaussian();
    g = a.gram();
    for (std::size_t i = 0; i < n; ++i)
        g(i, i) += 1.0;
    Vector x_true(n);
    for (auto &v : x_true)
        v = rng.uniform(-2, 2);
    Vector b = g * x_true;
    auto x = choleskySolve(g, b);
    ASSERT_TRUE(x.has_value());
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR((*x)[i], x_true[i], 1e-8);
}

TEST(QrSolve, ExactSquareSystem)
{
    Matrix a{{1, 1}, {1, -1}};
    Vector x_true{2, 3};
    Vector y = a * x_true;
    auto x = qrSolve(a, y);
    ASSERT_TRUE(x.has_value());
    EXPECT_NEAR((*x)[0], 2.0, 1e-10);
    EXPECT_NEAR((*x)[1], 3.0, 1e-10);
}

TEST(QrSolve, OverdeterminedProjects)
{
    // Fit y = c0 + c1 x to exactly linear data: must recover it.
    Matrix a{{1, 0}, {1, 1}, {1, 2}, {1, 3}};
    Vector y{1, 3, 5, 7}; // y = 1 + 2x
    auto x = qrSolve(a, y);
    ASSERT_TRUE(x.has_value());
    EXPECT_NEAR((*x)[0], 1.0, 1e-10);
    EXPECT_NEAR((*x)[1], 2.0, 1e-10);
}

TEST(QrSolve, RankDeficientReturnsNullopt)
{
    Matrix a{{1, 2}, {2, 4}, {3, 6}}; // col2 = 2 * col1
    EXPECT_FALSE(qrSolve(a, {1, 2, 3}).has_value());
}

TEST(LeastSquares, MinimizesResidual)
{
    // Overdetermined noisy fit: residual must be orthogonal to the
    // column space (normal equations hold).
    Matrix a{{1, 0.5}, {1, 1.5}, {1, 2.5}, {1, 4.0}};
    Vector y{1.1, 2.9, 5.2, 8.1};
    auto fit = leastSquares(a, y);
    ASSERT_EQ(fit.coefficients.size(), 2u);
    const Vector fitted = a * fit.coefficients;
    const Vector resid = subtract(y, fitted);
    const Vector atr = a.transposeTimes(resid);
    EXPECT_NEAR(atr[0], 0.0, 1e-9);
    EXPECT_NEAR(atr[1], 0.0, 1e-9);
    EXPECT_FALSE(fit.regularized);
    // Reported RSS matches the actual residual.
    EXPECT_NEAR(fit.residual_sum_squares, dot(resid, resid), 1e-9);
}

TEST(LeastSquares, FallsBackToRidgeOnCollinearColumns)
{
    Matrix a{{1, 1}, {2, 2}, {3, 3}, {4, 4}};
    Vector y{1, 2, 3, 4};
    auto fit = leastSquares(a, y);
    EXPECT_TRUE(fit.regularized);
    // Even regularized, predictions should be close to the data.
    const Vector fitted = a * fit.coefficients;
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(fitted[i], y[i], 1e-3);
}

TEST(RidgeSolve, ShrinksTowardZeroWithHugePenalty)
{
    Matrix a{{1, 0}, {0, 1}};
    Vector y{10, -10};
    Vector x = ridgeSolve(a, y, 1e9);
    EXPECT_NEAR(x[0], 0.0, 1e-6);
    EXPECT_NEAR(x[1], 0.0, 1e-6);
}

TEST(RidgeSolve, SmallPenaltyNearExact)
{
    Matrix a{{2, 0}, {0, 4}};
    Vector y{2, 8};
    Vector x = ridgeSolve(a, y, 1e-12);
    EXPECT_NEAR(x[0], 1.0, 1e-5);
    EXPECT_NEAR(x[1], 2.0, 1e-5);
}

TEST(LeastSquares, RandomizedAgreementWithQr)
{
    Rng rng(7);
    const std::size_t m = 40, n = 6;
    Matrix a(m, n);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = rng.gaussian();
    Vector y(m);
    for (auto &v : y)
        v = rng.gaussian();
    auto fit = leastSquares(a, y);
    auto qr = qrSolve(a, y);
    ASSERT_TRUE(qr.has_value());
    for (std::size_t j = 0; j < n; ++j)
        EXPECT_NEAR(fit.coefficients[j], (*qr)[j], 1e-9);
}

/** Random m x n matrix of one of three entry kinds. */
Matrix
randomMatrix(Rng &rng, std::size_t m, std::size_t n)
{
    const auto kind = rng.uniformInt(3);
    Matrix a(m, n);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (kind == 0) {
                a(i, j) = rng.gaussian();
            } else if (kind == 1) {
                // Design-matrix-like: an intercept column, then unit
                // inputs and their products.
                a(i, j) = j == 0 ? 1.0 : rng.uniform();
                if (j > 2 && j % 2 == 1)
                    a(i, j) *= a(i, j - 2);
            } else {
                a(i, j) = rng.uniform(-1, 1) *
                          std::pow(10.0, rng.uniform(-6, 6));
            }
        }
    }
    return a;
}

Vector
randomVector(Rng &rng, std::size_t m)
{
    Vector y(m);
    for (auto &v : y)
        v = rng.gaussian(1.0, 2.0);
    return y;
}

/** Same has_value, and the same bits in every coefficient. */
bool
expectSameQr(const Matrix &a, const Vector &y)
{
    const auto want = ppm::test::referenceQrSolve(a, y);
    const auto got = qrSolve(a, y);
    EXPECT_EQ(got.has_value(), want.has_value())
        << a.rows() << "x" << a.cols();
    if (!want || !got)
        return false;
    for (std::size_t j = 0; j < want->size(); ++j)
        EXPECT_EQ(std::bit_cast<std::uint64_t>((*got)[j]),
                  std::bit_cast<std::uint64_t>((*want)[j]))
            << a.rows() << "x" << a.cols() << " coefficient " << j;
    return true;
}

TEST(QrSolve, BitIdenticalToColumnAtATimeReference)
{
    Rng rng(31);
    std::size_t solved = 0, failed = 0;
    // Tall and square systems.
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t m = 1 + rng.uniformInt(300);
        const std::size_t n =
            trial % 4 == 0
                ? m
                : 1 + rng.uniformInt(std::min<std::size_t>(m, 60));
        const bool ok = expectSameQr(randomMatrix(rng, m, n),
                                     randomVector(rng, m));
        (ok ? solved : failed) += 1;
    }
    // Near-singular: one column a copy of another plus eps noise. The
    // small eps fit with huge coefficients; eps 0 and 1e-14 return
    // nullopt from the column-norm check.
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t m = 3 + rng.uniformInt(200);
        const std::size_t n =
            2 + rng.uniformInt(std::min<std::size_t>(m - 1, 40));
        Matrix a = randomMatrix(rng, m, n);
        const std::size_t src = rng.uniformInt(n);
        std::size_t dst = rng.uniformInt(n - 1);
        dst += dst >= src;
        const double eps = std::array{0.0, 1e-14, 1e-10, 1e-6}[trial % 4];
        for (std::size_t i = 0; i < m; ++i)
            a(i, dst) = a(i, src) + eps * rng.gaussian();
        const bool ok = expectSameQr(a, randomVector(rng, m));
        (ok ? solved : failed) += 1;
    }
    // A zero column and a column scaled below the norm threshold.
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t m = 2 + rng.uniformInt(100);
        const std::size_t n =
            1 + rng.uniformInt(std::min<std::size_t>(m, 20));
        Matrix a = randomMatrix(rng, m, n);
        const std::size_t c = rng.uniformInt(n);
        for (std::size_t i = 0; i < m; ++i)
            a(i, c) *= trial % 2 == 0 ? 0.0 : 1e-14;
        const bool ok = expectSameQr(a, randomVector(rng, m));
        (ok ? solved : failed) += 1;
    }
    EXPECT_GT(solved, 400u);
    EXPECT_GT(failed, 80u);
}

} // namespace
