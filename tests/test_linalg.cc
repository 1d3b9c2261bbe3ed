/**
 * @file
 * Unit tests for the linear solvers: Cholesky, Householder QR, and the
 * least-squares front end with ridge fallback.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "math/linalg.hh"
#include "math/rng.hh"

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

} // namespace
