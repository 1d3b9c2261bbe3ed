/**
 * @file
 * Linear algebra solvers: Cholesky factorization, Householder QR and
 * least-squares with ridge fallback. These back the RBF output-weight
 * fit and the linear baseline model.
 */

#ifndef PPM_MATH_LINALG_HH
#define PPM_MATH_LINALG_HH

#include <optional>

#include "math/matrix.hh"

namespace ppm::math {

/**
 * Cholesky factor of a symmetric positive definite matrix.
 *
 * @param a Symmetric matrix; only the lower triangle is read.
 * @return Lower-triangular L with a = L * L^T, or std::nullopt if @p a is
 *         not (numerically) positive definite.
 */
std::optional<Matrix> cholesky(const Matrix &a);

/**
 * Solve a * x = b for symmetric positive definite @p a via Cholesky.
 *
 * @return Solution x, or std::nullopt if @p a is not positive definite.
 */
std::optional<Vector> choleskySolve(const Matrix &a, const Vector &b);

/**
 * Result of a least-squares fit.
 */
struct LeastSquaresResult
{
    /** Fitted coefficients; size equals the design matrix column count. */
    Vector coefficients;
    /** Sum of squared residuals ||y - A x||^2 on the training data. */
    double residual_sum_squares = 0.0;
    /** True iff the normal equations needed ridge regularization. */
    bool regularized = false;
};

/**
 * Minimize ||a * x - y||^2.
 *
 * Uses Householder QR for numerical robustness. If the design matrix is
 * (numerically) rank deficient, retries on the normal equations with a
 * small ridge term so model construction degrades gracefully rather than
 * failing when two candidate RBF centers nearly coincide.
 *
 * @param a Design matrix, rows >= cols.
 * @param y Observations, y.size() == a.rows().
 * @param ridge Ridge penalty to apply on the fallback path.
 */
LeastSquaresResult leastSquares(const Matrix &a, const Vector &y,
                                double ridge = 1e-8);

/**
 * Householder QR solve of the overdetermined system a * x ~= y.
 *
 * @return Coefficients, or std::nullopt when a diagonal element of R
 *         underflows (rank deficiency).
 */
std::optional<Vector> qrSolve(const Matrix &a, const Vector &y);

/**
 * Solve the ridge-regularized normal equations
 * (A^T A + ridge * I) x = A^T y.
 */
Vector ridgeSolve(const Matrix &a, const Vector &y, double ridge);

} // namespace ppm::math

#endif // PPM_MATH_LINALG_HH
