#include "math/linalg.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>

namespace ppm::math {

std::optional<Matrix>
cholesky(const Matrix &a)
{
    assert(a.rows() == a.cols());
    const std::size_t n = a.rows();
    Matrix l(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        double diag = a(j, j);
        for (std::size_t k = 0; k < j; ++k)
            diag -= l(j, k) * l(j, k);
        if (diag <= 0.0 || !std::isfinite(diag))
            return std::nullopt;
        const double ljj = std::sqrt(diag);
        l(j, j) = ljj;
        for (std::size_t i = j + 1; i < n; ++i) {
            double acc = a(i, j);
            for (std::size_t k = 0; k < j; ++k)
                acc -= l(i, k) * l(j, k);
            l(i, j) = acc / ljj;
        }
    }
    return l;
}

std::optional<Vector>
choleskySolve(const Matrix &a, const Vector &b)
{
    assert(a.rows() == b.size());
    auto l = cholesky(a);
    if (!l)
        return std::nullopt;
    const std::size_t n = b.size();
    // Forward substitution: L z = b.
    Vector z(n);
    for (std::size_t i = 0; i < n; ++i) {
        double acc = b[i];
        for (std::size_t k = 0; k < i; ++k)
            acc -= (*l)(i, k) * z[k];
        z[i] = acc / (*l)(i, i);
    }
    // Back substitution: L^T x = z.
    Vector x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = z[ii];
        for (std::size_t k = ii + 1; k < n; ++k)
            acc -= (*l)(k, ii) * x[k];
        x[ii] = acc / (*l)(ii, ii);
    }
    return x;
}

std::optional<Vector>
qrSolve(const Matrix &a, const Vector &y)
{
    assert(a.rows() >= a.cols());
    assert(a.rows() == y.size());
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();

    // Work on copies; r becomes upper triangular, qty accumulates Q^T y.
    Matrix r = a;
    Vector qty = y;
    Vector sums(n);

    for (std::size_t k = 0; k < n; ++k) {
        // Householder reflector for column k.
        double col_norm = 0.0;
        for (std::size_t i = k; i < m; ++i)
            col_norm += r(i, k) * r(i, k);
        col_norm = std::sqrt(col_norm);
        if (col_norm < 1e-12)
            return std::nullopt;

        const double alpha = r(k, k) >= 0.0 ? -col_norm : col_norm;
        Vector v(m - k);
        v[0] = r(k, k) - alpha;
        for (std::size_t i = k + 1; i < m; ++i)
            v[i - k] = r(i, k);
        const double vtv = dot(v, v);
        if (vtv < 1e-300)
            return std::nullopt;
        const double beta = 2.0 / vtv;

        // Apply the reflector to the remaining columns of r, a row at
        // a time so the inner loops run along contiguous rows. Each
        // column's sum starts from 0.0 and adds its rows in order
        // i = k..m-1, so every element has the bits a column-at-a-time
        // loop gives it (tests/reference_linreg.hh keeps one).
        std::fill(sums.begin() + static_cast<std::ptrdiff_t>(k),
                  sums.end(), 0.0);
        for (std::size_t i = k; i < m; ++i) {
            const double vi = v[i - k];
            const double *row = r.rowPtr(i);
            for (std::size_t c = k; c < n; ++c)
                sums[c] += vi * row[c];
        }
        for (std::size_t c = k; c < n; ++c)
            sums[c] *= beta;
        for (std::size_t i = k; i < m; ++i) {
            const double vi = v[i - k];
            double *row = r.rowPtr(i);
            for (std::size_t c = k; c < n; ++c)
                row[c] -= sums[c] * vi;
        }
        // And to the right-hand side.
        double s = 0.0;
        for (std::size_t i = k; i < m; ++i)
            s += v[i - k] * qty[i];
        s *= beta;
        for (std::size_t i = k; i < m; ++i)
            qty[i] -= s * v[i - k];
    }

    // Back substitution on the triangular factor.
    Vector x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        if (std::fabs(r(ii, ii)) < 1e-12)
            return std::nullopt;
        double acc = qty[ii];
        for (std::size_t c = ii + 1; c < n; ++c)
            acc -= r(ii, c) * x[c];
        x[ii] = acc / r(ii, ii);
    }
    return x;
}

Vector
ridgeSolve(const Matrix &a, const Vector &y, double ridge)
{
    Matrix gram = a.gram();
    for (std::size_t i = 0; i < gram.rows(); ++i)
        gram(i, i) += ridge;
    Vector aty = a.transposeTimes(y);
    // Escalate the ridge until the system becomes positive definite;
    // with a nonzero ridge this terminates quickly.
    double lambda = ridge;
    for (int attempt = 0; attempt < 40; ++attempt) {
        auto x = choleskySolve(gram, aty);
        if (x)
            return *x;
        for (std::size_t i = 0; i < gram.rows(); ++i)
            gram(i, i) += lambda * 9.0;
        lambda *= 10.0;
    }
    // Unreachable for finite inputs; return zeros as a last resort.
    return Vector(a.cols(), 0.0);
}

LeastSquaresResult
leastSquares(const Matrix &a, const Vector &y, double ridge)
{
    LeastSquaresResult res;
    auto x = qrSolve(a, y);
    if (!x) {
        res.regularized = true;
        res.coefficients = ridgeSolve(a, y, ridge);
    } else {
        res.coefficients = *x;
    }
    const Vector fitted = a * res.coefficients;
    double rss = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
        const double e = y[i] - fitted[i];
        rss += e * e;
    }
    res.residual_sum_squares = rss;
    return res;
}

} // namespace ppm::math
