/**
 * @file
 * Frozen references for the linear baseline's bit-identity tests: the
 * column-at-a-time Householder QR and the serial AIC backward
 * elimination that math::qrSolve and linreg::fitSelectedLinearModel
 * replaced. The library must reproduce them bit for bit, so keep them
 * as they are.
 */

#ifndef PPM_TESTS_REFERENCE_LINREG_HH
#define PPM_TESTS_REFERENCE_LINREG_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

#include "linreg/model_selection.hh"
#include "math/linalg.hh"

namespace ppm::test {

/** Householder QR solve, applying each reflector a column at a time. */
inline std::optional<math::Vector>
referenceQrSolve(const math::Matrix &a, const math::Vector &y)
{
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    math::Matrix r = a;
    math::Vector qty = y;
    for (std::size_t k = 0; k < n; ++k) {
        double col_norm = 0.0;
        for (std::size_t i = k; i < m; ++i)
            col_norm += r(i, k) * r(i, k);
        col_norm = std::sqrt(col_norm);
        if (col_norm < 1e-12)
            return std::nullopt;
        const double alpha = r(k, k) >= 0.0 ? -col_norm : col_norm;
        math::Vector v(m - k);
        v[0] = r(k, k) - alpha;
        for (std::size_t i = k + 1; i < m; ++i)
            v[i - k] = r(i, k);
        const double vtv = math::dot(v, v);
        if (vtv < 1e-300)
            return std::nullopt;
        const double beta = 2.0 / vtv;
        for (std::size_t c = k; c < n; ++c) {
            double s = 0.0;
            for (std::size_t i = k; i < m; ++i)
                s += v[i - k] * r(i, c);
            s *= beta;
            for (std::size_t i = k; i < m; ++i)
                r(i, c) -= s * v[i - k];
        }
        double s = 0.0;
        for (std::size_t i = k; i < m; ++i)
            s += v[i - k] * qty[i];
        s *= beta;
        for (std::size_t i = k; i < m; ++i)
            qty[i] -= s * v[i - k];
    }
    math::Vector x(n);
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

/** math::leastSquares over referenceQrSolve (same ridge fallback). */
inline math::LeastSquaresResult
referenceLeastSquares(const math::Matrix &a, const math::Vector &y)
{
    math::LeastSquaresResult res;
    auto x = referenceQrSolve(a, y);
    if (!x) {
        res.regularized = true;
        res.coefficients = math::ridgeSolve(a, y, 1e-8);
    } else {
        res.coefficients = *x;
    }
    const math::Vector fitted = a * res.coefficients;
    double rss = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
        const double e = y[i] - fitted[i];
        rss += e * e;
    }
    res.residual_sum_squares = rss;
    return res;
}

/** What the serial selection loop produced. */
struct ReferenceSelection
{
    std::vector<linreg::Term> terms;
    std::vector<double> coefficients;
    double train_sse = 0.0;
    double aic = 0.0;
    std::size_t eliminated = 0;
    /** Fits whose QR failed and fell back to the ridge solve. */
    std::size_t ridge_fits = 0;
};

/**
 * fitSelectedLinearModel as one serial loop: every candidate's design
 * matrix built from its terms, every fit through
 * referenceLeastSquares.
 */
inline ReferenceSelection
referenceSelection(const std::vector<dspace::UnitPoint> &xs,
                   const std::vector<double> &ys,
                   const linreg::LinearSelectionOptions &options = {})
{
    using linreg::Term;
    const std::size_t dims = xs.front().size();
    const std::size_t p = xs.size();
    ReferenceSelection out;
    auto fit_sse = [&](const std::vector<Term> &terms) {
        const auto fit = referenceLeastSquares(
            linreg::termDesignMatrix(terms, xs), ys);
        out.ridge_fits += fit.regularized;
        return fit.residual_sum_squares;
    };

    std::vector<Term> terms = linreg::fullTwoFactorTerms(dims);
    const std::size_t max_terms = std::max<std::size_t>(
        dims + 1,
        static_cast<std::size_t>(options.sample_fraction
                                 * static_cast<double>(p)));
    if (terms.size() > max_terms)
        terms.resize(max_terms);

    double best_aic = linreg::linearAic(p, terms.size(), fit_sse(terms));
    std::size_t eliminated = 0;
    bool improved = true;
    while (improved && terms.size() > 1) {
        improved = false;
        std::size_t best_drop = terms.size();
        double round_best = best_aic;
        for (std::size_t t = 0; t < terms.size(); ++t) {
            if (terms[t].isIntercept())
                continue;
            std::vector<Term> reduced;
            for (std::size_t u = 0; u < terms.size(); ++u)
                if (u != t)
                    reduced.push_back(terms[u]);
            const double aic =
                linreg::linearAic(p, reduced.size(), fit_sse(reduced));
            if (aic < round_best) {
                round_best = aic;
                best_drop = t;
            }
        }
        if (best_drop < terms.size()) {
            terms.erase(terms.begin()
                        + static_cast<std::ptrdiff_t>(best_drop));
            best_aic = round_best;
            ++eliminated;
            improved = true;
        }
    }

    const auto fit =
        referenceLeastSquares(linreg::termDesignMatrix(terms, xs), ys);
    out.terms = terms;
    out.coefficients = fit.coefficients;
    out.train_sse = fit.residual_sum_squares;
    out.aic = best_aic;
    out.eliminated = eliminated;
    return out;
}

} // namespace ppm::test

#endif // PPM_TESTS_REFERENCE_LINREG_HH
