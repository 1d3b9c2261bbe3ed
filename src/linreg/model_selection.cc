#include "linreg/model_selection.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "math/linalg.hh"
#include "util/thread_pool.hh"

namespace ppm::linreg {

namespace {

/** @p a without column @p drop. */
math::Matrix
withoutColumn(const math::Matrix &a, std::size_t drop)
{
    assert(drop < a.cols());
    math::Matrix out(a.rows(), a.cols() - 1);
    for (std::size_t r = 0; r < a.rows(); ++r) {
        const double *src = a.rowPtr(r);
        double *dst = out.rowPtr(r);
        std::copy(src, src + drop, dst);
        std::copy(src + drop + 1, src + a.cols(), dst + drop);
    }
    return out;
}

} // namespace

double
linearAic(std::size_t p, std::size_t m, double sse)
{
    assert(p > 0);
    if (m >= p)
        return std::numeric_limits<double>::infinity();
    const double pd = static_cast<double>(p);
    const double sigma_sq = std::max(sse / pd, 1e-12);
    return pd * std::log(sigma_sq) + 2.0 * static_cast<double>(m);
}

SelectedLinearModel
fitSelectedLinearModel(const std::vector<dspace::UnitPoint> &xs,
                       const std::vector<double> &ys,
                       const LinearSelectionOptions &options)
{
    assert(!xs.empty());
    assert(xs.size() == ys.size());
    const std::size_t dims = xs.front().size();
    const std::size_t p = xs.size();

    std::vector<Term> terms = fullTwoFactorTerms(dims);
    // Keep the system overdetermined: drop trailing interaction terms
    // when the sample is too small for the full model.
    const std::size_t max_terms = std::max<std::size_t>(
        dims + 1,
        static_cast<std::size_t>(options.sample_fraction
                                 * static_cast<double>(p)));
    if (terms.size() > max_terms)
        terms.resize(max_terms);

    // The design matrix of the current terms. Term::value is
    // deterministic, so a candidate's matrix is this one without the
    // candidate's column.
    math::Matrix a = termDesignMatrix(terms, xs);
    double best_aic = linearAic(
        p, terms.size(), math::leastSquares(a, ys).residual_sum_squares);
    std::size_t eliminated = 0;

    // Backward elimination: drop the term whose removal lowers AIC the
    // most; stop when every removal hurts.
    std::vector<double> aics;
    bool improved = true;
    while (improved && terms.size() > 1) {
        improved = false;
        // Fit the round's candidate drops on the pool, one AIC slot
        // per term, then pick the drop with a serial scan (first
        // strict minimum wins): the same model at every thread count.
        aics.assign(terms.size(), 0.0);
        util::parallelFor(terms.size(), [&](std::size_t t) {
            if (terms[t].isIntercept())
                return;
            const auto fit = math::leastSquares(withoutColumn(a, t), ys);
            aics[t] = linearAic(p, terms.size() - 1,
                                fit.residual_sum_squares);
        });
        std::size_t best_drop = terms.size();
        double round_best = best_aic;
        for (std::size_t t = 0; t < terms.size(); ++t) {
            if (terms[t].isIntercept())
                continue;
            if (aics[t] < round_best) {
                round_best = aics[t];
                best_drop = t;
            }
        }
        if (best_drop < terms.size()) {
            terms.erase(terms.begin()
                        + static_cast<std::ptrdiff_t>(best_drop));
            a = withoutColumn(a, best_drop);
            best_aic = round_best;
            ++eliminated;
            improved = true;
        }
    }

    SelectedLinearModel out;
    out.model = LinearModel(terms, xs, ys);
    out.aic = best_aic;
    out.eliminated = eliminated;
    return out;
}

} // namespace ppm::linreg
