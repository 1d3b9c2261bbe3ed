/**
 * @file
 * AIC-based variable selection for the linear baseline. The paper
 * (Sec 4.2) builds the full main-effects + two-factor-interaction model
 * and then "uses variable selection based on the AIC criteria to
 * eliminate insignificant factors from the model".
 */

#ifndef PPM_LINREG_MODEL_SELECTION_HH
#define PPM_LINREG_MODEL_SELECTION_HH

#include <vector>

#include "linreg/linear_model.hh"

namespace ppm::linreg {

/** Options for fitSelectedLinearModel(). */
struct LinearSelectionOptions
{
    /**
     * When the sample is smaller than the full term count, the full
     * model is unfittable; the selector first truncates interactions
     * so that terms <= sample_fraction * p, then eliminates backward.
     */
    double sample_fraction = 0.75;
};

/** Result of AIC-driven selection. */
struct SelectedLinearModel
{
    /** The final fitted model. */
    LinearModel model;
    /** AIC of the final model. */
    double aic = 0.0;
    /** Terms eliminated from the initial model. */
    std::size_t eliminated = 0;
};

/** Classical AIC = p log(sse / p) + 2 m (constant dropped). */
double linearAic(std::size_t p, std::size_t m, double sse);

/**
 * Fit the full two-factor linear model and prune it by backward
 * elimination: repeatedly drop the term (never the intercept) whose
 * removal lowers AIC the most, until no removal improves.
 *
 * Each round fits its candidate drops on the global pool
 * (util::parallelFor) and picks the drop with a serial scan, so the
 * model is bit-identical at every PPM_THREADS.
 *
 * @param xs Training inputs (unit space).
 * @param ys Training responses.
 */
SelectedLinearModel fitSelectedLinearModel(
    const std::vector<dspace::UnitPoint> &xs,
    const std::vector<double> &ys,
    const LinearSelectionOptions &options = {});

} // namespace ppm::linreg

#endif // PPM_LINREG_MODEL_SELECTION_HH
