/**
 * @file
 * Hyperparameter search for RBF model construction.
 *
 * The paper (Sec 2.6) determines the method parameters p_min (tree leaf
 * size) and alpha (radius scale) per benchmark by choosing the values
 * that minimize AIC_c. The trainer grid-searches both, building a
 * regression tree and running subset selection for each combination.
 */

#ifndef PPM_RBF_TRAINER_HH
#define PPM_RBF_TRAINER_HH

#include <vector>

#include "dspace/design_space.hh"
#include "rbf/rbf_rt.hh"

namespace ppm::rbf {

/** Grid and strategy options for trainRbfModel(). */
struct TrainerOptions
{
    /** Candidate tree leaf sizes. */
    std::vector<int> p_min_grid = {1, 2, 4};
    /** Candidate radius scales (paper finds best alpha in 5-12). */
    std::vector<double> alpha_grid = {2, 4, 6, 8, 10, 12};
    /** Criterion for subset selection and grid choice. */
    Criterion criterion = Criterion::AICc;
    /** Subset selection strategy. */
    Selection selection = Selection::TreeOrdered;
    /** Cap on selected centers (0 = criterion-limited only). */
    std::size_t max_centers = 0;
};

/** A trained RBF model with its chosen method parameters. */
struct TrainedRbf
{
    /** The final network. */
    RbfNetwork network;
    /** Chosen tree leaf size. */
    int p_min = 0;
    /** Chosen radius scale. */
    double alpha = 0.0;
    /** Criterion value of the winning model. */
    double criterion_value = 0.0;
    /** Training SSE of the winning model. */
    double train_sse = 0.0;
    /** Number of RBF centers in the winning model (Table 4 row). */
    std::size_t num_centers = 0;
};

/** One (p_min, alpha) cell of the grid search and its fit. */
struct GridFit
{
    int p_min = 0;
    double alpha = 0.0;
    RbfRtResult fit;
};

/**
 * Fit every (p_min, alpha) cell of the grid, p_min-major in grid
 * order. Only the tree of the smallest p_min is grown; every other
 * p_min's node list is cut from it (pruneNodes()). Each alpha's
 * candidate data are built once over that finest list and shared by
 * the alpha's cells (CandidateGram), so each cell is bit-identical to
 * buildRbfFromTree() on RegressionTree(xs, ys, p_min), at any
 * PPM_THREADS.
 */
std::vector<GridFit> fitGrid(const std::vector<dspace::UnitPoint> &xs,
                             const std::vector<double> &ys,
                             const TrainerOptions &options);

/**
 * Grid-search (p_min, alpha) and return the model with the lowest
 * criterion value.
 *
 * @param xs Training inputs in unit space.
 * @param ys Training responses (CPI).
 * @param options Grid and strategy options.
 */
TrainedRbf trainRbfModel(const std::vector<dspace::UnitPoint> &xs,
                         const std::vector<double> &ys,
                         const TrainerOptions &options = {});

/**
 * Deterministic k-fold cross-validated relative error at an already
 * chosen (p_min, alpha): min(5, n / 2) folds, point i held out in fold
 * i mod k (no RNG), each fold refit with @p base on the one-cell grid.
 * A fold too small to fit leaves the estimate to the others. This is
 * the drift monitor's baseline that ppm_publish and an online refit
 * store, so equal data give equal bits.
 *
 * @return Mean |prediction - y| / max(|y|, 1e-12) over the held-out
 *         points, or 0 (unknown) with fewer than 2 folds or no fold
 *         fitted.
 */
double crossValidatedError(const std::vector<dspace::UnitPoint> &xs,
                           const std::vector<double> &ys,
                           const TrainerOptions &base, int p_min,
                           double alpha);

} // namespace ppm::rbf

#endif // PPM_RBF_TRAINER_HH
