#include "rbf/trainer.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>

#include "obs/trace_span.hh"
#include "tree/regression_tree.hh"
#include "util/thread_pool.hh"

namespace ppm::rbf {

namespace {

/** One (p_min, alpha) cell of the hyperparameter grid. */
struct GridCell
{
    std::size_t p_index = 0;
    std::size_t alpha_index = 0;
};

} // namespace

std::vector<GridFit>
fitGrid(const std::vector<dspace::UnitPoint> &xs,
        const std::vector<double> &ys, const TrainerOptions &options)
{
    assert(!xs.empty());
    assert(xs.size() == ys.size());
    assert(!options.p_min_grid.empty());
    assert(!options.alpha_grid.empty());

    // Phase 1: one tree, at the smallest p_min; every row of the grid
    // cuts its own node list from it.
    std::vector<tree::NodeInfo> finest;
    {
        OBS_SPAN("rbf.build_tree");
        const int p_min = *std::min_element(options.p_min_grid.begin(),
                                            options.p_min_grid.end());
        finest = tree::RegressionTree(xs, ys, p_min).nodes();
    }
    std::vector<PrunedNodes> rows;
    rows.reserve(options.p_min_grid.size());
    for (int p_min : options.p_min_grid)
        rows.push_back(pruneNodes(finest, p_min));

    // Phase 2: one candidate Gram per alpha, in parallel.
    const auto grams = util::parallelMap(
        options.alpha_grid, [&](double alpha) {
            OBS_SPAN("rbf.candidate_gram");
            return std::make_unique<const CandidateGram>(
                finest, xs, ys, alpha, RbfRtOptions{}.min_radius);
        });

    // Phase 3: select every (p_min, alpha) cell in parallel over the
    // shared, read-only Grams. Training is deterministic (no RNG), so
    // each cell's result is independent of scheduling.
    std::vector<GridCell> cells;
    cells.reserve(rows.size() * grams.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        for (std::size_t a = 0; a < grams.size(); ++a)
            cells.push_back({i, a});

    return util::parallelMap(cells, [&](const GridCell &cell) {
        OBS_SPAN("rbf.grid_cell");
        RbfRtOptions rt;
        rt.alpha = options.alpha_grid[cell.alpha_index];
        rt.criterion = options.criterion;
        rt.selection = options.selection;
        rt.max_centers = options.max_centers;
        GridFit out;
        out.p_min = options.p_min_grid[cell.p_index];
        out.alpha = rt.alpha;
        out.fit = buildRbfFromGram(*grams[cell.alpha_index],
                                   rows[cell.p_index], rt);
        return out;
    });
}

TrainedRbf
trainRbfModel(const std::vector<dspace::UnitPoint> &xs,
              const std::vector<double> &ys,
              const TrainerOptions &options)
{
    OBS_SPAN("rbf.grid_search");
    std::vector<GridFit> fits = fitGrid(xs, ys, options);

    // Serial reduction in grid order (p_min-major, then alpha)
    // reproduces the serial loop's tie-break: the first strictly
    // better cell wins.
    TrainedRbf best;
    best.criterion_value = std::numeric_limits<double>::infinity();
    for (GridFit &cell : fits) {
        if (cell.fit.criterion_value < best.criterion_value) {
            best.network = std::move(cell.fit.network);
            best.p_min = cell.p_min;
            best.alpha = cell.alpha;
            best.criterion_value = cell.fit.criterion_value;
            best.train_sse = cell.fit.train_sse;
            best.num_centers = best.network.numBases();
        }
    }

    // With a degenerate sample every candidate can score +inf; fall
    // back to the first grid point's root-only model so callers always
    // get a usable network.
    if (best.network.empty()) {
        const tree::RegressionTree tree(xs, ys,
                                        options.p_min_grid.front());
        RbfRtOptions rt;
        rt.alpha = options.alpha_grid.front();
        rt.criterion = options.criterion;
        rt.selection = options.selection;
        RbfRtResult result = buildRbfFromTree(tree, xs, ys, rt);
        best.network = std::move(result.network);
        best.p_min = options.p_min_grid.front();
        best.alpha = options.alpha_grid.front();
        best.criterion_value = result.criterion_value;
        best.train_sse = result.train_sse;
        best.num_centers = best.network.numBases();
    }
    return best;
}

double
crossValidatedError(const std::vector<dspace::UnitPoint> &xs,
                    const std::vector<double> &ys,
                    const TrainerOptions &base, int p_min, double alpha)
{
    const std::size_t folds = std::min<std::size_t>(5, xs.size() / 2);
    if (folds < 2)
        return 0.0;
    TrainerOptions fold_options = base;
    fold_options.p_min_grid = {p_min};
    fold_options.alpha_grid = {alpha};
    double err_sum = 0.0;
    std::size_t err_n = 0;
    for (std::size_t f = 0; f < folds; ++f) {
        std::vector<dspace::UnitPoint> train_xs, test_xs;
        std::vector<double> train_ys, test_ys;
        for (std::size_t i = 0; i < xs.size(); ++i) {
            if (i % folds == f) {
                test_xs.push_back(xs[i]);
                test_ys.push_back(ys[i]);
            } else {
                train_xs.push_back(xs[i]);
                train_ys.push_back(ys[i]);
            }
        }
        try {
            const TrainedRbf fold =
                trainRbfModel(train_xs, train_ys, fold_options);
            for (std::size_t i = 0; i < test_xs.size(); ++i) {
                const double pred = fold.network.predict(test_xs[i]);
                err_sum += std::abs(pred - test_ys[i]) /
                           std::max(std::abs(test_ys[i]), 1e-12);
                ++err_n;
            }
        } catch (const std::exception &) {
            // A fold too small to fit leaves the estimate to the
            // remaining folds.
        }
    }
    return err_n > 0 ? err_sum / static_cast<double>(err_n) : 0.0;
}

} // namespace ppm::rbf
