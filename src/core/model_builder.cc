#include "core/model_builder.hh"

#include <stdexcept>

#include "linreg/model_selection.hh"
#include "obs/trace_context.hh"
#include "sampling/discrepancy.hh"
#include "sampling/sample_gen.hh"

namespace ppm::core {

ModelBuilder::ModelBuilder(dspace::DesignSpace train_space,
                           dspace::DesignSpace test_space,
                           CpiOracle &oracle)
    : train_space_(std::move(train_space)),
      test_space_(std::move(test_space)), oracle_(oracle)
{
}

BuildResult
ModelBuilder::build(const BuildOptions &options)
{
    if (options.sample_sizes.empty())
        throw std::invalid_argument("BuildOptions: empty size schedule");
    for (int size : options.sample_sizes)
        if (size < 10)
            throw std::invalid_argument(
                "BuildOptions: sample sizes must be >= 10");
    if (options.num_test_points < 1)
        throw std::invalid_argument(
            "BuildOptions: need at least one test point");

    // One trace per build: every simulation, lookup and grid cell
    // below (on any pool thread) joins it when sampled.
    obs::TraceRoot trace_root("core.build");
    const std::uint64_t evals_before = oracle_.evaluations();
    math::Rng rng(options.seed);

    // Step 5 preparation: a fixed, independently generated random test
    // set, simulated once (paper Sec 3).
    math::Rng test_rng = rng.split();
    test_points_ = sampling::randomTestSet(
        test_space_, options.num_test_points, test_rng);
    test_responses_ = oracle_.evaluateAll(test_points_);

    BuildResult result;
    for (int size : options.sample_sizes) {
        SizeResult step;
        step.sample_size = size;

        // Step 2: select the simulation sample.
        std::vector<dspace::DesignPoint> sample;
        if (options.use_random_sampling) {
            sample = sampling::randomSample(train_space_, size, rng);
            step.discrepancy = sampling::centeredL2Discrepancy(
                sampling::toUnitSample(train_space_, sample));
        } else {
            sampling::OptimizedSample best = sampling::bestLatinHypercube(
                train_space_, size, options.lhs_candidates, rng);
            sample = std::move(best.points);
            step.discrepancy = best.discrepancy;
        }

        // Step 3: detailed simulation at the sample.
        const std::vector<double> responses = oracle_.evaluateAll(sample);

        // Step 4: fit the RBF network.
        std::vector<dspace::UnitPoint> unit;
        unit.reserve(sample.size());
        for (const auto &p : sample)
            unit.push_back(train_space_.toUnit(p));
        rbf::TrainedRbf trained =
            rbf::trainRbfModel(unit, responses, options.trainer);
        step.p_min = trained.p_min;
        step.alpha = trained.alpha;
        step.num_centers = trained.num_centers;

        auto model = std::make_shared<RbfPerformanceModel>(
            train_space_, std::move(trained));

        // Step 5: estimate accuracy on the held-out test set.
        step.rbf_error =
            evaluateModel(*model, test_points_, test_responses_);

        if (options.fit_linear_baseline) {
            linreg::SelectedLinearModel lin =
                linreg::fitSelectedLinearModel(unit, responses);
            auto linear = std::make_shared<LinearPerformanceModel>(
                train_space_, std::move(lin));
            step.linear_error =
                evaluateModel(*linear, test_points_, test_responses_);
            result.linear_model = std::move(linear);
        }

        result.model = std::move(model);
        result.history.push_back(std::move(step));

        // Step 6: grow the sample until accurate enough.
        if (result.history.back().rbf_error.mean_error <=
            options.target_mean_error) {
            result.converged = true;
            break;
        }
    }

    result.simulations = oracle_.evaluations() - evals_before;
    return result;
}

} // namespace ppm::core
