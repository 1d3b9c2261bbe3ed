/**
 * @file
 * Simulation facade: run a trace on a configuration and get CPI plus
 * component statistics. This is the "detailed, cycle accurate
 * simulation" step of the paper's model-building procedure.
 */

#ifndef PPM_SIM_SIMULATOR_HH
#define PPM_SIM_SIMULATOR_HH

#include "dspace/design_space.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/trace_facts.hh"
#include "trace/trace.hh"

namespace ppm::sim {

/** Options controlling one simulation. */
struct SimOptions
{
    /**
     * Instructions executed before statistics counting starts (warms
     * caches and predictors). Capped at half the trace.
     */
    std::uint64_t warmup_instructions = 20000;
};

/**
 * Simulate @p trace on @p config. Computes the trace's facts first;
 * to simulate one trace on many configurations, compute them once
 * and use the overload that takes them.
 *
 * @return Statistics over the measured (post-warmup) region.
 * @throws std::invalid_argument for invalid configurations.
 */
SimStats simulate(const trace::Trace &trace,
                  const ProcessorConfig &config,
                  const SimOptions &options = {});

/**
 * Simulate @p trace, whose facts are @p facts, on @p config.
 *
 * @throws std::invalid_argument for invalid configurations, or facts
 *         that do not fit @p trace and @p config's predictor geometry.
 */
SimStats simulate(const trace::Trace &trace, const TraceFacts &facts,
                  const ProcessorConfig &config,
                  const SimOptions &options = {});

/**
 * Convenience overload: configuration from a design point of the
 * paper's 9-parameter space.
 */
SimStats simulate(const trace::Trace &trace,
                  const dspace::DesignSpace &space,
                  const dspace::DesignPoint &point,
                  const SimOptions &options = {});

} // namespace ppm::sim

#endif // PPM_SIM_SIMULATOR_HH
