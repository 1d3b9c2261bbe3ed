#include "sim/simulator.hh"

#include "sim/ooo_core.hh"

namespace ppm::sim {

SimStats
simulate(const trace::Trace &trace, const ProcessorConfig &config,
         const SimOptions &options)
{
    return simulate(trace, TraceFacts(trace, config), config, options);
}

SimStats
simulate(const trace::Trace &trace, const TraceFacts &facts,
         const ProcessorConfig &config, const SimOptions &options)
{
    OooCore core(config, trace, facts);
    return core.run(options.warmup_instructions);
}

SimStats
simulate(const trace::Trace &trace, const dspace::DesignSpace &space,
         const dspace::DesignPoint &point, const SimOptions &options)
{
    return simulate(trace,
                    ProcessorConfig::fromDesignPoint(space, point),
                    options);
}

} // namespace ppm::sim
