#include "serve/oracle_factory.hh"

#include <cstdlib>
#include <filesystem>

namespace ppm::serve {

FactoryOptions
factoryOptionsFromEnv()
{
    FactoryOptions options;
    options.sockets = socketsFromEnv();
    if (const char *dir = std::getenv(kArchiveEnvVar))
        options.archive_dir = dir;
    return options;
}

std::shared_ptr<ResultArchive>
archiveFor(const std::string &dir, const std::string &benchmark,
           std::uint64_t trace_length, std::uint64_t warmup,
           core::Metric metric)
{
    std::filesystem::create_directories(dir);
    const std::string file =
        dir + "/" +
        ResultArchive::fileNameFor(benchmark, trace_length, warmup,
                                   metric);
    return std::make_shared<ResultArchive>(
        file, ResultArchive::contextFor(benchmark, trace_length, warmup,
                                        metric));
}

std::unique_ptr<core::CpiOracle>
makeOracle(const dspace::DesignSpace &space,
           const std::string &benchmark, const trace::Trace &trace,
           const sim::SimOptions &sim_options, core::Metric metric,
           const FactoryOptions &options)
{
    const auto attachArchive = [&](core::SimulatorOracle &oracle) {
        if (options.archive_dir.empty())
            return;
        oracle.attachStore(archiveFor(
            options.archive_dir, benchmark, trace.size(),
            sim_options.warmup_instructions, metric));
    };

    if (options.sockets.empty()) {
        auto oracle = std::make_unique<core::SimulatorOracle>(
            space, trace, sim_options, metric);
        attachArchive(*oracle);
        return oracle;
    }
    RemoteOptions remote = options.remote;
    remote.sockets = options.sockets;
    auto oracle = std::make_unique<RemoteOracle>(
        space, benchmark, trace, sim_options, metric,
        std::move(remote));
    attachArchive(oracle->fallbackOracle());
    return oracle;
}

std::unique_ptr<core::CpiOracle>
makeOracle(const dspace::DesignSpace &space,
           const std::string &benchmark, const trace::Trace &trace,
           const sim::SimOptions &sim_options, core::Metric metric)
{
    return makeOracle(space, benchmark, trace, sim_options, metric,
                      factoryOptionsFromEnv());
}

} // namespace ppm::serve
