#include "serve/remote_oracle.hh"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "obs/metrics.hh"
#include "obs/trace_span.hh"

namespace ppm::serve {

RemoteOracle::RemoteOracle(const dspace::DesignSpace &space,
                           std::string benchmark,
                           const trace::Trace &trace,
                           const sim::SimOptions &sim_options,
                           core::Metric metric, RemoteOptions options)
    : benchmark_(std::move(benchmark)), trace_(trace),
      sim_options_(sim_options), metric_(metric),
      client_(std::move(options)),
      fallback_(space, trace, sim_options, metric)
{
}

double
RemoteOracle::cpi(const dspace::DesignPoint &point)
{
    return evaluateAll({point}).front();
}

std::vector<double>
RemoteOracle::evaluateAll(
    const std::vector<dspace::DesignPoint> &points)
{
    const std::size_t n = points.size();
    std::vector<double> out(n);
    if (n == 0)
        return out;

    // Root of the distributed trace: when sampled, every chunk frame
    // (and thus every shard-side span) inherits this trace id.
    obs::TraceRoot trace_root("remote.evaluate_all");

    client_.evaluate(
        n, MsgType::EvalResponse,
        [&](std::size_t begin, std::size_t end) {
            EvalRequest req;
            req.benchmark = benchmark_;
            req.metric = metric_;
            req.trace_length = trace_.size();
            req.warmup = sim_options_.warmup_instructions;
            req.seed = client_.options().seed;
            req.points.assign(
                points.begin() + static_cast<std::ptrdiff_t>(begin),
                points.begin() + static_cast<std::ptrdiff_t>(end));
            return encodeEvalRequest(req);
        },
        [&](const Frame &f, std::size_t begin, std::size_t end) {
            const EvalResponse r = parseEvalResponse(f.payload);
            if (r.values.size() != end - begin)
                throw ProtocolError("response batch size mismatch");
            std::copy(r.values.begin(), r.values.end(),
                      out.begin() + static_cast<std::ptrdiff_t>(begin));
            remote_fresh_.fetch_add(r.fresh_evaluations,
                                    std::memory_order_relaxed);
        },
        [&](std::size_t begin, std::size_t end) {
            // Transparent fallback: simulate in-process. cpi() is
            // thread-safe, so concurrent dispatch threads fan the
            // fallback work out naturally.
            OBS_SPAN("remote.fallback_chunk");
            for (std::size_t i = begin; i < end; ++i)
                out[i] = fallback_.cpi(points[i]);
            OBS_STATIC_COUNTER(fallback_points,
                               "remote.fallback_points");
            OBS_ADD(fallback_points, end - begin);
        });
    return out;
}

std::uint64_t
RemoteOracle::evaluations() const
{
    return remote_fresh_.load(std::memory_order_relaxed) +
           fallback_.evaluations();
}

} // namespace ppm::serve
