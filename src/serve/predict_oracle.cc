#include "serve/predict_oracle.hh"

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>

#include "obs/metrics.hh"
#include "obs/trace_span.hh"

namespace ppm::serve {

PredictOracle::PredictOracle(ModelSnapshot snapshot,
                             RemoteOptions options, ModelKind model)
    : snapshot_(std::move(snapshot)), model_(model),
      client_(std::move(options))
{
}

double
PredictOracle::cpi(const dspace::DesignPoint &point)
{
    return evaluateAll({point}).front();
}

std::vector<double>
PredictOracle::evaluateAll(
    const std::vector<dspace::DesignPoint> &points)
{
    const std::size_t n = points.size();
    std::vector<double> out(n);
    if (n == 0)
        return out;

    // Root of the distributed trace: when sampled, every chunk frame
    // (and thus every shard-side span) inherits this trace id.
    obs::TraceRoot trace_root("predict.evaluate_all");

    const std::span<const dspace::DesignPoint> all(points);
    client_.evaluate(
        n, MsgType::PredictResponse,
        [&](std::size_t begin, std::size_t end) {
            return encodePredictRequest(model_,
                                        all.subspan(begin, end - begin));
        },
        [&](const Frame &f, std::size_t begin, std::size_t end) {
            const PredictResponse r = parsePredictResponse(f.payload);
            if (r.values.size() != end - begin)
                throw ProtocolError("response batch size mismatch");
            std::copy(r.values.begin(), r.values.end(),
                      out.begin() + static_cast<std::ptrdiff_t>(begin));
            // Track the newest version any shard reports; lets
            // callers notice a fleet that hot-swapped past them.
            std::uint64_t seen =
                server_version_.load(std::memory_order_relaxed);
            while (seen < r.model_version &&
                   !server_version_.compare_exchange_weak(
                       seen, r.model_version, std::memory_order_relaxed))
                ;
        },
        [&](std::size_t begin, std::size_t end) {
            OBS_SPAN("predict.fallback_chunk");
            const std::vector<double> local = predictWithSnapshot(
                snapshot_,
                std::vector<dspace::DesignPoint>(
                    all.begin() + static_cast<std::ptrdiff_t>(begin),
                    all.begin() + static_cast<std::ptrdiff_t>(end)),
                model_);
            std::copy(local.begin(), local.end(),
                      out.begin() + static_cast<std::ptrdiff_t>(begin));
            OBS_STATIC_COUNTER(fallback_points,
                               "predict.fallback_points");
            OBS_ADD(fallback_points, end - begin);
        });
    return out;
}

std::uint64_t
PredictOracle::evaluations() const
{
    return client_.remotePoints() + client_.localPoints();
}

} // namespace ppm::serve
