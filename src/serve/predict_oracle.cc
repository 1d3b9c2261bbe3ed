#include "serve/predict_oracle.hh"

#include <algorithm>
#include <cstddef>
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

std::optional<PredictResponse>
PredictOracle::requestChunk(std::size_t socket_index,
                            std::span<const dspace::DesignPoint> points)
{
    const std::vector<std::uint8_t> frame =
        encodePredictRequest(model_, points);

    std::optional<PredictResponse> resp;
    std::optional<Frame> reply = client_.exchange(
        socket_index, frame, MsgType::PredictResponse,
        [&](const Frame &f) {
            PredictResponse r = parsePredictResponse(f.payload);
            if (r.values.size() != points.size())
                throw ProtocolError("response batch size mismatch");
            resp = std::move(r);
        });
    if (!reply)
        return std::nullopt;
    return resp;
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

    const std::size_t chunk = client_.options().chunk_points;
    const std::size_t num_chunks = (n + chunk - 1) / chunk;
    const std::size_t num_sockets = client_.numEndpoints();

    auto runChunk = [&](std::size_t c) {
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(n, begin + chunk);
        const auto first =
            points.begin() + static_cast<std::ptrdiff_t>(begin);
        const auto last = points.begin() + static_cast<std::ptrdiff_t>(end);
        std::optional<PredictResponse> resp;
        if (num_sockets > 0)
            resp = requestChunk(c % num_sockets, {first, last});
        if (resp) {
            std::copy(resp->values.begin(), resp->values.end(),
                      out.begin() + static_cast<std::ptrdiff_t>(begin));
            remote_points_.fetch_add(end - begin,
                                     std::memory_order_relaxed);
            // Track the newest version any shard reports; lets
            // callers notice a fleet that hot-swapped past them.
            std::uint64_t seen =
                server_version_.load(std::memory_order_relaxed);
            while (seen < resp->model_version &&
                   !server_version_.compare_exchange_weak(
                       seen, resp->model_version,
                       std::memory_order_relaxed))
                ;
            return;
        }
        OBS_SPAN("predict.fallback_chunk");
        const std::vector<double> local = predictWithSnapshot(
            snapshot_, std::vector<dspace::DesignPoint>(first, last),
            model_);
        std::copy(local.begin(), local.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(begin));
        fallback_points_.fetch_add(end - begin,
                                   std::memory_order_relaxed);
        OBS_STATIC_COUNTER(fallback_points, "predict.fallback_points");
        OBS_ADD(fallback_points, end - begin);
    };

    client_.forEachChunk(num_chunks, runChunk);
    return out;
}

std::uint64_t
PredictOracle::evaluations() const
{
    return remote_points_.load(std::memory_order_relaxed) +
           fallback_points_.load(std::memory_order_relaxed);
}

} // namespace ppm::serve
