#include "serve/sim_server.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "dspace/paper_space.hh"
#include "obs/event_log.hh"
#include "obs/trace_span.hh"
#include "serve/result_archive.hh"
#include "sim/simulator.hh"
#include "trace/benchmark_profile.hh"
#include "trace/trace_generator.hh"

namespace ppm::serve {

namespace {

/** Request context key: one oracle (and archive file) per value. */
std::string
contextKey(const EvalRequest &req)
{
    return ResultArchive::contextFor(req.benchmark, req.trace_length,
                                     req.warmup, req.metric);
}

} // namespace

SimServer::SimServer(ServerOptions options)
    : options_(std::move(options)), space_(dspace::paperTrainSpace())
{
    if (options_.num_workers == 0)
        options_.num_workers = 1;
    cache::CacheConfig cache_config;
    cache_config.key_words = space_.size() + 1;
    if (options_.cache_mb != 0)
        cache_config.budget_bytes = options_.cache_mb * 1024 * 1024;
    cache_ = std::make_shared<cache::ResultCache>(cache_config);
    drift_.configure(options_.drift);
}

SimServer::~SimServer()
{
    stop();
}

void
SimServer::start()
{
    if (started_)
        throw std::logic_error("SimServer already started");
    if (!options_.archive_dir.empty())
        std::filesystem::create_directories(options_.archive_dir);
    // Host the model before accepting connections, so the very first
    // PREDICT query already sees it. An unreadable preload snapshot
    // is a startup error (throws); the watched directory tolerates
    // bad files (they only count model.load_failures).
    if (!options_.predict_snapshot.empty())
        model_host_.install(loadSnapshot(options_.predict_snapshot),
                            "file:" + options_.predict_snapshot);
    if (!options_.model_dir.empty())
        model_host_.watch(options_.model_dir, options_.model_poll_ms);
    endpoint_ = parseEndpoint(options_.socket_path);
    listen_fd_ = listenEndpoint(endpoint_);
    if (endpoint_.kind == Endpoint::Kind::Tcp && endpoint_.port == 0)
        endpoint_.port = boundTcpPort(listen_fd_.get());
    if (::pipe2(stop_pipe_, O_CLOEXEC | O_NONBLOCK) < 0) {
        listen_fd_.reset();
        throw IoError(std::string("pipe2: ") + std::strerror(errno));
    }
    stopping_.store(false, std::memory_order_relaxed);
    workers_.reserve(options_.num_workers);
    for (unsigned i = 0; i < options_.num_workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    started_ = true;
}

void
SimServer::stop()
{
    model_host_.stopWatching();
    if (!started_)
        return;
    stopping_.store(true, std::memory_order_relaxed);
    // Wake workers blocked in poll() on the listening socket...
    const char byte = 1;
    (void)!::write(stop_pipe_[1], &byte, 1);
    // ...and sever in-flight connections so blocked reads see EOF.
    {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        for (int fd : conns_)
            ::shutdown(fd, SHUT_RDWR);
    }
    for (auto &worker : workers_)
        worker.join();
    workers_.clear();
    // Sibling-metric results are cached dirty; persist the ones with
    // an archive before their only copy goes away. stop() also runs
    // from the destructor, so a failing archive is logged, not thrown.
    try {
        cache_->flushDirty();
    } catch (const std::exception &e) {
        obs::logEvent(obs::LogLevel::Warn, "serve", "flush_failed",
                      {{"error", e.what()}});
    }
    listen_fd_.reset();
    ::close(stop_pipe_[0]);
    ::close(stop_pipe_[1]);
    stop_pipe_[0] = stop_pipe_[1] = -1;
    if (endpoint_.kind == Endpoint::Kind::Unix)
        ::unlink(endpoint_.path.c_str());
    started_ = false;
}

std::uint64_t
SimServer::totalEvaluations() const
{
    std::lock_guard<std::mutex> lock(backends_mutex_);
    std::uint64_t total = 0;
    for (const auto &[key, backend] : backends_)
        total += backend->oracle->evaluations();
    return total;
}

std::uint64_t
SimServer::oracleCount() const
{
    std::lock_guard<std::mutex> lock(backends_mutex_);
    return backends_.size();
}

std::int64_t
SimServer::contextIdFor(const std::string &sim_key)
{
    std::lock_guard<std::mutex> lock(backends_mutex_);
    const auto [it, inserted] = sim_context_ids_.try_emplace(
        sim_key, static_cast<std::int64_t>(sim_context_ids_.size()));
    (void)inserted;
    return it->second;
}

SimServer::Backend &
SimServer::backendFor(const EvalRequest &req)
{
    const std::string key = contextKey(req);
    std::lock_guard<std::mutex> lock(backends_mutex_);
    auto it = backends_.find(key);
    if (it != backends_.end())
        return *it->second;

    // First request for this context: generate the trace and build
    // the oracle. Generation runs under the lock — concurrent
    // requests for the same context must not race to create two
    // oracles (and double-simulate).
    const auto &profile = trace::profileByName(req.benchmark);
    auto backend = std::make_unique<Backend>();
    backend->trace = trace::generateTrace(
        profile, static_cast<std::size_t>(req.trace_length));
    sim::SimOptions sim_options;
    sim_options.warmup_instructions = req.warmup;
    backend->oracle = std::make_unique<core::SimulatorOracle>(
        space_, backend->trace, sim_options, req.metric);
    // All oracles memoize through the server's shared table; oracles
    // differing only in Metric share a context id (keyed by the
    // metric-free simulation context), so one simulation answers all
    // three metrics of its simulation context.
    const auto [ctx_it, ctx_inserted] = sim_context_ids_.try_emplace(
        ResultArchive::contextFor(req.benchmark, req.trace_length,
                                  req.warmup),
        static_cast<std::int64_t>(sim_context_ids_.size()));
    (void)ctx_inserted;
    backend->oracle->attachSharedCache(cache_, ctx_it->second);
    if (!options_.archive_dir.empty()) {
        const std::string file =
            options_.archive_dir + "/" +
            ResultArchive::fileNameFor(req.benchmark, req.trace_length,
                                       req.warmup, req.metric);
        auto archive = std::make_shared<ResultArchive>(file, key);
        // Sibling-metric entries for this context are published dirty
        // by whichever oracle simulates; evicting them spills here.
        cache_->registerSpillStore(
            cache::contextWord(ctx_it->second,
                               core::metricIndex(req.metric)),
            archive);
        backend->oracle->attachStore(std::move(archive));
    }
    it = backends_.emplace(key, std::move(backend)).first;
    if (options_.verbose)
        std::fprintf(stderr, "ppm_serve: new oracle [%s]\n",
                     key.c_str());
    return *it->second;
}

std::vector<std::uint8_t>
SimServer::handleRequest(const Frame &frame)
{
    const EvalRequest req = parseEvalRequest(frame.payload);
    if (req.points.empty())
        return encodeError({"empty point batch"});
    if (req.points.front().size() != space_.size())
        return encodeError(
            {"point dimensionality " +
             std::to_string(req.points.front().size()) +
             " does not match the paper space (" +
             std::to_string(space_.size()) + ")"});
    if (req.trace_length == 0 ||
        req.trace_length > options_.max_trace_length)
        return encodeError({"trace length out of range"});

    OBS_SPAN("serve.request");
    OBS_STATIC_COUNTER(points_served, "serve.points");
    OBS_ADD(points_served, req.points.size());
    Backend &backend = backendFor(req);
    const std::uint64_t before = backend.oracle->evaluations();
    EvalResponse resp;
    resp.values = backend.oracle->evaluateAll(req.points);
    resp.total_evaluations = backend.oracle->evaluations();
    resp.fresh_evaluations = resp.total_evaluations - before;
    requests_.fetch_add(1, std::memory_order_relaxed);
    OBS_STATIC_COUNTER(requests_served, "serve.requests");
    OBS_ADD(requests_served, 1);
    obs::logEvent(obs::LogLevel::Info, "serve", "request_done",
                  {{"points", req.points.size()},
                   {"fresh", resp.fresh_evaluations}});
    if (options_.verbose)
        std::fprintf(stderr,
                     "ppm_serve: [%s] %zu points, %llu fresh\n",
                     contextKey(req).c_str(), req.points.size(),
                     static_cast<unsigned long long>(
                         resp.fresh_evaluations));
    return encodeEvalResponse(resp);
}

std::vector<std::uint8_t>
SimServer::handlePredict(const Frame &frame)
{
    const PredictRequest req = parsePredictRequest(frame.payload);
    if (req.points.empty())
        return encodeError({"empty point batch"});
    // Pin the model for the whole batch: a concurrent hot-swap
    // cannot tear it, and the version echoed below is exactly the
    // model every value was computed with.
    const std::shared_ptr<const ModelSnapshot> model =
        model_host_.current();
    if (!model)
        return encodeError({"no model loaded"});

    OBS_SPAN("serve.predict");
    OBS_STATIC_COUNTER(predict_requests, "predict.requests");
    OBS_ADD(predict_requests, 1);
    OBS_STATIC_COUNTER(predict_points, "predict.points");
    OBS_ADD(predict_points, req.points.size());
    PredictResponse resp;
    resp.model_version = model->model_version;
    resp.values = predictWithSnapshot(*model, req.points, req.model);
    if (drift_.enabled() && req.model == ModelKind::Rbf) {
        // Shadow-check a deterministic sample of the served values
        // against ground truth already in the shared cache; the
        // context word is exactly what an EvalRequest for the
        // snapshot's simulation context would memoize under.
        const std::string sim_key = ResultArchive::contextFor(
            model->benchmark, model->trace_length, model->warmup);
        drift_.observeBatch(
            *cache_,
            cache::contextWord(contextIdFor(sim_key),
                               core::metricIndex(model->metric)),
            model->model_version, model->cv_error, req.points,
            resp.values);
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (options_.verbose)
        std::fprintf(stderr,
                     "ppm_serve: predict v%llu, %zu points\n",
                     static_cast<unsigned long long>(
                         resp.model_version),
                     req.points.size());
    return encodePredictResponse(resp);
}

std::vector<std::uint8_t>
SimServer::handleModelInfo(const Frame &frame)
{
    const std::uint64_t nonce = parseModelInfoRequest(frame.payload);
    const std::shared_ptr<const ModelSnapshot> model =
        model_host_.current();
    ModelInfo info;
    if (model)
        info = describeSnapshot(*model);
    (void)nonce; // request/reply pairing is per-connection
    return encodeModelInfoResponse(info);
}

std::vector<std::uint8_t>
SimServer::handleModelPush(const Frame &frame)
{
    const std::vector<std::uint8_t> blob =
        parseModelPush(frame.payload);
    ModelPushAck ack;
    try {
        ModelSnapshot snap = decodeSnapshot(blob);
        const std::uint64_t version = snap.model_version;
        ack.accepted = model_host_.install(std::move(snap), "push");
        ack.model_version = model_host_.version();
        if (!ack.accepted)
            ack.message = "stale version " + std::to_string(version) +
                          " (active " +
                          std::to_string(ack.model_version) + ")";
    } catch (const SnapshotError &e) {
        ack.accepted = false;
        ack.model_version = model_host_.version();
        ack.message = e.what();
    }
    if (options_.verbose)
        std::fprintf(stderr, "ppm_serve: model push %s (v%llu)%s%s\n",
                     ack.accepted ? "accepted" : "rejected",
                     static_cast<unsigned long long>(
                         ack.model_version),
                     ack.message.empty() ? "" : ": ",
                     ack.message.c_str());
    return encodeModelPushAck(ack);
}

std::vector<std::uint8_t>
SimServer::handleTrace(const Frame &frame)
{
    const TraceRequest req = parseTraceRequest(frame.payload);
    TraceDump dump;
    dump.pid = static_cast<std::uint32_t>(::getpid());
    obs::SpanBuffer &buffer = obs::SpanBuffer::instance();
    std::vector<obs::SpanRecord> spans = buffer.snapshot(req.drain);
    dump.dropped = buffer.droppedCount();
    if (spans.size() > kMaxTraceSpans) {
        // Ship the newest spans; the overflow joins the drop count.
        dump.dropped += spans.size() - kMaxTraceSpans;
        spans.erase(spans.begin(),
                    spans.end() - static_cast<std::ptrdiff_t>(
                                      kMaxTraceSpans));
    }
    dump.endpoint = endpointSpec();
    dump.spans.reserve(spans.size());
    for (const obs::SpanRecord &s : spans) {
        TraceSpan out;
        out.trace_hi = s.trace_hi;
        out.trace_lo = s.trace_lo;
        out.span_id = s.span_id;
        out.parent_span_id = s.parent_span_id;
        out.name = s.name;
        out.start_unix_ns = s.start_unix_ns;
        out.dur_ns = s.dur_ns;
        out.tid = s.tid;
        dump.spans.push_back(std::move(out));
    }
    return encodeTraceResponse(dump);
}

namespace {

/** Per-frame-family SLO latency histogram (served request time). */
obs::Histogram &
sloHistogramFor(MsgType type)
{
    auto &reg = obs::Registry::instance();
    static obs::Histogram &eval = reg.histogram("slo.eval");
    static obs::Histogram &predict = reg.histogram("slo.predict");
    static obs::Histogram &stats = reg.histogram("slo.stats");
    static obs::Histogram &model = reg.histogram("slo.model");
    static obs::Histogram &other = reg.histogram("slo.other");
    switch (type) {
      case MsgType::EvalRequest:
        return eval;
      case MsgType::PredictRequest:
        return predict;
      case MsgType::StatsRequest:
        return stats;
      case MsgType::ModelInfoRequest:
      case MsgType::ModelPush:
        return model;
      default:
        return other;
    }
}

} // namespace

void
SimServer::serveConnection(int fd)
{
    while (!stopping_.load(std::memory_order_relaxed)) {
        Frame frame;
        try {
            frame = readFrame(fd, options_.io_timeout_ms);
        } catch (const IoError &) {
            break; // EOF, timeout or reset: drop the connection
        } catch (const ProtocolError &e) {
            // Framing is lost; report once and drop the connection.
            OBS_STATIC_COUNTER(protocol_errors,
                               "slo.errors.protocol");
            OBS_ADD(protocol_errors, 1);
            try {
                writeFrame(fd, encodeError({e.what()}),
                           options_.io_timeout_ms);
            } catch (const IoError &) {
            }
            break;
        }

        // The requester's trace context rides the frame header:
        // install it so every span this request touches (cache, RBF
        // kernel, nested oracles) joins the distributed trace.
        obs::ScopedTraceContext trace_scope(frame.trace);
        const std::uint64_t slo_start = obs::monotonicNs();

        std::vector<std::uint8_t> reply;
        switch (frame.type) {
          case MsgType::Ping:
            try {
                reply = encodePong(parsePing(frame.payload));
            } catch (const ProtocolError &e) {
                reply = encodeError({e.what()});
            }
            break;
          case MsgType::StatsRequest:
            try {
                (void)parseStatsRequest(frame.payload);
                reply = encodeStatsResponse(
                    obs::Registry::instance().snapshot());
            } catch (const ProtocolError &e) {
                reply = encodeError({e.what()});
            }
            break;
          case MsgType::PredictRequest:
            try {
                reply = handlePredict(frame);
            } catch (const std::exception &e) {
                // Point outside the trained space, wrong
                // dimensionality, no linear baseline, ... — the
                // client falls back to its own snapshot copy.
                if (options_.verbose)
                    std::fprintf(stderr, "ppm_serve: error: %s\n",
                                 e.what());
                reply = encodeError({e.what()});
            }
            break;
          case MsgType::ModelInfoRequest:
            try {
                reply = handleModelInfo(frame);
            } catch (const ProtocolError &e) {
                reply = encodeError({e.what()});
            }
            break;
          case MsgType::ModelPush:
            try {
                reply = handleModelPush(frame);
            } catch (const ProtocolError &e) {
                reply = encodeError({e.what()});
            }
            break;
          case MsgType::EvalRequest:
            try {
                reply = handleRequest(frame);
            } catch (const std::exception &e) {
                // Unknown benchmark, invalid configuration, archive
                // failure, ... — reported to the client, which falls
                // back to local simulation (where the same error
                // surfaces as an exception).
                if (options_.verbose)
                    std::fprintf(stderr, "ppm_serve: error: %s\n",
                                 e.what());
                reply = encodeError({e.what()});
            }
            break;
          case MsgType::TraceRequest:
            try {
                reply = handleTrace(frame);
            } catch (const ProtocolError &e) {
                reply = encodeError({e.what()});
            }
            break;
          default:
            reply = encodeError({"unexpected message type"});
            break;
        }
        sloHistogramFor(frame.type).observe(obs::monotonicNs() -
                                            slo_start);
        if (decodeHeader(reply.data(), reply.size()).type ==
            MsgType::Error) {
            OBS_STATIC_COUNTER(error_replies, "slo.errors.replies");
            OBS_ADD(error_replies, 1);
        }
        try {
            writeFrame(fd, reply, options_.io_timeout_ms);
        } catch (const IoError &) {
            OBS_STATIC_COUNTER(io_errors, "slo.errors.io");
            OBS_ADD(io_errors, 1);
            break;
        }
    }
}

void
SimServer::workerLoop()
{
    while (!stopping_.load(std::memory_order_relaxed)) {
        struct pollfd pfds[2] = {
            {listen_fd_.get(), POLLIN, 0},
            {stop_pipe_[0], POLLIN, 0},
        };
        const int rc = ::poll(pfds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (pfds[1].revents != 0)
            break; // stop() rang the bell
        if ((pfds[0].revents & POLLIN) == 0)
            continue;
        // The listening fd is non-blocking: another worker may win
        // the race for this connection. Connections are non-blocking
        // too so frame I/O can enforce io_timeout_ms via poll.
        const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                                 SOCK_CLOEXEC | SOCK_NONBLOCK);
        if (fd < 0)
            continue;
        if (endpoint_.kind == Endpoint::Kind::Tcp)
            setTcpNoDelay(fd);
        // A worker serves one connection at a time, so the number of
        // connections in conns_ is also the number of busy workers —
        // the live proxy for queue depth exported to ppm_stats.
        OBS_STATIC_GAUGE(active_conns, "serve.active_connections");
        {
            std::lock_guard<std::mutex> lock(conns_mutex_);
            conns_.insert(fd);
        }
        OBS_GAUGE_ADD(active_conns, 1);
        serveConnection(fd);
        OBS_GAUGE_SUB(active_conns, 1);
        {
            std::lock_guard<std::mutex> lock(conns_mutex_);
            conns_.erase(fd);
        }
        ::close(fd);
    }
}

} // namespace ppm::serve
