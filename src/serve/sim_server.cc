#include "serve/sim_server.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
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

/** Connections and the listener: one worker per readiness event. */
constexpr std::uint32_t kOneShot = EPOLLIN | EPOLLONESHOT;

/** epoll_ctl(@p op) of @p fd for @p events; false on failure. */
bool
epollSet(int epoll_fd, int op, int fd, std::uint32_t events)
{
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    return ::epoll_ctl(epoll_fd, op, fd, &ev) == 0;
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
    // One interest set for every worker: the listener and each
    // connection are armed one-shot, so exactly one worker takes an
    // event; the stop pipe is level-triggered, so every worker sees
    // it.
    epoll_fd_ = FdGuard(::epoll_create1(EPOLL_CLOEXEC));
    if (!epoll_fd_.valid() ||
        !epollSet(epoll_fd_.get(), EPOLL_CTL_ADD, listen_fd_.get(),
                  kOneShot) ||
        !epollSet(epoll_fd_.get(), EPOLL_CTL_ADD, stop_pipe_[0],
                  EPOLLIN)) {
        const std::string error = std::strerror(errno);
        epoll_fd_.reset();
        listen_fd_.reset();
        ::close(stop_pipe_[0]);
        ::close(stop_pipe_[1]);
        stop_pipe_[0] = stop_pipe_[1] = -1;
        throw IoError("epoll: " + error);
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
    // Wake every worker waiting in epoll_wait (the byte stays in the
    // pipe, so the level-triggered event reaches them all)...
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
    // What is left are idle connections no worker holds.
    {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        OBS_STATIC_GAUGE(active_conns, "serve.active_connections");
        OBS_GAUGE_SUB(active_conns,
                      static_cast<std::int64_t>(conns_.size()));
        for (int fd : conns_)
            ::close(fd);
        conns_.clear();
    }
    epoll_fd_.reset();
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
    std::lock_guard<std::mutex> lock(contexts_mutex_);
    std::uint64_t total = 0;
    for (const auto &[key, context] : contexts_)
        for (const auto &oracle : context->oracles)
            total += oracle->evaluations();
    return total;
}

const SimServer::SimContext *
SimServer::findContext(const std::string &sim_key) const
{
    std::lock_guard<std::mutex> lock(contexts_mutex_);
    const auto it = contexts_.find(sim_key);
    return it != contexts_.end() ? it->second.get() : nullptr;
}

SimServer::SimContext &
SimServer::contextFor(const EvalRequest &req)
{
    const std::string key = ResultArchive::contextFor(
        req.benchmark, req.trace_length, req.warmup);
    std::lock_guard<std::mutex> lock(contexts_mutex_);
    auto it = contexts_.find(key);
    if (it != contexts_.end())
        return *it->second;

    // First request for this context: generate the trace, open the
    // archives and build all three oracles. This runs under the lock,
    // so concurrent requests cannot race to build a context twice
    // (and double-simulate). Nothing reaches the shared table before
    // every archive is open, so a failed context leaves no entries
    // under the id the next context will take.
    const auto &profile = trace::profileByName(req.benchmark);
    auto context = std::make_unique<SimContext>();
    context->trace = trace::generateTrace(
        profile, static_cast<std::size_t>(req.trace_length));
    context->id = static_cast<std::int64_t>(contexts_.size());
    std::array<std::shared_ptr<ResultArchive>, core::kMetrics.size()>
        archives;
    if (!options_.archive_dir.empty())
        for (const core::Metric metric : core::kMetrics)
            archives[core::metricIndex(metric)] =
                std::make_shared<ResultArchive>(
                    options_.archive_dir + "/" +
                        ResultArchive::fileNameFor(req.benchmark,
                                                   req.trace_length,
                                                   req.warmup, metric),
                    ResultArchive::contextFor(req.benchmark,
                                              req.trace_length,
                                              req.warmup, metric));
    sim::SimOptions sim_options;
    sim_options.warmup_instructions = req.warmup;
    for (const core::Metric metric : core::kMetrics) {
        auto oracle = std::make_unique<core::SimulatorOracle>(
            space_, context->trace, sim_options, metric);
        oracle->attachSharedCache(cache_, context->id);
        // Every oracle archives all three metrics it prices; each
        // archive is preloaded by its own metric's oracle.
        for (const core::Metric stored : core::kMetrics)
            if (const auto &archive = archives[core::metricIndex(stored)])
                oracle->attachStore(stored, archive);
        context->oracles[core::metricIndex(metric)] = std::move(oracle);
    }
    obs::logEvent(obs::LogLevel::Info, "serve", "new_context",
                  {{"context", key}});
    it = contexts_.emplace(key, std::move(context)).first;
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
    core::SimulatorOracle &oracle =
        *contextFor(req).oracles[core::metricIndex(req.metric)];
    const std::uint64_t before = oracle.evaluations();
    EvalResponse resp;
    resp.values = oracle.evaluateAll(req.points);
    resp.total_evaluations = oracle.evaluations();
    resp.fresh_evaluations = resp.total_evaluations - before;
    requests_.fetch_add(1, std::memory_order_relaxed);
    OBS_STATIC_COUNTER(requests_served, "serve.requests");
    OBS_ADD(requests_served, 1);
    obs::logEvent(obs::LogLevel::Info, "serve", "request_done",
                  {{"points", req.points.size()},
                   {"fresh", resp.fresh_evaluations}});
    return encodeEvalResponse(resp);
}

std::vector<std::uint8_t>
SimServer::handlePredict(const Frame &frame)
{
    const PredictBatch batch = parsePredictBatch(frame.payload);
    if (batch.size() == 0)
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
    OBS_ADD(predict_points, batch.size());
    PredictResponse resp;
    resp.model_version = model->model_version;
    resp.values = predictWithSnapshot(*model, batch);
    if (drift_.enabled() && batch.model == ModelKind::Rbf) {
        // Shadow-check a deterministic sample of the served values
        // against ground truth already in the shared cache, under the
        // context word the snapshot's simulation context memoizes
        // under. Before its first EvalRequest there is no truth.
        const SimContext *context =
            findContext(ResultArchive::contextFor(
                model->benchmark, model->trace_length, model->warmup));
        drift_.observeBatch(
            context ? cache_.get() : nullptr,
            context ? cache::contextWord(context->id,
                                         core::metricIndex(model->metric))
                    : 0,
            model->model_version, model->cv_error, batch.points(),
            resp.values);
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
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

bool
SimServer::serveFrame(int fd)
{
    Frame frame;
    try {
        frame = readFrame(fd, options_.io_timeout_ms);
    } catch (const IoError &) {
        return false; // EOF, timeout or reset: drop the connection
    } catch (const ProtocolError &e) {
        // Framing is lost; report once and drop the connection.
        OBS_STATIC_COUNTER(protocol_errors, "slo.errors.protocol");
        OBS_ADD(protocol_errors, 1);
        try {
            writeFrame(fd, encodeError({e.what()}),
                       options_.io_timeout_ms);
        } catch (const IoError &) {
        }
        return false;
    }

    // The requester's trace context rides the frame header: install
    // it so every span this request touches (cache, RBF kernel,
    // nested oracles) joins the distributed trace.
    obs::ScopedTraceContext trace_scope(frame.trace);
    const std::uint64_t slo_start = obs::monotonicNs();

    std::vector<std::uint8_t> reply;
    try {
        switch (frame.type) {
          case MsgType::Ping:
            reply = encodePong(parsePing(frame.payload));
            break;
          case MsgType::StatsRequest:
            (void)parseStatsRequest(frame.payload);
            reply = encodeStatsResponse(
                obs::Registry::instance().snapshot());
            break;
          case MsgType::PredictRequest:
            reply = handlePredict(frame);
            break;
          case MsgType::ModelInfoRequest:
            reply = handleModelInfo(frame);
            break;
          case MsgType::ModelPush:
            reply = handleModelPush(frame);
            break;
          case MsgType::EvalRequest:
            reply = handleRequest(frame);
            break;
          case MsgType::TraceRequest:
            reply = handleTrace(frame);
            break;
          default:
            reply = encodeError({"unexpected message type"});
            break;
        }
    } catch (const std::exception &e) {
        // Malformed payload, unknown benchmark, point outside the
        // trained space, archive failure, ... — reported to the
        // client, which falls back to local evaluation (where the
        // same error surfaces as an exception).
        obs::logEvent(obs::LogLevel::Warn, "serve", "request_failed",
                      {{"type", static_cast<unsigned>(frame.type)},
                       {"error", e.what()}});
        reply = encodeError({e.what()});
    }
    sloHistogramFor(frame.type).observe(obs::monotonicNs() - slo_start);
    if (decodeHeader(reply.data(), reply.size()).type == MsgType::Error) {
        OBS_STATIC_COUNTER(error_replies, "slo.errors.replies");
        OBS_ADD(error_replies, 1);
    }
    try {
        writeFrame(fd, reply, options_.io_timeout_ms);
    } catch (const IoError &) {
        OBS_STATIC_COUNTER(io_errors, "slo.errors.io");
        OBS_ADD(io_errors, 1);
        return false;
    }
    return true;
}

void
SimServer::acceptConnection()
{
    // Connections are non-blocking so frame I/O can enforce
    // io_timeout_ms via poll.
    const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                             SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (fd < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR &&
            errno != ECONNABORTED) {
            // EMFILE, ENFILE, ENOBUFS: the connection stays queued and
            // the listener stays readable, so re-arming at once would
            // spin. Pause first; stop() cuts the pause short.
            struct pollfd pfd = {stop_pipe_[0], POLLIN, 0};
            (void)::poll(&pfd, 1, kAcceptRetryMs);
        }
    } else {
        if (endpoint_.kind == Endpoint::Kind::Tcp)
            setTcpNoDelay(fd);
        std::lock_guard<std::mutex> lock(conns_mutex_);
        if (!epollSet(epoll_fd_.get(), EPOLL_CTL_ADD, fd, kOneShot)) {
            ::close(fd);
        } else {
            conns_.insert(fd);
            OBS_STATIC_GAUGE(active_conns, "serve.active_connections");
            OBS_GAUGE_ADD(active_conns, 1);
        }
    }
    (void)epollSet(epoll_fd_.get(), EPOLL_CTL_MOD, listen_fd_.get(),
                   kOneShot);
}

void
SimServer::releaseConnection(int fd, bool keep)
{
    // Under the lock, so whichever thread takes the connection next
    // (a worker on its next frame, or stop()) is ordered after this
    // worker's I/O on it.
    std::lock_guard<std::mutex> lock(conns_mutex_);
    if (keep && epollSet(epoll_fd_.get(), EPOLL_CTL_MOD, fd, kOneShot))
        return;
    conns_.erase(fd);
    ::close(fd); // also drops it from the epoll set
    OBS_STATIC_GAUGE(active_conns, "serve.active_connections");
    OBS_GAUGE_SUB(active_conns, 1);
}

void
SimServer::workerLoop()
{
    OBS_STATIC_GAUGE(busy_workers, "serve.busy_workers");
    while (!stopping_.load(std::memory_order_relaxed)) {
        epoll_event ev{};
        const int rc = ::epoll_wait(epoll_fd_.get(), &ev, 1, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (rc == 0)
            continue;
        const int fd = ev.data.fd;
        if (fd == stop_pipe_[0])
            break; // stop() rang the bell
        if (fd == listen_fd_.get()) {
            acceptConnection();
            continue;
        }
        // This worker owns the connection until it re-arms it, so one
        // connection's frames are served one at a time, in order.
        OBS_GAUGE_ADD(busy_workers, 1);
        const bool keep = serveFrame(fd);
        OBS_GAUGE_SUB(busy_workers, 1);
        releaseConnection(fd, keep);
    }
}

} // namespace ppm::serve
