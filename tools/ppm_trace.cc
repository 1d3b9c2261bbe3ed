/**
 * @file
 * ppm_trace: pull per-process span buffers from running ppm_serve
 * processes (the v4 TraceRequest frame) and/or read client-side
 * PPM_SPANS_OUT JSONL dumps, merge them, and emit one Chrome trace
 * (chrome://tracing / Perfetto "Trace Event Format") showing the
 * cross-process span tree of every sampled request.
 *
 *   ppm_trace [--socket ENDPOINT[,ENDPOINT...]] [--in FILE]...
 *             [--out FILE] [--trace-id HEX] [--drain] [--timeout MS]
 *
 * Endpoints default to $PPM_SERVE_SOCKET. Each server contributes a
 * TraceDump (pid, endpoint, spans, drop count); each --in FILE
 * contributes one process's JSONL dump (the format SpanBuffer
 * writes: span lines and a drop-count trailer). Spans carry
 * wall-clock (epoch) timestamps, so merging is ordering by start
 * time — no clock negotiation. --trace-id keeps only spans of one
 * trace (32 hex digits, or any unique prefix). --drain also clears
 * the server-side buffers so the next pull starts fresh.
 *
 * Output: a JSON object ({"traceEvents": [...]}) with one complete
 * ("ph":"X") event per span, pid/tid preserved, process_name metadata
 * naming each server's endpoint, and the trace id + span/parent ids
 * in args — Perfetto groups one request's spans across every process
 * because they share "ts" ranges and args.trace. The otherData footer
 * counts the spans written and the spans every source dropped. This
 * is the repository's only Chrome-trace writer.
 *
 * Exit status: 0 with every source read, 1 when at least one endpoint
 * or file failed (the merge of the rest still writes), 2 on usage
 * errors.
 */

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace_context.hh"
#include "serve/protocol.hh"
#include "serve/remote_oracle.hh"
#include "serve/socket_io.hh"
#include "serve/transport.hh"

namespace {

using ppm::serve::TraceDump;
using ppm::serve::TraceSpan;

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--socket ENDPOINT[,ENDPOINT...]] [--in FILE]...\n"
        "          [--out FILE] [--trace-id HEX] [--drain]"
        " [--timeout MS]\n"
        "  --socket ENDPOINTS  servers to pull span buffers from\n"
        "                      (default: $PPM_SERVE_SOCKET)\n"
        "  --in FILE           merge a PPM_SPANS_OUT JSONL dump\n"
        "  --out FILE          Chrome trace destination"
        " (default: stdout)\n"
        "  --trace-id HEX      keep one trace (hex id or prefix)\n"
        "  --drain             clear server buffers after pulling\n"
        "  --timeout MS        per-endpoint connect/IO timeout"
        " (default 2000)\n",
        argv0);
}

/** Pull one server's span buffer; throws IoError/ProtocolError. */
TraceDump
pullSocket(const std::string &socket, bool drain, int timeout_ms)
{
    using namespace ppm::serve;
    TraceRequest req;
    req.nonce = 1;
    req.drain = drain;
    return parseTraceResponse(requestOnce(socket, encodeTraceRequest(req),
                                          MsgType::TraceResponse,
                                          timeout_ms)
                                  .payload);
}

/** Minimal scanner for the flat JSONL objects SpanBuffer writes. */
bool
jsonField(const std::string &line, const char *key, std::string &out)
{
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return false;
    std::size_t pos = at + needle.size();
    if (pos < line.size() && line[pos] == '"') {
        const std::size_t end = line.find('"', pos + 1);
        if (end == std::string::npos)
            return false;
        out = line.substr(pos + 1, end - pos - 1);
        return true;
    }
    std::size_t end = pos;
    while (end < line.size() && line[end] != ',' && line[end] != '}')
        ++end;
    out = line.substr(pos, end - pos);
    return true;
}

/**
 * Read a JSONL dump into one TraceDump per pid: span lines, plus the
 * `{"pid":…,"dropped_spans":N}` trailer SpanBuffer ends each dump with.
 */
std::vector<TraceDump>
readJsonl(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error(path + ": cannot open");
    std::vector<TraceDump> dumps;
    const auto dumpFor = [&](std::uint32_t pid) -> TraceDump & {
        for (TraceDump &d : dumps)
            if (d.pid == pid)
                return d;
        TraceDump &d = dumps.emplace_back();
        d.pid = pid;
        d.endpoint = path;
        return d;
    };
    std::string line;
    while (std::getline(in, line)) {
        std::string pid, dropped;
        if (!jsonField(line, "pid", pid))
            continue;
        const std::uint32_t line_pid = static_cast<std::uint32_t>(
            std::strtoul(pid.c_str(), nullptr, 10));
        if (jsonField(line, "dropped_spans", dropped)) {
            dumpFor(line_pid).dropped +=
                std::strtoull(dropped.c_str(), nullptr, 10);
            continue;
        }
        std::string trace, span, parent, name, ts, dur, tid;
        if (!jsonField(line, "trace", trace) ||
            !jsonField(line, "span", span) ||
            !jsonField(line, "name", name) ||
            !jsonField(line, "ts_ns", ts) ||
            !jsonField(line, "dur_ns", dur) || trace.size() != 32)
            continue; // not a span line
        jsonField(line, "parent", parent);
        jsonField(line, "tid", tid);
        TraceSpan s;
        s.trace_hi = std::strtoull(trace.substr(0, 16).c_str(),
                                   nullptr, 16);
        s.trace_lo = std::strtoull(trace.substr(16).c_str(), nullptr,
                                   16);
        s.span_id = std::strtoull(span.c_str(), nullptr, 16);
        s.parent_span_id = std::strtoull(parent.c_str(), nullptr, 16);
        s.name = name;
        s.start_unix_ns = std::strtoull(ts.c_str(), nullptr, 10);
        s.dur_ns = std::strtoull(dur.c_str(), nullptr, 10);
        s.tid = static_cast<std::uint32_t>(
            std::strtoul(tid.c_str(), nullptr, 10));
        dumpFor(line_pid).spans.push_back(std::move(s));
    }
    return dumps;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
            continue;
        }
        out.push_back(c);
    }
    return out;
}

/** One merged Chrome trace over every dump. */
std::string
chromeTrace(const std::vector<TraceDump> &dumps,
            const std::string &trace_filter)
{
    std::ostringstream out;
    out << "{\"traceEvents\":[";
    bool first = true;
    std::uint64_t dropped = 0;
    std::uint64_t emitted = 0;
    for (const TraceDump &dump : dumps) {
        dropped += dump.dropped;
        if (!dump.endpoint.empty()) {
            if (!first)
                out << ",";
            first = false;
            out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
                << dump.pid << ",\"tid\":0,\"args\":{\"name\":\""
                << jsonEscape(dump.endpoint) << "\"}}";
        }
        for (const TraceSpan &s : dump.spans) {
            const std::string trace_id =
                ppm::obs::traceIdHex(s.trace_hi, s.trace_lo);
            if (!trace_filter.empty() &&
                trace_id.compare(0, trace_filter.size(),
                                 trace_filter) != 0)
                continue;
            ++emitted;
            if (!first)
                out << ",";
            first = false;
            // Chrome trace "ts"/"dur" are microseconds, printed as
            // exact decimals of the integer nanoseconds: epoch times
            // need 19 significant digits.
            char fields[192];
            std::snprintf(fields, sizeof(fields),
                          "\"ts\":%" PRIu64 ".%03" PRIu64
                          ",\"dur\":%" PRIu64 ".%03" PRIu64
                          ",\"args\":{\"trace\":\"%s\","
                          "\"span\":\"%016" PRIx64
                          "\",\"parent\":\"%016" PRIx64 "\"}}",
                          s.start_unix_ns / 1000, s.start_unix_ns % 1000,
                          s.dur_ns / 1000, s.dur_ns % 1000,
                          trace_id.c_str(), s.span_id, s.parent_span_id);
            out << "{\"name\":\"" << jsonEscape(s.name)
                << "\",\"ph\":\"X\",\"pid\":" << dump.pid
                << ",\"tid\":" << s.tid << "," << fields;
        }
    }
    out << "],\"otherData\":{\"ppm_spans\":\"" << emitted
        << "\",\"ppm_dropped_spans\":\"" << dropped << "\"}}";
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> sockets = ppm::serve::socketsFromEnv();
    std::vector<std::string> inputs;
    std::string out_path;
    std::string trace_filter;
    bool drain = false;
    int timeout_ms = 2000;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--socket" && has_value) {
            sockets = ppm::serve::splitEndpointSpecs(argv[++i]);
        } else if (arg == "--in" && has_value) {
            inputs.push_back(argv[++i]);
        } else if (arg == "--out" && has_value) {
            out_path = argv[++i];
        } else if (arg == "--trace-id" && has_value) {
            trace_filter = argv[++i];
            for (char &c : trace_filter)
                c = static_cast<char>(std::tolower(
                    static_cast<unsigned char>(c)));
        } else if (arg == "--drain") {
            drain = true;
        } else if (arg == "--timeout" && has_value) {
            timeout_ms = std::atoi(argv[++i]);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n",
                         arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    std::vector<TraceDump> dumps;
    int failed = 0;
    for (const std::string &socket : sockets) {
        try {
            dumps.push_back(pullSocket(socket, drain, timeout_ms));
        } catch (const std::exception &e) {
            ++failed;
            std::fprintf(stderr, "ppm_trace: %s: %s\n",
                         socket.c_str(), e.what());
        }
    }
    for (const std::string &path : inputs) {
        try {
            std::vector<TraceDump> file = readJsonl(path);
            for (TraceDump &d : file)
                dumps.push_back(std::move(d));
        } catch (const std::exception &e) {
            ++failed;
            std::fprintf(stderr, "ppm_trace: %s\n", e.what());
        }
    }

    const std::string trace = chromeTrace(dumps, trace_filter);
    if (out_path.empty()) {
        std::fputs(trace.c_str(), stdout);
        std::fputc('\n', stdout);
    } else {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr, "ppm_trace: %s: cannot open\n",
                         out_path.c_str());
            return 2;
        }
        out << trace << "\n";
    }
    return failed == 0 ? 0 : 1;
}
