#include "e2e.hh"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace ppm::e2e {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t
toNs(Clock::time_point t)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
}

// --- Report -----------------------------------------------------------

void
Report::set(const std::string &name, double value, const std::string &unit,
            std::uint64_t samples)
{
    metrics_[name] = {value, unit, samples};
}

void
Report::check(bool ok, const std::string &what)
{
    if (!ok)
        failures_.push_back(what);
}

void
Report::note(const std::string &key, const std::string &value)
{
    notes_[key] = jsonString(value);
}

void
Report::note(const std::string &key, double value)
{
    notes_[key] = jsonNumber(value);
}

// --- SpanLog ----------------------------------------------------------

std::int64_t
SpanLog::open(const std::string &name, std::int64_t parent,
              const std::string &owner)
{
    spans_.push_back({name, parent, owner, toNs(Clock::now()), 0});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

double
SpanLog::close(std::int64_t id)
{
    Span &span = spans_.at(static_cast<std::size_t>(id));
    span.end_ns = toNs(Clock::now());
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

void
SpanLog::add(const std::string &name, std::int64_t parent,
             const std::string &owner, std::uint64_t start_ns,
             std::uint64_t end_ns)
{
    spans_.push_back({name, parent, owner, start_ns, end_ns});
}

double
SpanLog::childSeconds(std::int64_t parent) const
{
    std::uint64_t ns = 0;
    for (const Span &span : spans_)
        if (span.parent == parent && span.end_ns >= span.start_ns)
            ns += span.end_ns - span.start_ns;
    return static_cast<double>(ns) * 1e-9;
}

void
SpanLog::writeJsonl(const std::string &path) const
{
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\":" << i << ",\"name\":" << jsonString(s.name)
            << ",\"parent\":" << s.parent
            << ",\"owner\":" << jsonString(s.owner)
            << ",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << "}\n";
    }
}

// --- statistics -------------------------------------------------------

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

std::uint64_t
fnv1a(const std::vector<double> &values)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (double v : values) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        for (int b = 0; b < 8; ++b) {
            hash ^= (bits >> (8 * b)) & 0xffU;
            hash *= 0x100000001b3ULL;
        }
    }
    return hash;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// --- CPU and memory ---------------------------------------------------

double
processCpuSeconds()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
childCpuSeconds(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    std::getline(in, line);
    // Fields after the parenthesised command name; utime and stime
    // are fields 14 and 15 of the whole line.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
        if (i == 14)
            utime = std::stoull(field);
        if (i == 15)
            stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
}

double
childPeakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    return 0.0;
}

// --- JSON -------------------------------------------------------------

const Json &
Json::at(const std::string &key) const
{
    const auto it = object.find(key);
    if (it == object.end())
        throw std::runtime_error("JSON: missing key \"" + key + "\"");
    return it->second;
}

namespace {

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    Json
    document()
    {
        Json value = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("JSON: " + what + " at offset " +
                                 std::to_string(pos_));
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    expect(char c)
    {
        if (!consume(c))
            fail(std::string("expected '") + c + "'");
    }

    bool
    keyword(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    fail("unterminated escape");
                c = text_[pos_++];
                switch (c) {
                  case 'n':
                    c = '\n';
                    break;
                  case 't':
                    c = '\t';
                    break;
                  case '"':
                  case '\\':
                  case '/':
                    break;
                  default:
                    fail("unsupported escape");
                }
            }
            out.push_back(c);
        }
        expect('"');
        return out;
    }

    Json
    parseValue()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end");
        Json value;
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            value.kind = Json::Kind::Object;
            if (consume('}'))
                return value;
            do {
                skipSpace();
                std::string key = parseString();
                expect(':');
                value.object[key] = parseValue();
            } while (consume(','));
            expect('}');
        } else if (c == '[') {
            ++pos_;
            value.kind = Json::Kind::Array;
            if (consume(']'))
                return value;
            do {
                value.array.push_back(parseValue());
            } while (consume(','));
            expect(']');
        } else if (c == '"') {
            value.kind = Json::Kind::String;
            value.string = parseString();
        } else if (keyword("true")) {
            value.kind = Json::Kind::Bool;
            value.boolean = true;
        } else if (keyword("false")) {
            value.kind = Json::Kind::Bool;
        } else if (keyword("null")) {
            value.kind = Json::Kind::Null;
        } else {
            const char *begin = text_.c_str() + pos_;
            char *end = nullptr;
            errno = 0;
            value.number = std::strtod(begin, &end);
            if (end == begin || errno == ERANGE)
                fail("bad number");
            value.kind = Json::Kind::Number;
            pos_ += static_cast<std::size_t>(end - begin);
        }
        return value;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

Json
parseJson(const std::string &text)
{
    return JsonParser(text).document();
}

Json
readJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return parseJson(buffer.str());
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += ' ';
            else
                out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// --- child processes --------------------------------------------------

ChildProcess::ChildProcess(const std::vector<std::string> &argv)
{
    // Everything the child touches is prepared before fork(): after it
    // only async-signal-safe calls may run in a threaded parent.
    std::vector<char *> args;
    for (const std::string &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);
    const pid_t parent = getpid();

    pid_ = fork();
    if (pid_ < 0)
        throw std::runtime_error(std::string("fork: ") +
                                 std::strerror(errno));
    if (pid_ == 0) {
        prctl(PR_SET_PDEATHSIG, SIGTERM);
        if (getppid() != parent)
            _exit(127); // the harness already died
        execv(args[0], args.data());
        _exit(127);
    }
}

ChildProcess::~ChildProcess()
{
    if (pid_ > 0)
        stop(SIGKILL);
}

int
ChildProcess::stop(int signal)
{
    if (pid_ <= 0)
        return 0;
    kill(pid_, signal);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return status;
}

int
ChildProcess::wait()
{
    if (pid_ <= 0)
        return -1;
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace ppm::e2e
