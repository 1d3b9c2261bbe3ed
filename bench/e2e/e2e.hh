/**
 * @file
 * Shared pieces of the end-to-end benchmark harness (ppm_e2e): run
 * configuration, the metric/correctness report, the in-memory span
 * log, a minimal JSON reader and writer, and child-process handling.
 *
 * The harness drives the library only through the calls users make
 * (ModelBuilder::build, PredictOracle::evaluateAll against a spawned
 * ppm_serve) and times layers from outside, around the public call of
 * each module.
 */

#ifndef PPM_BENCH_E2E_E2E_HH
#define PPM_BENCH_E2E_E2E_HH

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ppm::e2e {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** @p t in nanoseconds of the steady clock (span timestamps). */
std::uint64_t toNs(Clock::time_point t);

/**
 * Rounds of the repeatable part of setup; setup_s reports their median
 * plus the one-off part (build_warm's fill, predict_*'s publish).
 */
constexpr int kSetupRounds = 5;

/** Problem sizes of one run: the Table 3 configuration or --smoke. */
struct Scale
{
    std::size_t trace_length = 100'000;
    std::uint64_t warmup = 15'000;
    int samples = 200;
    int test_points = 50;
    int lhs_candidates = 50;
};

/** Command-line configuration of one run. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measured time per run; every workload measures this long. */
    double seconds = 10.0;
    /** Per-layer run (--trace 1) instead of the end-to-end run. */
    bool traced = false;
    bool smoke = false;
    Scale scale;
    /** Scratch directory for snapshots, sockets and span dumps. */
    std::string work_dir = "e2e-work";
    /** Commit the harness was built from ("unknown" outside git). */
    std::string commit = "unknown";
    /** Global pool size: the host's processor count. */
    unsigned threads = 1;
};

/** One reported number. */
struct MetricValue
{
    double value = 0.0;
    std::string unit;
    /** Samples the value summarises (runs, reps, requests...). */
    std::uint64_t samples = 0;
};

/**
 * Everything one workload run reports: metrics by name, operations
 * attempted and failed, correctness failures, and free-form notes.
 */
class Report
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit, std::uint64_t samples);

    /** Record a correctness check; a failed one makes the run wrong. */
    void check(bool ok, const std::string &what);

    void note(const std::string &key, const std::string &value);
    void note(const std::string &key, double value);

    bool correct() const { return failures_.empty(); }
    const std::map<std::string, MetricValue> &metrics() const
    {
        return metrics_;
    }
    const std::vector<std::string> &failures() const { return failures_; }
    const std::map<std::string, std::string> &notes() const
    {
        return notes_;
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    std::map<std::string, MetricValue> metrics_;
    std::vector<std::string> failures_;
    std::map<std::string, std::string> notes_;
};

/**
 * Spans recorded in memory by the traced run and written as JSONL at
 * exit: name, start, end, parent span and owner (program or request).
 */
class SpanLog
{
  public:
    /** Open a span; returns its id (parent -1 = root). */
    std::int64_t open(const std::string &name, std::int64_t parent,
                      const std::string &owner);
    /** Close span @p id; returns its duration in seconds. */
    double close(std::int64_t id);

    /** Record a finished span (timed on another thread). */
    void add(const std::string &name, std::int64_t parent,
             const std::string &owner, std::uint64_t start_ns,
             std::uint64_t end_ns);

    /** Seconds covered by the direct children of span @p parent. */
    double childSeconds(std::int64_t parent) const;

    void writeJsonl(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        std::int64_t parent = -1;
        std::string owner;
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
    };
    std::vector<Span> spans_;
};

/** Time @p fn as a span of @p log when tracing (@p log non-null). */
template <typename Fn>
auto
timed(SpanLog *log, const std::string &name, std::int64_t parent,
      const std::string &owner, double &seconds, Fn &&fn)
{
    const std::int64_t id = log ? log->open(name, parent, owner) : -1;
    const Clock::time_point start = Clock::now();
    struct Closer
    {
        SpanLog *log;
        std::int64_t id;
        Clock::time_point start;
        double &seconds;
        ~Closer()
        {
            seconds = secondsSince(start);
            if (log)
                log->close(id);
        }
    } closer{log, id, start, seconds};
    return fn();
}

// --- statistics -------------------------------------------------------

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** Linear-interpolated quantile 0 <= q <= 1 of @p v. */
double quantile(std::vector<double> v, double q);

double mean(const std::vector<double> &v);

/** 64-bit FNV-1a over the bit patterns of @p values. */
std::uint64_t fnv1a(const std::vector<double> &values);

/** Equal bit patterns (the harness's notion of "the same output"). */
bool sameBits(double a, double b);
bool sameBits(const std::vector<double> &a, const std::vector<double> &b);

// --- CPU and memory ---------------------------------------------------

/** User + system CPU seconds of this process (all threads). */
double processCpuSeconds();

/** Peak resident set of this process in MiB. */
double peakRssMb();

// --- JSON -------------------------------------------------------------

/** A parsed JSON value (the subset golden.json and BENCHMARK.json use). */
struct Json
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Json> array;
    std::map<std::string, Json> object;

    /** Member @p key of an object; throws if absent. */
    const Json &at(const std::string &key) const;
    bool has(const std::string &key) const
    {
        return object.count(key) != 0;
    }
};

/** Parse a JSON document. @throws std::runtime_error on bad input. */
Json parseJson(const std::string &text);

/** Read and parse the JSON file at @p path. */
Json readJsonFile(const std::string &path);

/** Quote and escape @p s as a JSON string. */
std::string jsonString(const std::string &s);

/** Render @p v with all 17 significant digits (exact round trip). */
std::string jsonNumber(double v);

// --- child processes --------------------------------------------------

/**
 * A child process started with fork/exec. The child receives SIGTERM
 * if the harness dies; the destructor kills and reaps it.
 */
class ChildProcess
{
  public:
    explicit ChildProcess(const std::vector<std::string> &argv);
    ~ChildProcess();

    ChildProcess(const ChildProcess &) = delete;
    ChildProcess &operator=(const ChildProcess &) = delete;

    pid_t pid() const { return pid_; }

    /** Send @p signal and wait; returns the raw wait status. */
    int stop(int signal);
    /** Wait for a normal exit; returns the exit code (-1 = signal). */
    int wait();

  private:
    pid_t pid_ = -1;
};

/** CPU seconds (utime + stime) of process @p pid from /proc. */
double childCpuSeconds(pid_t pid);

/** Peak resident set (VmHWM) of process @p pid in MiB, from /proc. */
double childPeakRssMb(pid_t pid);

// --- workloads --------------------------------------------------------

/** Paths the build system baked in. */
struct Binaries
{
    std::string serve;
    std::string publish;
    std::string golden;
};

/** Run build_cold or build_warm. */
void runBuildWorkload(const RunConfig &config, const Binaries &bins,
                      Report &report, SpanLog *spans);

/**
 * golden.json for this host's SIMD tier: one cold build per program
 * at @p config's seed and scale.
 */
std::string goldenJson(const RunConfig &config);

/**
 * Run predict_point or predict_batch. With @p kill_server_at > 0 the
 * server is SIGKILLed that many seconds into the open-loop phase
 * (the smoke test's failure case).
 */
void runPredictWorkload(const RunConfig &config, const Binaries &bins,
                        Report &report, SpanLog *spans,
                        double kill_server_at = 0.0);

} // namespace ppm::e2e

#endif // PPM_BENCH_E2E_E2E_HH
