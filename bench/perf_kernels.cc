/**
 * @file
 * Throughput microbenchmarks (google-benchmark) for the library's
 * computational kernels: trace generation, cycle-level simulation,
 * LHS + discrepancy scoring, regression-tree construction, RBF
 * training and prediction. These quantify the central cost claim of
 * the paper: once built, model evaluation is orders of magnitude
 * cheaper than simulation.
 */

#include <benchmark/benchmark.h>

#include <map>

#include <unistd.h>

#include "bench_util.hh"
#include "cache/result_cache.hh"
#include "core/evaluator.hh"
#include "core/oracle.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "rbf/incremental.hh"
#include "rbf/rbf_batch.hh"
#include "rbf/train_kernels.hh"
#include "sampling/batch_acquisition.hh"
#include "train/online_trainer.hh"
#include "sampling/discrepancy.hh"
#include "sampling/sample_gen.hh"
#include "serve/model_snapshot.hh"
#include "serve/predict_oracle.hh"
#include "serve/remote_oracle.hh"
#include "serve/sim_server.hh"
#include "sim/simulator.hh"
#include "tree/regression_tree.hh"
#include "util/thread_pool.hh"

// Defined in obs_noop.cc, which is compiled with PPM_OBS_DISABLED: the
// same OBS_* macro site shape with every macro expanded to nothing.
namespace bench_noop {
std::uint64_t instrumentedSite(std::uint64_t x);
}

using namespace ppm;

namespace {

/**
 * Simulator ledger context: ppm's own build type (the context's
 * library_build_type is google-benchmark's), the compiler and nproc.
 */
const bool kHostContext = [] {
    benchmark::AddCustomContext("ppm_build_type", PPM_BUILD_TYPE);
    benchmark::AddCustomContext("ppm_compiler", PPM_COMPILER);
    benchmark::AddCustomContext(
        "nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
    return true;
}();

void
BM_TraceGeneration(benchmark::State &state)
{
    const auto &profile = trace::profileByName("vortex");
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        auto t = trace::generateTrace(profile, n);
        benchmark::DoNotOptimize(t.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TraceGeneration)->Arg(10000)->Arg(50000);

/**
 * The simulator ledger: one row per Table 3 program, each iteration
 * simulating the program's 100K-instruction trace (15K warmup, the
 * Table 3 scale) at the same 16 random Table 1 points. Like a
 * SimulatorOracle, each iteration computes the trace's facts once and
 * shares them across its 16 simulations.
 * items_per_second is simulated instructions per second.
 */
void
BM_CycleSimulation(benchmark::State &state)
{
    constexpr std::size_t kTraceLength = 100000;
    static const std::vector<sim::ProcessorConfig> configs = [] {
        const auto space = dspace::paperTrainSpace();
        math::Rng rng(2006);
        std::vector<sim::ProcessorConfig> out;
        for (int i = 0; i < 16; ++i) {
            out.push_back(sim::ProcessorConfig::fromDesignPoint(
                space, space.randomPoint(rng)));
        }
        return out;
    }();
    const std::string name =
        trace::profileNames()[static_cast<std::size_t>(state.range(0))];
    const auto t =
        trace::generateTrace(trace::profileByName(name), kTraceLength);
    sim::SimOptions opts;
    opts.warmup_instructions = 15000;
    for (auto _ : state) {
        const sim::TraceFacts facts(t, configs.front());
        for (const auto &cfg : configs) {
            auto stats = sim::simulate(t, facts, cfg, opts);
            benchmark::DoNotOptimize(stats.cycles);
        }
    }
    state.SetLabel(name);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(configs.size() * t.size()));
}
BENCHMARK(BM_CycleSimulation)
    ->ArgNames({"program"})->DenseRange(0, 7)
    ->Unit(benchmark::kMillisecond);

void
BM_LhsBestOf(benchmark::State &state)
{
    auto space = dspace::paperTrainSpace();
    math::Rng rng(1);
    const int size = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto s = sampling::bestLatinHypercube(space, size, 10, rng);
        benchmark::DoNotOptimize(s.discrepancy);
    }
}
BENCHMARK(BM_LhsBestOf)->Arg(50)->Arg(200);

void
BM_Discrepancy(benchmark::State &state)
{
    auto space = dspace::paperTrainSpace();
    math::Rng rng(2);
    auto sample = sampling::latinHypercubeSample(
        space, static_cast<int>(state.range(0)), rng);
    auto unit = sampling::toUnitSample(space, sample);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sampling::centeredL2Discrepancy(unit));
    }
}
BENCHMARK(BM_Discrepancy)->Arg(90)->Arg(300);

struct FitData
{
    std::vector<dspace::UnitPoint> xs;
    std::vector<double> ys;
};

FitData
fitData(std::size_t n)
{
    math::Rng rng(3);
    FitData d;
    for (std::size_t i = 0; i < n; ++i) {
        dspace::UnitPoint x(9);
        for (auto &v : x)
            v = rng.uniform();
        d.xs.push_back(x);
        d.ys.push_back(1.0 + x[0] + 2.0 * x[1] * x[4] +
                       1.0 / (0.2 + x[5]));
    }
    return d;
}

void
BM_TreeConstruction(benchmark::State &state)
{
    const auto d = fitData(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        tree::RegressionTree t(d.xs, d.ys, 1);
        benchmark::DoNotOptimize(t.nodeCount());
    }
}
BENCHMARK(BM_TreeConstruction)->Arg(90)->Arg(200);

void
BM_RbfTraining(benchmark::State &state)
{
    const auto d = fitData(static_cast<std::size_t>(state.range(0)));
    auto opts = bench::benchTrainerOptions();
    for (auto _ : state) {
        auto model = rbf::trainRbfModel(d.xs, d.ys, opts);
        benchmark::DoNotOptimize(model.num_centers);
    }
}
BENCHMARK(BM_RbfTraining)->Unit(benchmark::kMillisecond)
    ->Arg(50)->Arg(90)->Arg(200);

/**
 * Training on the library's default grid (p_min {1, 2, 4} x alpha
 * {2, 4, ..., 12}), the grid ppm_publish trains: three p_min rows share
 * each alpha's candidate Gram.
 */
void
BM_RbfTrainingDefaultGrid(benchmark::State &state)
{
    const auto d = fitData(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        auto model = rbf::trainRbfModel(d.xs, d.ys);
        benchmark::DoNotOptimize(model.num_centers);
    }
}
BENCHMARK(BM_RbfTrainingDefaultGrid)->Unit(benchmark::kMillisecond)
    ->Arg(200);

/**
 * The training kernels per tier (arg: rbf::SimdKind, 0 scalar, 1 AVX2,
 * 3 AVX-512; an unsupported tier is skipped). Gram: one 200-point
 * design block of 399 candidates (the p_min = 1 tree of a 200-point
 * sample) into a packed lower Gram. Residual: 100 centers' columns
 * over 200 points (AVX-512 runs the AVX2 residual tile).
 */
bool
simdTierSupported(benchmark::State &state, rbf::SimdKind kind)
{
    const rbf::SimdKind cpu = rbf::detectSimd();
    const bool ok = kind == rbf::SimdKind::Scalar || kind == cpu ||
                    (kind == rbf::SimdKind::Avx2 &&
                     cpu == rbf::SimdKind::Avx512);
    if (!ok)
        state.SkipWithError("tier not supported here");
    else
        state.SetLabel(rbf::simdKindName(kind));
    return ok;
}

void
BM_GramKernel(benchmark::State &state)
{
    const auto kind = static_cast<rbf::SimdKind>(state.range(0));
    if (!simdTierSupported(state, kind))
        return;
    constexpr std::size_t n = 399, rows = 200;
    math::Rng rng(5);
    std::vector<double> h(rows * n);
    for (double &v : h)
        v = rng.uniform() < 0.3 ? 0.0 : rng.uniform();
    std::vector<double> g(rbf::packedRow(n));
    for (auto _ : state) {
        std::fill(g.begin(), g.end(), 0.0);
        rbf::gramAccumulate(kind, h.data(), rows, n, g.data());
        benchmark::DoNotOptimize(g.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_GramKernel)->ArgNames({"tier"})->Arg(0)->Arg(1)->Arg(3)
    ->Unit(benchmark::kMicrosecond);

void
BM_ResidualKernel(benchmark::State &state)
{
    const auto kind = static_cast<rbf::SimdKind>(state.range(0));
    if (!simdTierSupported(state, kind))
        return;
    constexpr std::size_t m = 100, p = 200;
    math::Rng rng(6);
    std::vector<double> data(m * p), w(m), pred(p);
    for (double &v : data)
        v = rng.uniform();
    for (double &v : w)
        v = rng.gaussian();
    std::vector<const double *> cols(m);
    for (std::size_t j = 0; j < m; ++j)
        cols[j] = data.data() + j * p;
    for (auto _ : state) {
        rbf::residualPredict(kind, cols.data(), w.data(), m, p,
                             pred.data());
        benchmark::DoNotOptimize(pred.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_ResidualKernel)->ArgNames({"tier"})->Arg(0)->Arg(1)->Arg(3)
    ->Unit(benchmark::kMicrosecond);

/**
 * The headline parallel-engine benchmark: a 200-point oracle batch
 * (the paper's largest sample size) swept over pool sizes. Argument =
 * thread count; compare threads=1 vs threads=N wall clock for the
 * parallel speedup. A fresh oracle per iteration keeps every
 * simulation uncached.
 */
void
BM_OracleBatch200(benchmark::State &state)
{
    const auto threads = static_cast<unsigned>(state.range(0));
    util::setGlobalThreads(threads);
    static const trace::Trace tr =
        trace::generateTrace(trace::profileByName("mcf"), 4000);
    auto space = dspace::paperTrainSpace();
    math::Rng rng(5);
    std::vector<dspace::DesignPoint> points;
    for (int i = 0; i < 200; ++i)
        points.push_back(space.randomPoint(rng));
    sim::SimOptions opts;
    opts.warmup_instructions = 0;
    for (auto _ : state) {
        core::SimulatorOracle oracle(space, tr, opts);
        auto ys = oracle.evaluateAll(points);
        benchmark::DoNotOptimize(ys.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 200);
    util::setGlobalThreads(0);
}
BENCHMARK(BM_OracleBatch200)->Unit(benchmark::kMillisecond)
    ->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/**
 * The same 200-point batch served through the sharded simulation
 * service: an in-process SimServer (argument = worker count) with a
 * RemoteOracle client, versus BM_OracleBatch200's local oracle for
 * the protocol + socket overhead. Fresh random points every iteration
 * keep the server's memo cache cold.
 */
void
BM_OracleBatchSharded(benchmark::State &state)
{
    const auto workers = static_cast<unsigned>(state.range(0));
    util::setGlobalThreads(workers);
    static const trace::Trace tr =
        trace::generateTrace(trace::profileByName("mcf"), 4000);
    auto space = dspace::paperTrainSpace();
    sim::SimOptions opts;
    opts.warmup_instructions = 0;

    serve::ServerOptions server_opts;
    server_opts.socket_path = "/tmp/ppm_bench_" +
                              std::to_string(::getpid()) + ".sock";
    server_opts.num_workers = workers;
    serve::SimServer server(server_opts);
    server.start();

    serve::RemoteOptions remote_opts;
    remote_opts.sockets = {server_opts.socket_path};
    remote_opts.chunk_points = 8;
    remote_opts.max_connections = workers;

    std::uint64_t round = 0;
    for (auto _ : state) {
        state.PauseTiming();
        math::Rng rng = math::Rng::stream(5, round++);
        std::vector<dspace::DesignPoint> points;
        for (int i = 0; i < 200; ++i)
            points.push_back(space.randomPoint(rng));
        serve::RemoteOracle oracle(space, "mcf", tr, opts,
                                   core::Metric::Cpi, remote_opts);
        state.ResumeTiming();
        auto ys = oracle.evaluateAll(points);
        benchmark::DoNotOptimize(ys.data());
    }
    server.stop();
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 200);
    util::setGlobalThreads(0);
}
BENCHMARK(BM_OracleBatchSharded)->Unit(benchmark::kMillisecond)
    ->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/**
 * A PREDICT batch served end to end through the prediction plane
 * (argument = batch size): PredictOracle -> Unix socket -> SimServer
 * hosting a snapshot -> predictWithSnapshot -> response. Against
 * BM_RbfPrediction (the bare in-process kernel) this quantifies the
 * serving overhead — framing, CRC, syscalls — and how the batch size
 * amortizes it, which is the number that justifies shipping model
 * snapshots to a server instead of shipping simulators.
 */
void
BM_PredictServe(benchmark::State &state)
{
    const auto batch_size = static_cast<int>(state.range(0));
    auto space = dspace::paperTrainSpace();
    static const serve::ModelSnapshot snap = [] {
        const auto sp = dspace::paperTrainSpace();
        math::Rng rng(23);
        std::vector<rbf::GaussianBasis> bases;
        std::vector<double> weights;
        for (int b = 0; b < 32; ++b) {
            dspace::UnitPoint center(sp.size());
            std::vector<double> radius(sp.size());
            for (std::size_t d = 0; d < sp.size(); ++d) {
                center[d] = rng.uniform();
                radius[d] = 0.2 + rng.uniform();
            }
            bases.emplace_back(std::move(center), std::move(radius));
            weights.push_back(rng.uniform() * 4 - 2);
        }
        serve::ModelSnapshot s;
        s.model_version = 1;
        s.benchmark = "twolf";
        s.trace_length = 100000;
        s.train_points = 30;
        s.p_min = 2;
        s.alpha = 1.5;
        s.space = sp;
        s.network =
            rbf::RbfNetwork(std::move(bases), std::move(weights));
        return s;
    }();

    const std::string path = "/tmp/ppm_bench_" +
                             std::to_string(::getpid()) + ".ppmm";
    serve::saveSnapshot(snap, path);
    serve::ServerOptions server_opts;
    server_opts.socket_path = "/tmp/ppm_bench_predict_" +
                              std::to_string(::getpid()) + ".sock";
    server_opts.num_workers = 2;
    server_opts.predict_snapshot = path;
    serve::SimServer server(server_opts);
    server.start();

    serve::RemoteOptions remote_opts;
    remote_opts.sockets = {server_opts.socket_path};
    remote_opts.chunk_points = 64;
    remote_opts.max_connections = 2;
    serve::PredictOracle oracle(snap, remote_opts);

    math::Rng rng(31);
    std::vector<dspace::DesignPoint> points;
    for (int i = 0; i < batch_size; ++i)
        points.push_back(space.randomPoint(rng));

    for (auto _ : state) {
        auto ys = oracle.evaluateAll(points);
        benchmark::DoNotOptimize(ys.data());
    }
    server.stop();
    ::unlink(path.c_str());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * batch_size);
}
BENCHMARK(BM_PredictServe)->Unit(benchmark::kMicrosecond)
    ->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->UseRealTime();

/** (p_min, alpha) grid training under the same thread sweep. */
void
BM_RbfTrainingThreads(benchmark::State &state)
{
    const auto d = fitData(90);
    auto opts = bench::benchTrainerOptions();
    util::setGlobalThreads(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        auto model = rbf::trainRbfModel(d.xs, d.ys, opts);
        benchmark::DoNotOptimize(model.num_centers);
    }
    util::setGlobalThreads(0);
}
BENCHMARK(BM_RbfTrainingThreads)->Unit(benchmark::kMillisecond)
    ->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/**
 * One adaptive infill acquisition round over a 2000-candidate pool
 * against a 90-point sample: sequential (arg0 = 0, one scoring pass
 * per pick) vs determinantal (arg0 = 1, one scoring pass per round,
 * joint greedy max-determinant selection), batch sizes 1/4/16.
 * Sequential cost grows linearly in the batch size; determinantal
 * stays one pass plus the cheap rank-1-update selection.
 */
void
BM_AdaptiveAcquisition(benchmark::State &state)
{
    const auto strategy = state.range(0) == 0
        ? sampling::BatchStrategy::Sequential
        : sampling::BatchStrategy::Determinantal;
    const int batch = static_cast<int>(state.range(1));
    auto space = dspace::paperTrainSpace();
    const auto d = fitData(90);
    const tree::RegressionTree tree(d.xs, d.ys, 8);
    const sampling::VariabilityFn variability =
        [&tree](const dspace::UnitPoint &x) { return tree.leafStd(x); };
    sampling::BatchAcquisitionOptions opts;
    opts.batch_size = batch;
    opts.candidate_pool = 2000;
    for (auto _ : state) {
        math::Rng rng(7);
        auto picked = sampling::acquireBatch(strategy, space, d.xs,
                                             variability, opts, rng);
        benchmark::DoNotOptimize(picked.points.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_AdaptiveAcquisition)->Unit(benchmark::kMillisecond)
    ->ArgNames({"strategy", "batch"})
    ->Args({0, 1})->Args({0, 4})->Args({0, 16})
    ->Args({1, 1})->Args({1, 4})->Args({1, 16});

/**
 * Continuous-training cost at archive scale: folding ONE fresh point
 * into the streaming normal-equation state (rank-1 Cholesky update +
 * two triangular solves, O(m^2) independent of the archive size)
 * versus the full trainRbfModel() pass (new tree, new subset
 * selection, fresh grid search over the whole archive) the online
 * trainer falls back to on its growth/error triggers. arg = archive
 * size n; both benchmarks share the same archive and, on the grid:n
 * rows, the same capacity-capped onlineRefitOptions(n). The committed
 * bench_results/BENCH_online.json ratio at n = 4096 backs the >= 10x
 * steady-state claim in DESIGN.md.
 */
struct OnlineArchive
{
    FitData data;
    rbf::TrainedRbf model;
};

const OnlineArchive &
onlineArchive(std::size_t n)
{
    static std::map<std::size_t, OnlineArchive> cache;
    auto it = cache.find(n);
    if (it == cache.end()) {
        OnlineArchive a;
        a.data = fitData(n);
        a.model = rbf::trainRbfModel(a.data.xs, a.data.ys,
                                     train::onlineRefitOptions(n));
        it = cache.emplace(n, std::move(a)).first;
    }
    return it->second;
}

void
BM_OnlineIncrementalFold(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const OnlineArchive &a = onlineArchive(n);
    rbf::IncrementalFit fit(a.model.network.bases());
    for (std::size_t i = 0; i < n; ++i)
        fit.fold(a.data.xs[i], a.data.ys[i]);
    math::Rng rng(11);
    dspace::UnitPoint x(a.data.xs.front().size());
    for (auto _ : state) {
        for (auto &v : x)
            v = rng.uniform();
        fit.fold(x, 1.0 + x[0]);
        auto w = fit.solve();
        benchmark::DoNotOptimize(w.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OnlineIncrementalFold)->Unit(benchmark::kMillisecond)
    ->ArgName("archive")->Arg(1024)->Arg(4096);

/**
 * args: (archive size, grid size). onlineRefitOptions(n) grows p_min
 * with n, so the grid:4096 row retrains the 1024-point archive on the
 * 4096-point archive's grid: the two sizes on one grid.
 */
void
BM_OnlineFullRetrain(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const OnlineArchive &a = onlineArchive(n);
    const auto opts =
        train::onlineRefitOptions(static_cast<std::size_t>(state.range(1)));
    for (auto _ : state) {
        auto model = rbf::trainRbfModel(a.data.xs, a.data.ys, opts);
        benchmark::DoNotOptimize(model.num_centers);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OnlineFullRetrain)->Unit(benchmark::kMillisecond)
    ->ArgNames({"archive", "grid"})
    ->Args({1024, 1024})->Args({4096, 4096})->Args({1024, 4096});

void
BM_RbfPrediction(benchmark::State &state)
{
    const auto d = fitData(120);
    auto model = rbf::trainRbfModel(d.xs, d.ys,
                                    bench::benchTrainerOptions());
    math::Rng rng(4);
    dspace::UnitPoint x(9);
    for (auto &v : x)
        v = rng.uniform();
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.network.predict(x));
        x[0] = rng.uniform();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RbfPrediction);

/**
 * Batched inference throughput over a m=64, d=9 network — the model
 * size the paper's trainer typically lands on. args: (batch size,
 * mode) with mode 0 = the legacy scalar AoS inference loop (one
 * GaussianBasis::evaluate call per (point, basis) pair — the path
 * RbfNetwork::predict ran before BatchPlan existed, and the baseline
 * the SIMD speedup is quoted against), 1 = the BatchPlan scalar
 * reference (SoA layout, still bit-compatible std::exp semantics),
 * 2 = the runtime-dispatched SIMD kernel. The label names the kernel
 * actually run so results stay honest on machines where dispatch
 * falls back to scalar. Committed sweeps live in
 * bench_results/BENCH_rbf_simd.json.
 */
void
BM_RbfBatch(benchmark::State &state)
{
    const auto batch = static_cast<std::size_t>(state.range(0));
    const long mode = state.range(1);
    const std::size_t m = 64, dims = 9;
    math::Rng rng(9);
    std::vector<rbf::GaussianBasis> bases;
    std::vector<double> weights;
    for (std::size_t j = 0; j < m; ++j) {
        dspace::UnitPoint c(dims);
        std::vector<double> r(dims);
        for (std::size_t k = 0; k < dims; ++k) {
            c[k] = rng.uniform();
            r[k] = 0.1 + rng.uniform();
        }
        bases.emplace_back(std::move(c), std::move(r));
        weights.push_back(rng.gaussian(0.0, 2.0));
    }
    const rbf::BatchPlan plan(bases, weights,
                              mode == 2 ? rbf::activeSimd()
                                        : rbf::SimdKind::Scalar);
    std::vector<dspace::UnitPoint> xs(batch,
                                      dspace::UnitPoint(dims));
    for (auto &x : xs)
        for (auto &v : x)
            v = rng.uniform();
    if (mode == 0) {
        std::vector<double> out(batch);
        for (auto _ : state) {
            for (std::size_t i = 0; i < batch; ++i) {
                double acc = 0.0;
                for (std::size_t j = 0; j < m; ++j)
                    acc += weights[j] * bases[j].evaluate(xs[i]);
                out[i] = acc;
            }
            benchmark::DoNotOptimize(out.data());
        }
        state.SetLabel("legacy-aos");
    } else {
        for (auto _ : state) {
            auto out = plan.predict(xs);
            benchmark::DoNotOptimize(out.data());
        }
        state.SetLabel(mode == 1 ? "plan-scalar"
                                 : rbf::simdKindName(plan.kind()));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_RbfBatch)->ArgNames({"batch", "mode"})
    ->Args({1, 0})->Args({1, 1})->Args({1, 2})
    ->Args({16, 0})->Args({16, 1})->Args({16, 2})
    ->Args({256, 0})->Args({256, 1})->Args({256, 2})
    ->Args({4096, 0})->Args({4096, 1})->Args({4096, 2});

// --- observability overhead ------------------------------------------

/** One relaxed sharded fetch_add: the cost of a counter event. */
void
BM_ObsCounterAdd(benchmark::State &state)
{
    auto &c = obs::Registry::instance().counter("bench.counter");
    for (auto _ : state)
        c.add(1);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsCounterAdd);

/** Three relaxed adds on one shard: the cost of a histogram event. */
void
BM_ObsHistogramObserve(benchmark::State &state)
{
    auto &h = obs::Registry::instance().histogram("bench.hist");
    std::uint64_t ns = 1;
    for (auto _ : state) {
        h.observe(ns);
        ns = ns * 2862933555777941757ull + 3037000493ull;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsHistogramObserve);

/**
 * A full instrumented site with the registry compiled in: scoped span
 * (two clock reads + one histogram observe) plus a counter add —
 * exactly what a hot path like Oracle::evaluateAll pays per event.
 * Compare against BM_ObsSpanCompiledOut for the on-vs-off delta.
 */
void
BM_ObsSpan(benchmark::State &state)
{
    std::uint64_t acc = 0;
    for (auto _ : state) {
        OBS_SPAN("bench.site");
        OBS_STATIC_COUNTER(events, "bench.site.events");
        OBS_ADD(events, 1);
        acc = acc * 2654435761u + 1;
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsSpan);

/**
 * The same site shape compiled with PPM_OBS_DISABLED (obs_noop.cc):
 * every macro expands to nothing, so this measures the no-op floor.
 */
void
BM_ObsSpanCompiledOut(benchmark::State &state)
{
    std::uint64_t acc = 0;
    for (auto _ : state) {
        acc = bench_noop::instrumentedSite(acc);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsSpanCompiledOut);

/**
 * Distributed-tracing overhead at a representative propagation site:
 * a trace root, one context hand-off (what the sharded client and the
 * thread pool do per dispatch), and one nested span. The sample arg
 * is PPM_TRACE_SAMPLE: 0 is the tracing-off guard — its delta over
 * BM_ObsSpan is the cost tracing adds to an already-instrumented hot
 * path, contractually one relaxed atomic load per site — 1 records
 * every root (worst case), 128 is a production-like sampling rate.
 * Committed sweeps live in bench_results/BENCH_obs_v2.json.
 */
void
BM_TraceContextPropagate(benchmark::State &state)
{
    const auto every = static_cast<std::uint32_t>(state.range(0));
    obs::setTraceSampleEvery(every);
    obs::SpanBuffer::instance().clear();
    std::uint64_t acc = 0;
    for (auto _ : state) {
        obs::TraceRoot root("bench.trace_root");
        const obs::TraceContext ctx = obs::currentTraceContext();
        obs::ScopedTraceContext scope(ctx);
        OBS_SPAN("bench.trace_child");
        acc = acc * 2654435761u + ctx.trace_lo;
        benchmark::DoNotOptimize(acc);
    }
    obs::setTraceSampleEvery(0);
    obs::SpanBuffer::instance().clear();
    state.SetLabel(every == 0 ? "tracing-off"
                              : "sample-1-in-" +
                                    std::to_string(every));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceContextPropagate)->ArgNames({"sample"})
    ->Arg(0)->Arg(1)->Arg(128);

/**
 * ThreadPool::forEach dispatch overhead on trivial items, grain=1
 * (legacy one-index-per-claim) versus grain=0 (auto chunking,
 * ~8 chunks per worker). The work per item is a few nanoseconds, so
 * wall clock is dominated by dispatch; the "dispatch_us_mean" counter
 * reports the mean forEach latency as measured by the new
 * span.pool.forEach timer rather than by the benchmark loop.
 */
void
BM_PoolDispatch(benchmark::State &state)
{
    const auto grain = static_cast<std::size_t>(state.range(0));
    constexpr std::size_t kItems = 1 << 14;
    util::setGlobalThreads(4);
    auto &pool = util::globalPool();
    std::vector<std::uint64_t> out(kItems, 0);
    auto &span_hist =
        obs::Registry::instance().histogram("span.pool.forEach");
    span_hist.reset();
    for (auto _ : state) {
        pool.forEach(kItems, [&out](std::size_t i) {
            out[i] = i * 2654435761u + 1;
        }, grain);
        benchmark::DoNotOptimize(out.data());
    }
    const auto data = span_hist.data();
    if (data.count > 0)
        state.counters["dispatch_us_mean"] = benchmark::Counter(
            static_cast<double>(data.total_ns) /
            static_cast<double>(data.count) / 1000.0);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(kItems));
    util::setGlobalThreads(0);
}
BENCHMARK(BM_PoolDispatch)->ArgNames({"grain"})
    ->Arg(1)->Arg(0)->UseRealTime();

// --- result cache ----------------------------------------------------
//
// Per-operation cost of cache::ResultCache at a size no workload
// reaches (600K entries; a Table 3 build holds ~750). Keys mirror
// oracle keys: a context word plus the paper's 9-word fixed-point
// design point.

constexpr std::size_t kCacheBenchEntries = 600000;
constexpr std::size_t kCacheBenchKeyWords = 10;

/** Deterministic 10-word key for index @p i, written into @p key. */
void
benchKeyFor(std::uint64_t i, cache::ResultCache::Key &key)
{
    key.resize(kCacheBenchKeyWords);
    key[0] = 0;
    for (std::size_t w = 1; w < kCacheBenchKeyWords; ++w)
        key[w] = static_cast<std::int64_t>(i * w + (i >> 3));
}

cache::CacheConfig
cacheBenchConfig(std::size_t budget_bytes)
{
    cache::CacheConfig config;
    config.key_words = kCacheBenchKeyWords;
    config.budget_bytes = budget_bytes;
    return config;
}

cache::ResultCache &
prefilledResultCache()
{
    // ResultCache is neither copyable nor movable: construct in
    // place and fill once. The budget holds every entry.
    static cache::ResultCache table(cacheBenchConfig(160u << 20));
    static const bool filled = [] {
        cache::ResultCache::Key key;
        for (std::uint64_t i = 0; i < kCacheBenchEntries; ++i) {
            benchKeyFor(i, key);
            table.insert(key, static_cast<double>(i) * 0.5);
        }
        return true;
    }();
    (void)filled;
    return table;
}

/**
 * Point lookups at a controlled hit ratio (arg = hits per 100
 * probes), across reader counts.
 */
void
BM_CacheLookup(benchmark::State &state)
{
    cache::ResultCache &table = prefilledResultCache();
    const auto span =
        static_cast<std::uint64_t>(100 / state.range(0)) *
        kCacheBenchEntries;
    std::uint64_t rng = 0x9E3779B97F4A7C15ULL +
                        static_cast<std::uint64_t>(state.thread_index());
    cache::ResultCache::Key key;
    std::uint64_t hits = 0;
    for (auto _ : state) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        benchKeyFor((rng >> 24) % span, key);
        double value = 0.0;
        hits += table.lookup(key, &value);
        benchmark::DoNotOptimize(value);
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheLookup)->ArgNames({"hit_pct"})
    ->Arg(100)->Arg(50)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

/**
 * Insert throughput at eviction steady state: every insert into the
 * full table evicts through the second-chance sweep.
 */
void
BM_CacheInsert(benchmark::State &state)
{
    static cache::ResultCache table(cacheBenchConfig(8u << 20));
    std::uint64_t i =
        static_cast<std::uint64_t>(state.thread_index()) << 40;
    cache::ResultCache::Key key;
    for (auto _ : state) {
        benchKeyFor(i++, key);
        table.insert(key, static_cast<double>(i) * 0.25);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheInsert)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

} // namespace
