/**
 * @file
 * Unit tests for the out-of-order core on hand-built traces with
 * known timing, plus ProcessorConfig validation and conversion.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "dspace/paper_space.hh"
#include "sim/ooo_core.hh"
#include "sim/simulator.hh"
#include "trace_builder.hh"

namespace {

using namespace ppm;
using namespace ppm::sim;
using trace::OpClass;
using trace::TraceInstruction;
using trace::kNoReg;
using test::TraceBuilder;

/**
 * Emit `reps` iterations of a loop whose body is produced by
 * @p body(builder, iteration); the loop code re-executes the same PCs
 * so instruction fetch runs warm, as in steady-state program loops.
 */
template <typename BodyFn>
trace::Trace
loopTrace(int reps, BodyFn body)
{
    TraceBuilder b;
    const std::uint64_t head = b.pc();
    for (int r = 0; r < reps; ++r) {
        body(b, r);
        b.jump(head);
    }
    return b.take();
}

ProcessorConfig
fastConfig()
{
    ProcessorConfig cfg; // defaults are a mid-range 4-wide core
    return cfg;
}

SimStats
run(const trace::Trace &t, const ProcessorConfig &cfg)
{
    SimOptions opts;
    opts.warmup_instructions = 0;
    return simulate(t, cfg, opts);
}

TEST(Config, DefaultsValid)
{
    EXPECT_NO_THROW(fastConfig().validate());
}

TEST(Config, RejectsBadValues)
{
    auto bad = fastConfig();
    bad.rob_size = 4;
    EXPECT_THROW(bad.validate(), std::invalid_argument);

    bad = fastConfig();
    bad.iq_size = bad.rob_size + 1;
    EXPECT_THROW(bad.validate(), std::invalid_argument);

    bad = fastConfig();
    bad.l2_lat = 1; // not slower than DL1
    EXPECT_THROW(bad.validate(), std::invalid_argument);

    bad = fastConfig();
    bad.l2_size_kb = 32; // smaller than DL1
    EXPECT_THROW(bad.validate(), std::invalid_argument);

    bad = fastConfig();
    bad.line_size = 48;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(Config, FrontEndDepthDerivation)
{
    auto cfg = fastConfig();
    cfg.pipe_depth = 14;
    cfg.backend_stages = 5;
    EXPECT_EQ(cfg.frontEndDepth(), 9);
    cfg.pipe_depth = 7;
    EXPECT_EQ(cfg.frontEndDepth(), 2);
}

TEST(Config, FromDesignPointPaperLayout)
{
    auto space = dspace::paperTrainSpace();
    dspace::DesignPoint pt{14, 64, 0.5, 0.5, 1024, 12, 32, 16, 2};
    auto cfg = ProcessorConfig::fromDesignPoint(space, pt);
    EXPECT_EQ(cfg.pipe_depth, 14);
    EXPECT_EQ(cfg.rob_size, 64);
    EXPECT_EQ(cfg.iq_size, 32);
    EXPECT_EQ(cfg.lsq_size, 32);
    EXPECT_EQ(cfg.l2_size_kb, 1024);
    EXPECT_EQ(cfg.l2_lat, 12);
    EXPECT_EQ(cfg.il1_size_kb, 32);
    EXPECT_EQ(cfg.dl1_size_kb, 16);
    EXPECT_EQ(cfg.dl1_lat, 2);
}

TEST(Config, FromDesignPointFlooredQueues)
{
    auto space = dspace::paperTrainSpace();
    dspace::DesignPoint pt{14, 24, 0.25, 0.25, 1024, 12, 32, 16, 2};
    auto cfg = ProcessorConfig::fromDesignPoint(space, pt);
    EXPECT_EQ(cfg.iq_size, 8); // floor, 0.25*24 = 6 -> 8
}

TEST(Config, FromDesignPointWrongArityThrows)
{
    auto space = dspace::paperTrainSpace();
    EXPECT_THROW(
        ProcessorConfig::fromDesignPoint(space, {1, 2, 3}),
        std::invalid_argument);
}

TEST(Pipeline, IndependentAluStreamApproachesWidth)
{
    // 4-wide core, independent single-cycle ops in a warm loop:
    // CPI near 0.25 (plus the loop-closing jump overhead).
    auto t = loopTrace(80, [](TraceBuilder &b, int) {
        for (int i = 0; i < 63; ++i)
            b.op(OpClass::IntAlu,
                 static_cast<trace::RegId>(2 + (i % 50)));
    });
    auto stats = run(t, fastConfig());
    EXPECT_LT(stats.cpi(), 0.45);
    EXPECT_GE(stats.cpi(), 0.25 - 1e-9);
}

TEST(Pipeline, SerialDependencyChainIsOnePerCycle)
{
    // Every op reads the previous op's result: CPI >= 1.
    auto t = loopTrace(40, [](TraceBuilder &b, int) {
        for (int i = 0; i < 63; ++i)
            b.op(OpClass::IntAlu, 5, 5);
    });
    auto stats = run(t, fastConfig());
    EXPECT_GT(stats.cpi(), 0.90);
    EXPECT_LT(stats.cpi(), 1.3);
}

TEST(Pipeline, DivChainCostsDivLatency)
{
    // Dependent integer divides: ~20 cycles each.
    auto t = loopTrace(20, [](TraceBuilder &b, int) {
        for (int i = 0; i < 31; ++i)
            b.op(OpClass::IntDiv, 5, 5);
    });
    auto stats = run(t, fastConfig());
    EXPECT_GT(stats.cpi(), 17.0);
    EXPECT_LT(stats.cpi(), 23.0);
}

TEST(Pipeline, LoadUseLatencyVisible)
{
    // Dependent load chain to one hot line: dl1_lat per load plus
    // issue overheads; raising dl1_lat must raise CPI by ~delta.
    auto mk = [] {
        return loopTrace(30, [](TraceBuilder &b, int) {
            for (int i = 0; i < 50; ++i)
                b.op(OpClass::Load, 5, 5, kNoReg, 0x10000000);
        });
    };
    auto cfg1 = fastConfig();
    cfg1.dl1_lat = 1;
    auto cfg4 = fastConfig();
    cfg4.dl1_lat = 4;
    const double cpi1 = run(mk(), cfg1).cpi();
    const double cpi4 = run(mk(), cfg4).cpi();
    EXPECT_NEAR(cpi4 - cpi1, 3.0, 0.6);
}

TEST(Pipeline, StoreToLoadForwarding)
{
    // Alternating store/load to the same word: loads forward from
    // the store buffer, so CPI stays low even with a slow DL1.
    auto t = loopTrace(40, [](TraceBuilder &b, int) {
        for (int i = 0; i < 25; ++i) {
            b.op(OpClass::Store, kNoReg, 2, 3, 0x10000000);
            b.op(OpClass::Load, 4, 2, kNoReg, 0x10000000);
        }
    });
    auto cfg = fastConfig();
    cfg.dl1_lat = 4;
    auto stats = run(t, cfg);
    EXPECT_LT(stats.cpi(), 1.6);
}

TEST(Pipeline, MispredictionPenaltyGrowsWithPipeDepth)
{
    // Alternating taken/not-taken branch is learnable; use an
    // unpredictable i.i.d. pattern instead via a fixed pseudo-random
    // sequence over one PC.
    auto mk = [] {
        TraceBuilder b;
        std::uint64_t x = 99;
        for (int i = 0; i < 3000; ++i) {
            for (int j = 0; j < 3; ++j)
                b.op(OpClass::IntAlu,
                     static_cast<trace::RegId>(2 + (i + j) % 40));
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            // Branch back to the same block so the static trace loops.
            b.branch(false, 0); // fall-through placeholder
        }
        return b.take();
    };
    // Note: all branches fall through here, but their *predictions*
    // can be wrong while the predictor warms. For a depth effect use
    // genuinely random outcomes on one block:
    auto mk_random = [] {
        TraceBuilder b;
        std::uint64_t x = 7;
        const std::uint64_t head = 0x400000;
        for (int i = 0; i < 4000; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            const bool taken = (x >> 62) & 1;
            // Two-block loop: branch either repeats the block or
            // falls through to a block that jumps back.
            b.branch(taken, head);
            if (!taken)
                b.branch(true, head);
        }
        return b.take();
    };
    (void)mk;
    auto shallow = fastConfig();
    shallow.pipe_depth = 7;
    auto deep = fastConfig();
    deep.pipe_depth = 24;
    const double cpi_shallow = run(mk_random(), shallow).cpi();
    const double cpi_deep = run(mk_random(), deep).cpi();
    EXPECT_GT(cpi_deep, cpi_shallow * 1.3);
}

TEST(Pipeline, RobSizeLimitsMemoryParallelism)
{
    // Independent cold loads: a bigger ROB/LSQ exposes more MLP.
    auto mk = [] {
        // Sparse independent cold loads (one per 16 instructions)
        // spread across DRAM banks: a small window covers one load's
        // latency, a large window overlaps many.
        int n = 0;
        return loopTrace(50, [&n](TraceBuilder &b, int) {
            for (int i = 0; i < 4; ++i, ++n) {
                const std::uint64_t addr = 0x10000000 +
                    static_cast<std::uint64_t>(n) * 4096 +
                    static_cast<std::uint64_t>(n % 8) * 64;
                b.op(OpClass::Load,
                     static_cast<trace::RegId>(2 + n % 40),
                     kNoReg, kNoReg, addr);
                for (int j = 0; j < 15; ++j)
                    b.op(OpClass::IntAlu,
                         static_cast<trace::RegId>(2 + (i + j) % 40));
            }
        });
    };
    auto small = fastConfig();
    small.rob_size = 16;
    small.iq_size = 8;
    small.lsq_size = 8;
    auto big = fastConfig();
    big.rob_size = 128;
    big.iq_size = 64;
    big.lsq_size = 64;
    const double cpi_small = run(mk(), small).cpi();
    const double cpi_big = run(mk(), big).cpi();
    EXPECT_LT(cpi_big, cpi_small * 0.6);
}

TEST(Pipeline, IcacheMissesStallFetch)
{
    // A code footprint far beyond IL1 forces fetch misses; CPI must
    // exceed the same stream with a tiny footprint.
    auto mk = [](int blocks) {
        TraceBuilder b;
        // Jump between `blocks` distinct 64B-aligned code addresses.
        for (int i = 0; i < 4000; ++i) {
            (void)blocks;
            b.op(OpClass::IntAlu,
                 static_cast<trace::RegId>(2 + i % 40));
        }
        return b.take();
    };
    (void)mk;
    // Build an explicit large-footprint trace: touch 4096 lines of
    // code round-robin via taken branches.
    trace::Trace big("big-code");
    {
        std::uint64_t pc = 0x400000;
        for (int i = 0; i < 6000; ++i) {
            TraceInstruction in;
            in.pc = pc;
            in.op = OpClass::BranchUncond;
            in.taken = true;
            std::uint64_t next =
                0x400000 + (static_cast<std::uint64_t>(i % 4096)) * 64;
            in.branch_target = next;
            big.push(in);
            pc = next;
        }
    }
    trace::Trace small_code("small-code");
    {
        std::uint64_t pc = 0x400000;
        for (int i = 0; i < 6000; ++i) {
            TraceInstruction in;
            in.pc = pc;
            in.op = OpClass::BranchUncond;
            in.taken = true;
            std::uint64_t next =
                0x400000 + (static_cast<std::uint64_t>(i % 8)) * 64;
            in.branch_target = next;
            small_code.push(in);
            pc = next;
        }
    }
    auto cfg = fastConfig();
    cfg.il1_size_kb = 8;
    const auto big_stats = run(big, cfg);
    const auto small_stats = run(small_code, cfg);
    EXPECT_GT(big_stats.il1.missRate(), 0.5);
    EXPECT_LT(small_stats.il1.missRate(), 0.1);
    EXPECT_GT(big_stats.cpi(), small_stats.cpi() * 2);
}

TEST(Pipeline, WarmupExcludesColdStart)
{
    TraceBuilder b;
    for (int i = 0; i < 5000; ++i)
        b.op(OpClass::Load, 5, kNoReg, kNoReg,
             0x10000000 + static_cast<std::uint64_t>(i % 64) * 64);
    auto t = b.take();
    SimOptions cold;
    cold.warmup_instructions = 0;
    SimOptions warm;
    warm.warmup_instructions = 2000;
    const auto cfg = fastConfig();
    const double cpi_cold = simulate(t, cfg, cold).cpi();
    const double cpi_warm = simulate(t, cfg, warm).cpi();
    // The measured region excludes the cold misses.
    EXPECT_LT(cpi_warm, cpi_cold);
}

TEST(Pipeline, AllInstructionsCommit)
{
    TraceBuilder b;
    for (int i = 0; i < 1234; ++i)
        b.op(OpClass::IntAlu, static_cast<trace::RegId>(2 + i % 30));
    auto stats = run(b.take(), fastConfig());
    EXPECT_EQ(stats.instructions, 1234u);
    EXPECT_GT(stats.cycles, 0u);
}

TEST(Pipeline, FpOpsUseFpLatency)
{
    auto t = loopTrace(20, [](TraceBuilder &b, int) {
        for (int i = 0; i < 31; ++i)
            b.op(OpClass::FpMul, 6, 6);
    });
    auto stats = run(t, fastConfig());
    // FP multiply latency 4 dominates a dependent chain.
    EXPECT_GT(stats.cpi(), 3.5);
    EXPECT_LT(stats.cpi(), 4.6);
}

TEST(Pipeline, DesignPointOverloadRuns)
{
    auto space = dspace::paperTrainSpace();
    TraceBuilder b;
    for (int i = 0; i < 500; ++i)
        b.op(OpClass::IntAlu, static_cast<trace::RegId>(2 + i % 10));
    auto t = b.take();
    dspace::DesignPoint pt{14, 64, 0.5, 0.5, 1024, 12, 32, 32, 2};
    SimOptions opts;
    opts.warmup_instructions = 0;
    auto stats = simulate(t, space, pt, opts);
    EXPECT_EQ(stats.instructions, 500u);
}

} // namespace
