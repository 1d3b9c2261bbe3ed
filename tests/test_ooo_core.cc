/**
 * @file
 * Exact-cycle tests of the core's issue scheduler on hand-built
 * traces, and structure invariants checked on every visited cycle of
 * real workloads.
 *
 * OooCoreTestPeer drives OooCore's own run loop through its per-cycle
 * seam. After every visited cycle it records when each instruction
 * dispatched, issued and committed, and checks the ROB, IQ and LSQ
 * occupancy and the scheduler's bookkeeping: every waiting entry is
 * in exactly one of its producers' dependents lists, the wake heap
 * or the ready set.
 *
 * The pinned cycle counts are those of the polling scheduler that the
 * event-driven one replaced, so a scheduler change that moves an issue
 * by one cycle fails here; the pipeline tests in test_pipeline.cc
 * check timing only within tolerances.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "dspace/paper_space.hh"
#include "math/rng.hh"
#include "sim/ooo_core.hh"
#include "trace/benchmark_profile.hh"
#include "trace/trace_generator.hh"
#include "trace_builder.hh"

namespace ppm::sim {

/**
 * Runs an OooCore and inspects its private state between cycles. It
 * lives in ppm::sim because OooCore befriends ppm::sim::OooCoreTestPeer.
 */
class OooCoreTestPeer
{
  public:
    static constexpr Tick kUnset = OooCore::kNever;

    /** When each instruction passed each stage. */
    struct Timeline
    {
        Tick dispatch = kUnset;
        Tick issue = kUnset;
        Tick completion = kUnset;
        Tick commit = kUnset;
    };

    OooCoreTestPeer(const ProcessorConfig &config,
                    const trace::Trace &trace)
        : core_(config, trace), timeline_(trace.size())
    {
    }

    SimStats
    run(std::uint64_t warmup = 0)
    {
        return core_.runLoop(warmup, [this] { onCycle(); });
    }

    const Timeline &at(std::uint64_t seq) const { return timeline_[seq]; }
    std::uint64_t committed() const { return core_.committed_; }

  private:
    void
    onCycle()
    {
        const OooCore &c = core_;
        const Tick now = c.now_;
        if (::testing::Test::HasFatalFailure())
            return; // report only the first bad cycle
        for (std::uint64_t s = committed_; s < c.committed_; ++s)
            timeline_[s].commit = now;
        committed_ = c.committed_;

        ASSERT_GE(c.rob_count_, 0);
        ASSERT_LE(c.rob_count_, c.rob_size_);
        ASSERT_LE(c.iq_count_, c.config_.iq_size);
        ASSERT_LE(c.lsq_count_, c.config_.lsq_size);
        ASSERT_EQ(static_cast<std::size_t>(c.lsq_count_), c.lsq_.size());

        // Where each slot's waiting entry is: heap, ready set, or
        // pending on producers. Exactly one place per waiting entry.
        places_.assign(static_cast<std::size_t>(c.rob_size_), 0);
        ASSERT_TRUE(std::is_heap(c.wake_heap_.begin(), c.wake_heap_.end(),
                                 std::greater<>{}));
        for (const OooCore::Wakeup &w : c.wake_heap_) {
            const OooCore::RobEntry &e = entry(w.slot);
            ASSERT_FALSE(e.issued) << "seq " << e.seq;
            ASSERT_EQ(e.pending, 0) << "seq " << e.seq;
            ASSERT_EQ(w.wake, e.wake) << "seq " << e.seq;
            ASSERT_GT(e.wake, now) << "due entry left in the heap";
            ++places_[static_cast<std::size_t>(w.slot)];
        }
        for (std::size_t i = 0; i < c.ready_.size(); ++i) {
            const OooCore::RobEntry &e = entry(c.ready_[i]);
            ASSERT_FALSE(e.issued) << "seq " << e.seq;
            ASSERT_EQ(e.pending, 0) << "seq " << e.seq;
            ASSERT_LE(e.wake, now) << "seq " << e.seq;
            if (i > 0) {
                ASSERT_LT(entry(c.ready_[i - 1]).seq, e.seq);
            }
            ++places_[static_cast<std::size_t>(c.ready_[i])];
        }

        // Operand links each waiting producer's list must hold.
        expected_links_.assign(static_cast<std::size_t>(c.rob_size_), 0);
        int slot = c.rob_head_;
        for (int i = 0; i < c.rob_count_; ++i, slot = c.robNext(slot)) {
            const OooCore::RobEntry &e = entry(slot);
            for (int k = 0; k < 2 && !e.issued; ++k) {
                if (e.producer[k] != OooCore::kNoProducer &&
                    entry(e.producer[k]).seq == e.producer_seq[k])
                    ++expected_links_[static_cast<std::size_t>(
                        e.producer[k])];
            }
        }

        int waiting = 0;
        int pending_on_producers = 0;
        int memory_ops = 0;
        slot = c.rob_head_;
        for (int i = 0; i < c.rob_count_; ++i, slot = c.robNext(slot)) {
            const OooCore::RobEntry &e = entry(slot);
            Timeline &t = timeline_[e.seq];
            if (t.dispatch == kUnset)
                t.dispatch = now;
            if (e.issued && t.issue == kUnset) {
                t.issue = now;
                t.completion = e.completion;
            }
            ASSERT_EQ(e.issued, t.issue != kUnset) << "seq " << e.seq;
            memory_ops += e.op == trace::OpClass::Load ||
                          e.op == trace::OpClass::Store;
            if (e.issued) {
                ASSERT_EQ(places_[static_cast<std::size_t>(slot)], 0);
                continue;
            }
            ++waiting;
            ASSERT_EQ(e.pending, unissuedProducers(e)) << "seq " << e.seq;
            ASSERT_EQ(dependentLinks(slot, e),
                      expected_links_[static_cast<std::size_t>(slot)])
                << "seq " << e.seq;
            if (e.pending > 0) {
                ++pending_on_producers;
                ++places_[static_cast<std::size_t>(slot)];
            }
            ASSERT_EQ(places_[static_cast<std::size_t>(slot)], 1)
                << "seq " << e.seq;
        }
        ASSERT_EQ(c.iq_count_, waiting);
        ASSERT_EQ(static_cast<std::size_t>(c.iq_count_),
                  static_cast<std::size_t>(pending_on_producers) +
                      c.wake_heap_.size() + c.ready_.size());
        ASSERT_EQ(c.lsq_count_, memory_ops);
    }

    const OooCore::RobEntry &
    entry(int slot) const
    {
        return core_.rob_[static_cast<std::size_t>(slot)];
    }

    /** Operands whose producer is still in the ROB and not issued. */
    int
    unissuedProducers(const OooCore::RobEntry &e) const
    {
        int n = 0;
        for (int k = 0; k < 2; ++k) {
            if (e.producer[k] == OooCore::kNoProducer)
                continue;
            const OooCore::RobEntry &p = entry(e.producer[k]);
            n += p.seq == e.producer_seq[k] && !p.issued;
        }
        return n;
    }

    /**
     * Length of @p e's dependents list, or -1 if a link does not name
     * a waiting consumer whose operand reads this producer.
     */
    int
    dependentLinks(int slot, const OooCore::RobEntry &e) const
    {
        int n = 0;
        for (int link = e.first_dependent; link != OooCore::kNoLink;) {
            const OooCore::RobEntry &consumer = entry(link / 2);
            const int k = link % 2;
            if (consumer.issued || consumer.producer[k] != slot ||
                consumer.producer_seq[k] != e.seq || n > 2 * core_.rob_size_)
                return -1;
            link = consumer.next_dependent[k];
            ++n;
        }
        return n;
    }

    OooCore core_;
    std::vector<Timeline> timeline_;
    std::vector<int> places_;
    std::vector<int> expected_links_;
    std::uint64_t committed_ = 0;
};

namespace {

using trace::OpClass;
using trace::kNoReg;
using test::TraceBuilder;

constexpr std::uint64_t kColdAddr = 0x20000000;
constexpr std::uint64_t kWordAddr = 0x10000000;

/** Runs @p t from a cold start and checks the end-of-run invariants. */
SimStats
runChecked(OooCoreTestPeer &peer, const trace::Trace &t,
           const ProcessorConfig &cfg)
{
    const SimStats stats = peer.run();
    EXPECT_EQ(stats.instructions, t.size());
    EXPECT_LE(stats.instructions,
              static_cast<std::uint64_t>(cfg.commit_width) * stats.cycles);
    for (std::uint64_t s = 0; s < t.size(); ++s)
        EXPECT_NE(peer.at(s).commit, OooCoreTestPeer::kUnset) << s;
    return stats;
}

TEST(OooCoreSchedule, StoreBlockedLoadIssuesInTheStoresCycle)
{
    // The store's data waits on a cold DRAM load; the younger load to
    // the same 8-byte word is blocked until the store issues, then
    // issues in the same cycle (the older store is tried first) and
    // takes its value by forwarding.
    TraceBuilder b;
    b.op(OpClass::Load, 1, kNoReg, kNoReg, kColdAddr);
    b.op(OpClass::Store, kNoReg, 1, kNoReg, kWordAddr);
    b.op(OpClass::Load, 2, kNoReg, kNoReg, kWordAddr + 4);
    b.op(OpClass::IntAlu, 3, 2);
    const auto t = b.take();
    const ProcessorConfig cfg;
    OooCoreTestPeer peer(cfg, t);
    const SimStats stats = runChecked(peer, t, cfg);

    EXPECT_EQ(peer.at(1).issue, peer.at(0).completion);
    EXPECT_EQ(peer.at(1).completion, peer.at(1).issue + 1);
    EXPECT_EQ(peer.at(2).issue, peer.at(1).issue);
    EXPECT_EQ(peer.at(2).completion, peer.at(1).completion + 1);
    EXPECT_EQ(peer.at(3).issue, peer.at(2).completion);
    EXPECT_EQ(stats.cycles, 262u);
}

TEST(OooCoreSchedule, SameRegisterTwiceWakesOnce)
{
    TraceBuilder b;
    b.op(OpClass::Load, 1, kNoReg, kNoReg, kColdAddr);
    b.op(OpClass::IntAlu, 2, 1, 1);
    b.op(OpClass::IntAlu, 3, 2, 2);
    const auto t = b.take();
    const ProcessorConfig cfg;
    OooCoreTestPeer peer(cfg, t);
    const SimStats stats = runChecked(peer, t, cfg);

    EXPECT_EQ(peer.at(1).issue, peer.at(0).completion);
    EXPECT_EQ(peer.at(2).issue, peer.at(1).completion);
    EXPECT_EQ(peer.at(2).issue, peer.at(1).issue + 1);
    EXPECT_EQ(stats.cycles, 261u);
}

TEST(OooCoreSchedule, DividesAndMultipliesShareTheOneMultiplyUnit)
{
    // Unpipelined divides hold the single int-mul unit for 20 cycles.
    // When the first divide completes, its dependent multiply and the
    // second divide both want the unit; the older divide wins. The
    // same happens one level down between the two multiplies.
    TraceBuilder b;
    b.op(OpClass::IntDiv, 1, 10);
    b.op(OpClass::IntDiv, 2, 11);
    b.op(OpClass::IntMul, 3, 1);
    b.op(OpClass::IntMul, 4, 2);
    const auto t = b.take();
    const ProcessorConfig cfg;
    ASSERT_EQ(cfg.num_int_mul, 1);
    OooCoreTestPeer peer(cfg, t);
    const SimStats stats = runChecked(peer, t, cfg);

    EXPECT_EQ(peer.at(0).completion, peer.at(0).issue + 20);
    EXPECT_EQ(peer.at(1).issue, peer.at(0).completion);
    EXPECT_EQ(peer.at(2).issue, peer.at(1).completion);
    EXPECT_EQ(peer.at(3).issue, peer.at(2).issue + 1);
    EXPECT_EQ(peer.at(3).issue, peer.at(1).completion + 1);
    EXPECT_EQ(stats.cycles, 163u);
}

TEST(OooCoreSchedule, UnitBlockedDivideRetriesWhenTheUnitFrees)
{
    // The second divide waits for the divider, not for an operand. No
    // other event falls on the cycle the unit frees (the ROB head is a
    // DRAM load, the first divide has no dependents), so the ready set
    // alone must bring the core back to that cycle.
    TraceBuilder b;
    b.op(OpClass::Load, 1, kNoReg, kNoReg, kColdAddr);
    b.op(OpClass::IntDiv, 2, 10);
    b.op(OpClass::IntDiv, 3, 11);
    const auto t = b.take();
    const ProcessorConfig cfg;
    OooCoreTestPeer peer(cfg, t);
    const SimStats stats = runChecked(peer, t, cfg);

    EXPECT_EQ(peer.at(2).issue, peer.at(1).issue + 20);
    EXPECT_LT(peer.at(2).issue, peer.at(0).completion);
    EXPECT_EQ(stats.cycles, 259u);
}

TEST(OooCoreSchedule, IssueWidthCapsOneWakeupOldestFirst)
{
    // Ten ALU ops wake on one load. With eight ALUs the four-wide
    // issue stage is the limit: 4, 4, then 2, in program order.
    TraceBuilder b;
    b.op(OpClass::Load, 1, kNoReg, kNoReg, kColdAddr);
    for (int i = 0; i < 10; ++i)
        b.op(OpClass::IntAlu, static_cast<trace::RegId>(2 + i), 1);
    const auto t = b.take();
    ProcessorConfig cfg;
    cfg.num_int_alu = 8;
    OooCoreTestPeer peer(cfg, t);
    const SimStats stats = runChecked(peer, t, cfg);

    const Tick wake = peer.at(0).completion;
    for (std::uint64_t s = 1; s <= 10; ++s)
        EXPECT_EQ(peer.at(s).issue, wake + (s - 1) / 4) << s;
    EXPECT_EQ(stats.cycles, 262u);
}

TEST(OooCoreSchedule, ConsumerOfACommittedProducerInALiveSlot)
{
    // The jump lands on a cold code line, so the consumer dispatches
    // long after its producer committed, while the producer's ROB slot
    // still holds it. The consumer issues the cycle after dispatch.
    TraceBuilder b;
    b.op(OpClass::IntAlu, 1);
    b.jump(0x500000);
    b.op(OpClass::IntAlu, 2, 1);
    const auto t = b.take();
    const ProcessorConfig cfg;
    OooCoreTestPeer peer(cfg, t);
    const SimStats stats = runChecked(peer, t, cfg);

    ASSERT_LT(t.size(), static_cast<std::size_t>(cfg.rob_size));
    EXPECT_LT(peer.at(0).commit, peer.at(2).dispatch);
    EXPECT_EQ(peer.at(2).issue, peer.at(2).dispatch + 1);
    EXPECT_EQ(stats.cycles, 262u);
}

TEST(OooCoreInvariants, HoldOnEveryVisitedCycleOfEveryProgram)
{
    // The Table 1 corners stress full queues and ROB slot reuse (ROB
    // 24, IQ and LSQ 8) and long wake heaps (ROB 128); a random Table 1
    // point per program covers the interior.
    const auto space = dspace::paperTrainSpace();
    dspace::DesignPoint low(space.size());
    dspace::DesignPoint high(space.size());
    for (std::size_t i = 0; i < space.size(); ++i) {
        low[i] = space.param(i).minValue();
        high[i] = space.param(i).maxValue();
    }
    math::Rng rng(17);
    for (const auto &name : trace::profileNames()) {
        const auto t =
            trace::generateTrace(trace::profileByName(name), 10000);
        for (const auto &point : {low, high, space.randomPoint(rng)}) {
            const auto cfg = ProcessorConfig::fromDesignPoint(space, point);
            SCOPED_TRACE(name + " @ " + cfg.toString());
            // Built from a temporary: the core keeps its own copy.
            OooCoreTestPeer peer(
                ProcessorConfig::fromDesignPoint(space, point), t);
            const SimStats stats = peer.run(1000);
            ASSERT_FALSE(HasFatalFailure());
            EXPECT_EQ(peer.committed(), t.size());
            EXPECT_LE(stats.instructions,
                      static_cast<std::uint64_t>(cfg.commit_width) *
                          stats.cycles);
        }
    }
}

} // namespace
} // namespace ppm::sim
