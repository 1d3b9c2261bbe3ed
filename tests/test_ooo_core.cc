/**
 * @file
 * Exact-cycle tests of the core's issue scheduler on hand-built
 * traces, structure invariants checked on every visited cycle of real
 * workloads, and the per-trace facts the core reads.
 *
 * OooCoreTestPeer drives OooCore's own run loop through its per-cycle
 * seam. After every visited cycle it records when each instruction
 * dispatched, issued and committed, and checks the ROB, IQ and LSQ
 * occupancy and the scheduler's bookkeeping: every waiting entry is
 * in exactly one of its producers' dependents lists, the timing wheel
 * or far-wake heap, a store's blocked-load list, or the ready set;
 * nothing due is left on the wheel or heap; ready entries are due and
 * in flight. The ready set is a bitmask over ROB slots, walked from
 * the ROB head, so its order is age order by construction.
 *
 * The pinned cycle counts and stall counters are those of the
 * schedulers the current one replaced: the polling scheduler, and the
 * event-driven one that visited resource-blocked cycles one at a time
 * and retried ready entries every cycle. A scheduler change that moves
 * an issue by one cycle, or a skip that charges a stall counter
 * differently, fails here; the pipeline tests in test_pipeline.cc
 * check timing only within tolerances.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dspace/paper_space.hh"
#include "math/rng.hh"
#include "sim/branch_predictor.hh"
#include "sim/ooo_core.hh"
#include "sim/trace_facts.hh"
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

    /**
     * @param check_invariants Check the bookkeeping on every visited
     *        cycle (off to count visits at full speed).
     */
    OooCoreTestPeer(const ProcessorConfig &config,
                    const trace::Trace &trace, bool check_invariants = true)
        : facts_(trace, config), core_(config, trace, facts_),
          timeline_(trace.size()), check_(check_invariants)
    {
    }

    SimStats
    run(std::uint64_t warmup = 0)
    {
        return core_.runLoop(warmup, [this] { onCycle(); });
    }

    const Timeline &at(std::uint64_t seq) const { return timeline_[seq]; }
    std::uint64_t committed() const { return core_.committed_; }
    /** Cycles the run loop visited. */
    std::uint64_t visits() const { return visits_; }

  private:
    void
    onCycle()
    {
        ++visits_;
        if (!check_)
            return;
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
        ASSERT_EQ(c.dispatch_seq_, c.committed_ + c.rob_count_);
        ASSERT_LE(c.fetchQueued(), c.fetch_queue_capacity_);

        // Where each slot's waiting entry is. Exactly one place per
        // waiting entry.
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
        for (std::size_t bucket = 0; bucket < OooCore::kWheelSize;
             ++bucket) {
            const std::vector<int> slots = setBits(
                &c.wheel_[bucket * c.slot_words_], c.slot_words_);
            ASSERT_EQ(!slots.empty(), bitSet(c.wheel_busy_.data(),
                                             static_cast<int>(bucket)));
            for (int slot : slots) {
                ASSERT_LT(slot, c.rob_size_);
                const OooCore::RobEntry &e = entry(slot);
                ASSERT_FALSE(e.issued) << "seq " << e.seq;
                ASSERT_EQ(e.pending, 0) << "seq " << e.seq;
                ASSERT_GT(e.wake, now) << "due entry left on the wheel";
                ASSERT_LT(e.wake - now, Tick{OooCore::kWheelSize});
                ASSERT_EQ(e.wake % OooCore::kWheelSize, bucket);
                ++places_[static_cast<std::size_t>(slot)];
            }
        }
        const std::vector<int> ready =
            setBits(c.ready_.data(), c.ready_.size());
        ASSERT_EQ(ready.size(), static_cast<std::size_t>(c.ready_count_));
        for (int slot : ready) {
            ASSERT_LT(slot, c.rob_size_);
            ASSERT_TRUE(inFlight(slot)) << "slot " << slot;
            const OooCore::RobEntry &e = entry(slot);
            ASSERT_FALSE(e.issued) << "seq " << e.seq;
            ASSERT_EQ(e.pending, 0) << "seq " << e.seq;
            ASSERT_LE(e.wake, now) << "seq " << e.seq;
            ++places_[static_cast<std::size_t>(slot)];
        }

        // Operand links each waiting producer's list must hold.
        expected_links_.assign(static_cast<std::size_t>(c.rob_size_), 0);
        int slot = c.rob_head_;
        for (int i = 0; i < c.rob_count_; ++i, slot = c.robNext(slot)) {
            const OooCore::RobEntry &e = entry(slot);
            for (int k = 0; k < 2 && !e.issued; ++k) {
                const int p = producerSlot(slot, e, k);
                if (p != OooCore::kNoSlot && !entry(p).issued)
                    ++expected_links_[static_cast<std::size_t>(p)];
            }
        }

        int waiting = 0;
        int pending_on_producers = 0;
        int blocked = 0;
        int retrying = 0;
        int memory_ops = 0;
        slot = c.rob_head_;
        for (int i = 0; i < c.rob_count_; ++i, slot = c.robNext(slot)) {
            const OooCore::RobEntry &e = entry(slot);
            Timeline &t = timeline_[e.seq];
            ASSERT_EQ(e.seq, c.committed_ + static_cast<std::uint64_t>(i));
            if (t.dispatch == kUnset)
                t.dispatch = now;
            if (e.issued && t.issue == kUnset) {
                t.issue = now;
                t.completion = e.completion;
            }
            ASSERT_EQ(e.issued, t.issue != kUnset) << "seq " << e.seq;
            memory_ops += e.op == trace::OpClass::Load ||
                          e.op == trace::OpClass::Store;
            if (e.op == trace::OpClass::Store) {
                const int n = blockedLoads(e);
                ASSERT_GE(n, 0) << "bad blocked-load list, seq " << e.seq;
                blocked += n;
            }
            if (e.issued) {
                ASSERT_EQ(places_[static_cast<std::size_t>(slot)], 0);
                ASSERT_EQ(e.first_blocked, OooCore::kNoSlot);
                continue;
            }
            ++waiting;
            retrying += e.retried;
            ASSERT_EQ(e.pending, unissuedProducers(slot, e))
                << "seq " << e.seq;
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
                  static_cast<std::size_t>(pending_on_producers + blocked) +
                      ready.size() + wheelEntries() + c.wake_heap_.size());
        ASSERT_EQ(c.lsq_count_, memory_ops);
        ASSERT_EQ(c.retrying_, retrying);
    }

    static bool
    bitSet(const std::uint64_t *words, int bit)
    {
        return (words[bit / 64] >> (bit % 64)) & 1;
    }

    /** The set bits of a @p n-word mask, ascending. */
    static std::vector<int>
    setBits(const std::uint64_t *words, std::size_t n)
    {
        std::vector<int> out;
        for (std::size_t w = 0; w < n; ++w) {
            for (std::uint64_t bits = words[w]; bits != 0;
                 bits &= bits - 1) {
                out.push_back(static_cast<int>(w * 64) +
                              std::countr_zero(bits));
            }
        }
        return out;
    }

    const OooCore::RobEntry &
    entry(int slot) const
    {
        return core_.rob_[static_cast<std::size_t>(slot)];
    }

    bool
    inFlight(int slot) const
    {
        const OooCore &c = core_;
        const int age = (slot - c.rob_head_ + c.rob_size_) % c.rob_size_;
        return age < c.rob_count_;
    }

    std::size_t
    wheelEntries() const
    {
        std::size_t n = 0;
        for (std::uint64_t w : core_.wheel_)
            n += static_cast<std::size_t>(std::popcount(w));
        return n;
    }

    /** Slot of operand @p k's producer if it is in flight. */
    int
    producerSlot(int slot, const OooCore::RobEntry &e, int k) const
    {
        const std::uint16_t back = facts_[e.seq].producer[k];
        if (back == TraceFacts::kNoLink || back > e.seq - core_.committed_)
            return OooCore::kNoSlot;
        return core_.robBack(slot, back);
    }

    /** Operands whose producer is still in the ROB and not issued. */
    int
    unissuedProducers(int slot, const OooCore::RobEntry &e) const
    {
        int n = 0;
        for (int k = 0; k < 2; ++k) {
            const int p = producerSlot(slot, e, k);
            n += p != OooCore::kNoSlot && !entry(p).issued;
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
            const int consumer_slot = link / 2;
            const OooCore::RobEntry &consumer = entry(consumer_slot);
            const int k = link % 2;
            if (!inFlight(consumer_slot) || consumer.issued ||
                producerSlot(consumer_slot, consumer, k) != slot ||
                n > 2 * core_.rob_size_)
                return -1;
            link = consumer.next_dependent[k];
            ++n;
        }
        return n;
    }

    /**
     * Length of store @p e's blocked-load list, or -1 if it names an
     * entry that is not a waiting, due, older-store-blocked load of
     * the store's word. A non-empty list needs an unissued store.
     * Counts one place for each listed load.
     */
    int
    blockedLoads(const OooCore::RobEntry &e)
    {
        int n = 0;
        for (int load = e.first_blocked; load != OooCore::kNoSlot;) {
            const OooCore::RobEntry &l = entry(load);
            if (e.issued || !inFlight(load) || l.issued ||
                l.op != trace::OpClass::Load || l.pending != 0 ||
                l.wake > core_.now_ || !l.retried || l.seq <= e.seq ||
                (l.mem_addr >> kStoreWordShift) !=
                    (e.mem_addr >> kStoreWordShift) ||
                n > core_.rob_size_)
                return -1;
            ++places_[static_cast<std::size_t>(load)];
            load = l.next_blocked;
            ++n;
        }
        return n;
    }

    TraceFacts facts_;
    OooCore core_;
    std::vector<Timeline> timeline_;
    bool check_;
    std::uint64_t visits_ = 0;
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

/** The eight Table 3 programs' traces at the Table 3 scale. */
const std::map<std::string, trace::Trace> &
programTraces()
{
    static const auto traces = [] {
        std::map<std::string, trace::Trace> out;
        for (const auto &name : trace::profileNames())
            out.emplace(name, trace::generateTrace(
                                  trace::profileByName(name), 100000));
        return out;
    }();
    return traces;
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

TEST(OooCoreSchedule, LoadWaitsForEveryOlderSameWordStore)
{
    // Two older stores to the load's word: the younger one issues at
    // once, the older one waits on a cold DRAM load. The load stays
    // blocked until the older store issues, issues in its cycle, and
    // forwards from the younger store.
    TraceBuilder b;
    b.op(OpClass::Load, 1, kNoReg, kNoReg, kColdAddr);
    b.op(OpClass::Store, kNoReg, 1, kNoReg, kWordAddr);
    b.op(OpClass::Store, kNoReg, 5, kNoReg, kWordAddr + 2);
    b.op(OpClass::Load, 2, kNoReg, kNoReg, kWordAddr + 4);
    b.op(OpClass::IntAlu, 3, 2);
    const auto t = b.take();
    const ProcessorConfig cfg;
    OooCoreTestPeer peer(cfg, t);
    const SimStats stats = runChecked(peer, t, cfg);

    EXPECT_EQ(peer.at(2).issue, peer.at(2).dispatch + 1);
    EXPECT_LT(peer.at(2).issue, peer.at(1).issue);
    EXPECT_EQ(peer.at(1).issue, peer.at(0).completion);
    EXPECT_EQ(peer.at(3).issue, peer.at(1).issue);
    EXPECT_EQ(peer.at(3).completion, peer.at(3).issue + 1);
    EXPECT_EQ(peer.at(4).issue, peer.at(3).completion);
    EXPECT_EQ(stats.cycles, 261u);
    EXPECT_EQ(stats.fetch_empty_stalls, 3u);
}

/**
 * A cold DRAM load at the ROB head, then a loop of seven @p op per
 * jump that fills the window behind it: a stall of ~120 cycles.
 */
trace::Trace
stalledBehindAColdLoad(OpClass op, trace::RegId src)
{
    TraceBuilder b;
    b.op(OpClass::Load, 1, kNoReg, kNoReg, kColdAddr);
    const std::uint64_t top = b.pc();
    for (int iter = 0; iter < 12; ++iter) {
        for (int i = 0; i < 7; ++i) {
            b.op(op, static_cast<trace::RegId>(2 + i), src, kNoReg,
                 op == OpClass::Load ? kWordAddr + 64 * i : 0);
        }
        b.jump(top);
    }
    return b.take();
}

TEST(OooCoreStalls, LongFullQueueStallsAreSkippedAndChargedPerCycle)
{
    // Each stall lasts until the cold load commits. Every cycle of it
    // is charged, as a one-cycle-at-a-time walk charged it, but the
    // core visits only a few of them.
    struct Case
    {
        const char *name;
        OpClass op;
        trace::RegId src;
        int lsq_size;
        std::uint64_t SimStats::*counter;
        std::uint64_t stalls;
        std::uint64_t cycles;
    };
    const Case cases[] = {
        // Independent ALU ops fill the ROB.
        {"rob", OpClass::IntAlu, 10, 32, &SimStats::rob_full_stalls, 123,
         283},
        // Consumers of the load fill the IQ.
        {"iq", OpClass::IntAlu, 1, 32, &SimStats::iq_full_stalls, 130,
         283},
        // Loads fill a 16-entry LSQ.
        {"lsq", OpClass::Load, 10, 16, &SimStats::lsq_full_stalls, 313,
         478},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const auto t = stalledBehindAColdLoad(c.op, c.src);
        ProcessorConfig cfg;
        cfg.lsq_size = c.lsq_size;
        OooCoreTestPeer peer(cfg, t);
        const SimStats stats = runChecked(peer, t, cfg);
        EXPECT_EQ(stats.*c.counter, c.stalls);
        EXPECT_EQ(stats.cycles, c.cycles);
        EXPECT_EQ(stats.fetch_empty_stalls, 10u);
        EXPECT_EQ(stats.rob_full_stalls + stats.iq_full_stalls +
                      stats.lsq_full_stalls,
                  c.stalls);
        EXPECT_LT(peer.visits(), stats.cycles - c.stalls + 10);
    }
}

TEST(OooCoreStalls, RetryDuringAFrontEndRefillChargesFetchEmpty)
{
    // The multiply loses the one multiply unit to the divide and
    // waits 20 cycles to retry. Meanwhile the mispredicted branch
    // redirects fetch, and the next instruction spends the refill in
    // the front end. A walk one cycle at a time visited each refill
    // cycle for the retry alone and charged it as fetch-empty.
    TraceBuilder b;
    const std::uint64_t top = b.pc();
    b.op(OpClass::IntDiv, 1, 10);
    b.op(OpClass::IntMul, 2, 11);
    b.branch(true, top);
    b.op(OpClass::IntAlu, 3, 12);
    const auto t = b.take();
    const ProcessorConfig cfg;
    OooCoreTestPeer peer(cfg, t);
    const SimStats stats = runChecked(peer, t, cfg);

    EXPECT_EQ(stats.branch.mispredicts, 1u);
    EXPECT_EQ(peer.at(1).issue, peer.at(0).issue + 20);
    EXPECT_EQ(peer.at(3).dispatch,
              peer.at(2).completion +
                  static_cast<Tick>(cfg.frontEndDepth()));
    EXPECT_LT(peer.at(3).dispatch, peer.at(1).issue);
    EXPECT_EQ(stats.fetch_empty_stalls, 11u);
    EXPECT_EQ(stats.cycles, 142u);
}

TEST(OooCoreStalls, LinksBeyondAnyRobAreIgnored)
{
    // The last load's previous same-word store, and the ALU op's
    // producer, lie 80,000 instructions back: their links saturate
    // and read as committed. The final store-to-load pair is one
    // apart and forwards.
    TraceBuilder b;
    b.op(OpClass::Store, kNoReg, kNoReg, kNoReg, kWordAddr);
    b.op(OpClass::IntAlu, 1, 10);
    b.op(OpClass::Store, kNoReg, kNoReg, kNoReg, kWordAddr + 64);
    const std::uint64_t top = b.pc();
    for (int iter = 0; iter < 10000; ++iter) {
        for (int i = 0; i < 7; ++i)
            b.op(OpClass::IntAlu, static_cast<trace::RegId>(2 + i), 10);
        b.jump(top);
    }
    b.op(OpClass::Load, 11, kNoReg, kNoReg, kWordAddr + 64);
    b.op(OpClass::IntAlu, 12, 1, 11);
    b.op(OpClass::Store, kNoReg, 12, kNoReg, kWordAddr);
    b.op(OpClass::Load, 13, kNoReg, kNoReg, kWordAddr);
    const auto t = b.take();
    const std::uint64_t n = t.size();
    const ProcessorConfig cfg;
    OooCoreTestPeer peer(cfg, t);
    const SimStats stats = runChecked(peer, t, cfg);

    EXPECT_EQ(stats.cycles, 20127u);
    EXPECT_EQ(stats.fetch_empty_stalls, 11u);
    EXPECT_EQ(peer.at(n - 4).issue, 20122u);
    EXPECT_EQ(peer.at(n - 3).issue, peer.at(n - 4).completion);
    EXPECT_EQ(peer.at(n - 1).issue, peer.at(n - 2).issue);
    EXPECT_EQ(peer.at(n - 1).completion, peer.at(n - 2).completion + 1);
}

TEST(OooCoreVisits, AtMostOneVisitPerInstructionOnEveryProgram)
{
    // At the default configuration and the Table 3 scale, a walk one
    // cycle at a time through every blocked cycle visited 1.6-5.2
    // cycles per instruction.
    const ProcessorConfig cfg;
    for (const auto &[name, t] : programTraces()) {
        SCOPED_TRACE(name);
        OooCoreTestPeer peer(cfg, t, /*check_invariants=*/false);
        const SimStats stats = peer.run(15000);
        ASSERT_EQ(peer.committed(), t.size());
        EXPECT_LE(peer.visits(), t.size())
            << stats.cycles << " cycles, "
            << static_cast<double>(peer.visits()) /
                   static_cast<double>(t.size())
            << " visits per instruction";
    }
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

/** Saturated distance, as TraceFacts stores links. */
std::uint16_t
saturated(std::uint64_t distance)
{
    return static_cast<std::uint16_t>(
        std::min<std::uint64_t>(distance, TraceFacts::kFarLink));
}

/**
 * Check @p facts against a from-scratch recomputation: producers from
 * a rename table, the previous same-word store from a backward scan
 * over a window wider than any ROB (as an LSQ search would see it),
 * and branch outcomes from a BranchPredictor replay.
 */
void
expectFactsMatchBruteForce(const trace::Trace &t, const TraceFacts &facts,
                           const ProcessorConfig &cfg)
{
    constexpr std::uint64_t kWindow = 1024;
    ASSERT_EQ(facts.size(), t.size());
    std::array<std::int64_t, trace::kNumArchRegs> writer;
    writer.fill(-1);
    BranchPredictor predictor(cfg);
    for (std::uint64_t seq = 0; seq < t.size(); ++seq) {
        const trace::TraceInstruction &inst = t[seq];
        const TraceFacts::Inst &f = facts[seq];
        for (int k = 0; k < 2; ++k) {
            const trace::RegId reg = inst.src[k];
            const std::uint16_t expected =
                reg == kNoReg || writer[reg] < 0
                    ? TraceFacts::kNoLink
                    : saturated(seq - static_cast<std::uint64_t>(
                                          writer[reg]));
            ASSERT_EQ(f.producer[k], expected) << "seq " << seq;
        }
        if (inst.dest != kNoReg)
            writer[inst.dest] = static_cast<std::int64_t>(seq);

        std::uint64_t found = 0;
        if (inst.isMem()) {
            const std::uint64_t word = inst.mem_addr >> kStoreWordShift;
            for (std::uint64_t back = 1; back <= std::min(seq, kWindow);
                 ++back) {
                const trace::TraceInstruction &older = t[seq - back];
                if (older.isStore() &&
                    older.mem_addr >> kStoreWordShift == word) {
                    found = back;
                    break;
                }
            }
        }
        if (found != 0) {
            ASSERT_EQ(f.prev_store, found) << "seq " << seq;
        } else {
            ASSERT_TRUE(f.prev_store == TraceFacts::kNoLink ||
                        f.prev_store > kWindow)
                << "seq " << seq;
        }

        std::uint16_t branch = TraceFacts::kPredicted;
        if (inst.isBr()) {
            const auto res =
                predictor.update(inst, predictor.predict(inst));
            branch = res.mispredict ? TraceFacts::kMispredict
                : res.btb_bubble    ? TraceFacts::kBtbBubble
                                    : TraceFacts::kPredicted;
        }
        ASSERT_EQ(f.branch, branch) << "seq " << seq;
    }
    const BranchStats &want = predictor.stats();
    const BranchStats &got = facts.branchStats();
    EXPECT_EQ(got.branches, want.branches);
    EXPECT_EQ(got.cond_branches, want.cond_branches);
    EXPECT_EQ(got.mispredicts, want.mispredicts);
    EXPECT_EQ(got.btb_bubbles, want.btb_bubbles);
}

TEST(TraceFactsTest, MatchABruteForceRecomputationOnEveryProgram)
{
    const ProcessorConfig cfg;
    for (const auto &[name, t] : programTraces()) {
        SCOPED_TRACE(name);
        expectFactsMatchBruteForce(t, TraceFacts(t, cfg), cfg);
        ASSERT_FALSE(HasFatalFailure());
    }
}

TEST(TraceFactsTest, LinksSaturateAtSixteenBits)
{
    // Links of 600 (past the largest ROB, 512) stay exact; links of
    // 70,001 saturate. A load's chain walks through both stores.
    TraceBuilder b;
    b.op(OpClass::Store, kNoReg, kNoReg, kNoReg, kWordAddr);
    b.op(OpClass::IntAlu, 1, 10);
    for (int i = 0; i < 70000; ++i)
        b.op(OpClass::IntAlu, 2, 10);
    b.op(OpClass::Store, kNoReg, 1, kNoReg, kWordAddr + 1);
    for (int i = 0; i < 599; ++i)
        b.op(OpClass::IntAlu, 3, 10);
    b.op(OpClass::Load, 4, 2, kNoReg, kWordAddr + 7);
    const auto t = b.take();
    const ProcessorConfig cfg;
    const TraceFacts facts(t, cfg);
    expectFactsMatchBruteForce(t, facts, cfg);

    const std::uint64_t store = 70002;
    const std::uint64_t load = t.size() - 1;
    EXPECT_EQ(facts[store].producer[0], TraceFacts::kFarLink);
    EXPECT_EQ(facts[store].prev_store, TraceFacts::kFarLink);
    EXPECT_EQ(facts[load].prev_store, 600);
    EXPECT_EQ(facts[load].producer[0], 601);

    // The core reads none of them as in flight.
    OooCoreTestPeer peer(cfg, t);
    runChecked(peer, t, cfg);
}

TEST(TraceFactsTest, FitOnlyTheirPredictorGeometry)
{
    TraceBuilder b;
    b.op(OpClass::IntAlu, 1);
    const auto t = b.take();
    const ProcessorConfig cfg;
    const TraceFacts facts(t, cfg);
    ProcessorConfig other = cfg;
    other.rob_size = 128;
    other.l2_size_kb = 4096;
    EXPECT_TRUE(facts.fits(other));
    other.btb_entries = 2048;
    EXPECT_FALSE(facts.fits(other));
    EXPECT_THROW(OooCore(other, t, facts), std::invalid_argument);

    TraceBuilder longer;
    longer.op(OpClass::IntAlu, 1).op(OpClass::IntAlu, 2);
    EXPECT_THROW(OooCore(cfg, longer.take(), facts),
                 std::invalid_argument);
}

} // namespace
} // namespace ppm::sim
