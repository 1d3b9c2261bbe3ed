/**
 * @file
 * Cycle-level out-of-order superscalar core.
 *
 * The core consumes a correct-path instruction trace and computes its
 * execution time for a given ProcessorConfig. Modeled behaviour:
 *
 *  - Fetch through IL1 with a decoupling queue; fetch groups break on
 *    taken branches; IL1 misses stall fetch until the fill returns.
 *  - Branch prediction at fetch (gshare + BTB + RAS). Mispredictions
 *    stall fetch until the branch executes; the refill through the
 *    front end (pipe_depth - backend_stages stages) forms the
 *    pipe-depth-dependent part of the penalty. BTB misses with a
 *    correct direction inject a fixed decode bubble. Fetch follows
 *    the correct path in trace order, so each branch's outcome is a
 *    per-trace fact (TraceFacts), replayed once for all simulations.
 *  - Dispatch allocates ROB, issue queue and (for memory ops) LSQ
 *    entries in program order, stalling when any is full.
 *  - Issue selects up to issue_width ready instructions oldest-first,
 *    subject to functional unit and cache port availability. Loads
 *    disambiguate against older in-flight stores using trace (oracle)
 *    addresses: the youngest older store to the same 8-byte word
 *    forwards its data; any such store that has not executed blocks
 *    the load.
 *  - Memory operations walk the DL1/L2/DRAM hierarchy with controller
 *    queueing and bus contention.
 *  - Commit retires up to commit_width completed instructions in
 *    order; stores write the cache at commit.
 *
 * Issue is event-driven; no waiting instruction is polled:
 *
 *  - Each ROB entry has a wake time, initially dispatch + 1. A
 *    consumer dispatched before its producer issues links itself
 *    into the producer's dependents list and counts the producer as
 *    pending; a producer that has already issued (or committed)
 *    raises the wake time to its completion directly. The list is
 *    intrusive: each consumer has at most two links, one per operand.
 *    Producers come from TraceFacts.
 *  - A producer's completion time is known when it issues. Issuing
 *    raises each dependent's wake time to it; a dependent with no
 *    pending producer left is scheduled at its wake time: on a timing
 *    wheel when near, in a min-heap when far.
 *  - Each issue step first moves every entry whose wake time has come
 *    into the ready set, a bitmask over ROB slots, then walks that set
 *    oldest first. Functional-unit contention, cache ports and the
 *    memory calls therefore see the same order as a scan of the whole
 *    queue would.
 *  - A ready entry that cannot issue leaves the ready set until the
 *    event that lets it retry: an entry that loses its unit waits for
 *    the pool's next free cycle, and a load blocked behind an older
 *    unexecuted store to the same word waits on that store's issue.
 *    The store wakes it during its own issue walk, so the load can
 *    still issue in the store's cycle.
 *
 * Cycles in which no state can change are skipped: the next visited
 * cycle is the earliest fetch, front-end arrival, commit or wake
 * event. A skip is exact for the stall counters too. They count the
 * cycles a one-cycle-at-a-time walk would visit with zero dispatch:
 * every cycle while a full ROB, IQ or LSQ blocks a dispatchable head
 * or a ready entry waits to retry, but not the cycles in which the
 * head is still in the front end and nothing retries. doDispatch
 * records which counter a visit charges, and a skip adds the skipped
 * cycles to it when that walk would have visited them.
 */

#ifndef PPM_SIM_OOO_CORE_HH
#define PPM_SIM_OOO_CORE_HH

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/config.hh"
#include "sim/functional_units.hh"
#include "sim/memory_hierarchy.hh"
#include "sim/stats.hh"
#include "sim/trace_facts.hh"
#include "trace/trace.hh"

namespace ppm::sim {

/**
 * The core timing model. Construct once per simulation.
 */
class OooCore
{
  public:
    /**
     * @param config Validated processor configuration.
     * @param trace The instruction trace to time.
     * @param facts The facts of @p trace; they must fit @p config's
     *        predictor geometry. Both are held by reference.
     * @throws std::invalid_argument if @p facts do not belong to
     *         @p trace and @p config.
     */
    OooCore(const ProcessorConfig &config, const trace::Trace &trace,
            const TraceFacts &facts);

    /**
     * Run the whole trace.
     *
     * @param warmup_instructions Instructions to execute before
     *        statistics start counting (caches and predictors stay
     *        warm; cycle/instruction counters restart).
     * @return Final statistics over the measured region.
     */
    SimStats run(std::uint64_t warmup_instructions = 0);

  private:
    /** Test seam: reads the private state between visited cycles. */
    friend class OooCoreTestPeer;

    static constexpr Tick kNever = std::numeric_limits<Tick>::max();
    /** End of a slot list. */
    static constexpr int kNoSlot = -1;
    /** End of a dependents list. Links are `consumer slot * 2 + operand`. */
    static constexpr int kNoLink = -1;
    /** Largest ROB (ProcessorConfig::validate()): ready-set width. */
    static constexpr int kMaxRob = 512;
    /** Wake times less than this far ahead go on the timing wheel. */
    static constexpr int kWheelSize = 256;

    struct RobEntry
    {
        std::uint64_t seq = 0;       //!< trace index
        std::uint64_t mem_addr = 0;
        /** Earliest issue cycle once no producer is pending. */
        Tick wake = 0;
        Tick completion = kNever;
        trace::OpClass op = trace::OpClass::IntAlu;
        bool issued = false;
        bool is_mispredicted_branch = false;
        /** Has failed an issue attempt (and so retries until it issues). */
        bool retried = false;
        /** Producers that had not issued at dispatch and still have not. */
        int pending = 0;
        /** This entry's dependents list, newest link first. */
        int first_dependent = kNoLink;
        /** The link after each of this entry's own operand links. */
        int next_dependent[2] = {kNoLink, kNoLink};
        /** Stores: the loads blocked until this store issues. */
        int first_blocked = kNoSlot;
        /** Loads: the next load blocked on the same store. */
        int next_blocked = kNoSlot;
    };

    /** A far wake, keyed by wake time. */
    struct Wakeup
    {
        Tick wake;
        int slot;

        bool operator>(const Wakeup &other) const
        {
            return wake > other.wake;
        }
    };

    // One pipeline stage step each; called once per visited cycle.
    void doFetch();
    void doDispatch();
    void doIssue();
    void doCommit();

    /** Schedule a waiting entry with no pending producer at its wake. */
    void
    scheduleWake(int slot)
    {
        const Tick wake = rob_[static_cast<std::size_t>(slot)].wake;
        assert(wake > now_);
        if (wake - now_ >= static_cast<Tick>(kWheelSize)) {
            scheduleFarWake(slot);
            return;
        }
        const auto bucket = static_cast<std::size_t>(wake % kWheelSize);
        const auto s = static_cast<std::size_t>(slot);
        wheel_[bucket * slot_words_ + s / 64] |= 1ULL << (s % 64);
        wheel_busy_[bucket / 64] |= 1ULL << (bucket % 64);
    }

    /** Put a wake too far ahead for the wheel on the heap. */
    void scheduleFarWake(int slot);

    /** Put @p slot into the ready set. */
    void
    makeReady(int slot)
    {
        const auto s = static_cast<std::size_t>(slot);
        ready_[s / 64] |= 1ULL << (s % 64);
        ++ready_count_;
    }

    /** Count a failed issue attempt of @p entry. */
    void noteRetry(RobEntry &entry);

    /** Attempt to issue one ready entry; parks it if it must wait. */
    bool tryIssueEntry(int slot);

    /**
     * The youngest older in-flight store to @p slot's word that has
     * not issued, or kNoSlot.
     */
    int blockingStore(int slot) const;

    /** Compute a load's completion time (forwarding or memory). */
    Tick loadCompletion(int slot);

    /** Earliest future time at which any state can change. */
    Tick nextEventTime() const;

    /** First ready slot in [lo, hi), or hi. */
    int findReady(int lo, int hi) const;

    /** Earliest wake time on the wheel, or kNever. */
    Tick nextWheelWake() const;

    int robNext(int slot) const { return slot + 1 == rob_size_ ? 0 : slot + 1; }

    /** The slot @p back entries older than @p slot. */
    int
    robBack(int slot, std::uint64_t back) const
    {
        const int s = slot - static_cast<int>(back);
        return s < 0 ? s + rob_size_ : s;
    }

    /** Instructions in the fetch queue. */
    std::uint64_t fetchQueued() const { return fetch_seq_ - dispatch_seq_; }

    /**
     * The body of run(). @p on_cycle is called at the end of every
     * visited cycle, before time advances; run() passes a no-op.
     */
    template <typename OnCycle>
    SimStats runLoop(std::uint64_t warmup_instructions, OnCycle &&on_cycle);

    const ProcessorConfig config_;
    const TraceFacts &facts_;
    // The trace and its facts as plain arrays for the hot loops.
    const trace::TraceInstruction *insts_;
    const TraceFacts::Inst *inst_facts_;
    std::uint64_t trace_size_;

    MemoryHierarchy memory_;
    FunctionalUnits fus_;

    // --- fetch state -------------------------------------------------
    int line_shift_ = 0;
    Tick front_end_depth_ = 0;
    std::uint64_t fetch_seq_ = 0;       //!< next trace index to fetch
    Tick fetch_stall_until_ = 0;        //!< earliest next fetch cycle
    bool fetch_blocked_on_branch_ = false;
    std::uint64_t blocking_branch_seq_ = 0;
    std::uint64_t last_fetch_line_ = ~0ULL;
    /**
     * The fetch queue holds trace indices [dispatch_seq_, fetch_seq_):
     * a ring of their dispatch-ready cycles, indexed by seq & mask.
     */
    std::vector<Tick> fetch_ready_;
    std::uint64_t fetch_ring_mask_ = 0;
    std::uint64_t fetch_queue_capacity_ = 0;
    std::uint64_t dispatch_seq_ = 0;    //!< next trace index to dispatch

    // --- backend state -----------------------------------------------
    std::vector<RobEntry> rob_;
    int rob_size_ = 0;
    int rob_head_ = 0;
    int rob_tail_ = 0;
    int rob_count_ = 0;
    int iq_count_ = 0;
    int lsq_count_ = 0;

    // Each waiting (IQ) entry is in exactly one place: pending on a
    // producer's dependents list, on the wheel or the heap, blocked
    // on a store, or in the ready set.
    /** Words of a ROB-slot bitmask: (rob_size + 63) / 64. */
    std::size_t slot_words_ = 0;
    /** Bucket b (wakes at cycles = b mod kWheelSize): slot_words_ words. */
    std::vector<std::uint64_t> wheel_;
    std::array<std::uint64_t, kWheelSize / 64> wheel_busy_{}; //!< non-empty
    std::vector<Wakeup> wake_heap_;      //!< far wakes, min-heap
    std::array<std::uint64_t, kMaxRob / 64> ready_{}; //!< by ROB slot
    int ready_count_ = 0;
    /**
     * Entries that failed an issue attempt and have not issued. A walk
     * one cycle at a time would retry them on every cycle.
     */
    int retrying_ = 0;

    Tick now_ = 0;
    std::uint64_t committed_ = 0;
    /** Any pipeline activity this cycle (controls event skipping). */
    bool progress_ = false;
    /** The stall counter this cycle's dispatch charged, if any. */
    std::uint64_t SimStats::*stall_ = nullptr;

    SimStats stats_;
    std::uint64_t stat_cycle_base_ = 0;
    std::uint64_t stat_inst_base_ = 0;
};

template <typename OnCycle>
SimStats
OooCore::runLoop(std::uint64_t warmup_instructions, OnCycle &&on_cycle)
{
    const std::uint64_t total = trace_size_;
    warmup_instructions = std::min(warmup_instructions, total / 2);
    bool warm = warmup_instructions == 0;

    // Generous bound: no modeled configuration sustains CPI > ~200.
    const Tick limit = 500 * static_cast<Tick>(total) + 1000000;

    while (committed_ < total) {
        progress_ = false;
        doCommit();
        doIssue();
        doDispatch();
        doFetch();

        if (!warm && committed_ >= warmup_instructions) {
            warm = true;
            stat_cycle_base_ = now_;
            stat_inst_base_ = committed_;
        }
        on_cycle();
        if (committed_ >= total)
            break;

        if (progress_) {
            ++now_;
        } else {
            const Tick next = nextEventTime();
            const Tick target =
                std::max(now_ + 1, next == kNever ? now_ + 1 : next);
            // A resource-blocked head, or an entry waiting to retry,
            // would have had every skipped cycle visited and charged.
            if (stall_ && (stall_ != &SimStats::fetch_empty_stalls ||
                           retrying_ > 0))
                stats_.*stall_ += target - now_ - 1;
            now_ = target;
        }
        if (now_ > limit)
            throw std::runtime_error(
                "OooCore: simulation exceeded cycle bound (deadlock?)");
    }

    stats_.cycles = now_ - stat_cycle_base_;
    stats_.instructions = committed_ - stat_inst_base_;
    stats_.il1 = memory_.il1().stats();
    stats_.dl1 = memory_.dl1().stats();
    stats_.l2 = memory_.l2().stats();
    stats_.branch = facts_.branchStats();
    stats_.memory = memory_.controller().stats();
    return stats_;
}

} // namespace ppm::sim

#endif // PPM_SIM_OOO_CORE_HH
