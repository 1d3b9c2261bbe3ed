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
 *    correct direction inject a fixed decode bubble.
 *  - Dispatch allocates ROB, issue queue and (for memory ops) LSQ
 *    entries in program order, stalling when any is full.
 *  - Issue selects up to issue_width ready instructions oldest-first,
 *    subject to functional unit and cache port availability. Loads
 *    disambiguate against older stores in the LSQ using trace (oracle)
 *    addresses: a matching older store forwards its data; a matching
 *    not-yet-executed store blocks the load.
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
 *  - A producer's completion time is known when it issues. Issuing
 *    raises each dependent's wake time to it; a dependent with no
 *    pending producer left enters a min-heap keyed by wake time.
 *  - Each issue step first moves every heap entry whose wake time has
 *    come into the ready set, which is kept in program (ROB-age)
 *    order, then walks only that set, oldest first. Functional-unit
 *    contention, cache ports and the memory calls therefore see the
 *    same order as a scan of the whole queue would. A load blocked
 *    behind an unexecuted older store to the same word stays in the
 *    ready set, so it issues in the store's cycle.
 *
 * Cycles in which no state can change are skipped: the next visited
 * cycle is the earliest fetch, dispatch, commit or wake event (the
 * heap top, or the next cycle while the ready set is non-empty).
 * Cycles in which dispatch is blocked by a full ROB, IQ or LSQ are not
 * skipped: they are visited one at a time, because the stall counters
 * are charged once per visited cycle.
 */

#ifndef PPM_SIM_OOO_CORE_HH
#define PPM_SIM_OOO_CORE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/branch_predictor.hh"
#include "sim/config.hh"
#include "sim/functional_units.hh"
#include "sim/memory_hierarchy.hh"
#include "sim/stats.hh"
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
     */
    OooCore(const ProcessorConfig &config, const trace::Trace &trace);

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
    static constexpr int kNoProducer = -1;
    /** End of a dependents list. Links are `consumer slot * 2 + operand`. */
    static constexpr int kNoLink = -1;

    struct RobEntry
    {
        std::uint64_t seq = 0;       //!< trace index (generation tag)
        trace::OpClass op = trace::OpClass::IntAlu;
        std::uint64_t mem_addr = 0;
        /** Producers at dispatch; only checks (operandReady()) read them. */
        int producer[2] = {kNoProducer, kNoProducer};
        std::uint64_t producer_seq[2] = {0, 0};
        /** Earliest issue cycle once no producer is pending. */
        Tick wake = 0;
        /** Producers that had not issued at dispatch and still have not. */
        int pending = 0;
        /** This entry's dependents list, newest link first. */
        int first_dependent = kNoLink;
        /** The link after each of this entry's own operand links. */
        int next_dependent[2] = {kNoLink, kNoLink};
        Tick completion = kNever;
        bool issued = false;
        bool is_mispredicted_branch = false;
    };

    /** A waiting entry with no pending producer, keyed by wake time. */
    struct Wakeup
    {
        Tick wake;
        int slot;

        bool operator>(const Wakeup &other) const
        {
            return wake > other.wake;
        }
    };

    struct FetchedInst
    {
        std::uint64_t seq = 0;
        Tick dispatch_ready = 0;
        /** Branch that will redirect the front end at execute. */
        bool mispredicted = false;
    };

    // One pipeline stage step each; called once per simulated cycle.
    void doFetch();
    void doDispatch();
    void doIssue();
    void doCommit();

    /**
     * True when the producer's result is available at time `now_`.
     * The wake lists make this hold at issue; only asserts call it.
     */
    bool operandReady(const RobEntry &entry, int which) const;

    /** Put a waiting entry with no pending producer into the heap. */
    void scheduleWake(int slot);

    /** Attempt to issue one ready entry; returns false if it must wait. */
    bool tryIssueEntry(int slot);

    /** Compute a load's completion time (forwarding or memory). */
    Tick loadCompletion(int slot);

    /** Earliest future time at which any state can change. */
    Tick nextEventTime() const;

    int robNext(int slot) const { return slot + 1 == rob_size_ ? 0 : slot + 1; }

    /**
     * The body of run(). @p on_cycle is called at the end of every
     * visited cycle, before time advances; run() passes a no-op.
     */
    template <typename OnCycle>
    SimStats runLoop(std::uint64_t warmup_instructions, OnCycle &&on_cycle);

    const ProcessorConfig config_;
    const trace::Trace &trace_;

    MemoryHierarchy memory_;
    BranchPredictor predictor_;
    FunctionalUnits fus_;

    // --- fetch state -------------------------------------------------
    std::uint64_t fetch_seq_ = 0;       //!< next trace index to fetch
    Tick fetch_stall_until_ = 0;        //!< earliest next fetch cycle
    bool fetch_blocked_on_branch_ = false;
    std::uint64_t blocking_branch_seq_ = 0;
    std::uint64_t last_fetch_line_ = ~0ULL;
    std::deque<FetchedInst> fetch_queue_;
    std::size_t fetch_queue_capacity_ = 0;

    // --- backend state -----------------------------------------------
    std::vector<RobEntry> rob_;
    int rob_size_ = 0;
    int rob_head_ = 0;
    int rob_tail_ = 0;
    int rob_count_ = 0;
    int iq_count_ = 0;
    int lsq_count_ = 0;
    std::deque<int> lsq_;        //!< memory ops in program order

    // Each waiting (IQ) entry is in exactly one place: pending on a
    // producer's dependents list, in wake_heap_, or in ready_.
    std::vector<Wakeup> wake_heap_; //!< min-heap on wake time
    std::vector<int> ready_;        //!< wake time reached, oldest first

    /** Rename table: ROB slot of each register's last writer. */
    int reg_writer_[trace::kNumArchRegs];
    std::uint64_t reg_writer_seq_[trace::kNumArchRegs];

    Tick now_ = 0;
    std::uint64_t committed_ = 0;
    /** Any pipeline activity this cycle (controls event skipping). */
    bool progress_ = false;

    SimStats stats_;
    std::uint64_t stat_cycle_base_ = 0;
    std::uint64_t stat_inst_base_ = 0;
};

template <typename OnCycle>
SimStats
OooCore::runLoop(std::uint64_t warmup_instructions, OnCycle &&on_cycle)
{
    const std::uint64_t total = trace_.size();
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
            now_ = std::max(now_ + 1, next == kNever ? now_ + 1 : next);
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
    stats_.branch = predictor_.stats();
    stats_.memory = memory_.controller().stats();
    return stats_;
}

} // namespace ppm::sim

#endif // PPM_SIM_OOO_CORE_HH
