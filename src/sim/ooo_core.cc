#include "sim/ooo_core.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>

namespace ppm::sim {

using trace::OpClass;

namespace {

int
log2Floor(int v)
{
    int shift = 0;
    while ((1 << (shift + 1)) <= v)
        ++shift;
    return shift;
}

} // namespace

OooCore::OooCore(const ProcessorConfig &config, const trace::Trace &trace,
                 const TraceFacts &facts)
    : config_(config), facts_(facts), insts_(trace.instructions().data()),
      inst_facts_(facts.data()), trace_size_(trace.size()),
      memory_(config_), fus_(config_)
{
    config_.validate();
    if (facts_.size() != trace_size_ || !facts_.fits(config_))
        throw std::invalid_argument(
            "OooCore: facts of another trace or predictor geometry");
    line_shift_ = log2Floor(config_.line_size);
    front_end_depth_ = static_cast<Tick>(config_.frontEndDepth());
    rob_size_ = config_.rob_size;
    rob_.assign(static_cast<std::size_t>(rob_size_), RobEntry{});
    fetch_queue_capacity_ = static_cast<std::uint64_t>(
        (config_.frontEndDepth() + 1) * config_.fetch_width);
    fetch_ready_.assign(std::bit_ceil(fetch_queue_capacity_), 0);
    fetch_ring_mask_ = fetch_ready_.size() - 1;
    slot_words_ = static_cast<std::size_t>((rob_size_ + 63) / 64);
    wheel_.assign(kWheelSize * slot_words_, 0);
}

void
OooCore::doFetch()
{
    if (fetch_seq_ >= trace_size_ || fetch_blocked_on_branch_)
        return;
    if (now_ < fetch_stall_until_)
        return;

    int fetched = 0;
    while (fetched < config_.fetch_width &&
           fetchQueued() < fetch_queue_capacity_ &&
           fetch_seq_ < trace_size_) {
        const trace::TraceInstruction &inst = insts_[fetch_seq_];
        Tick base = now_;
        bool line_missed = false;

        const std::uint64_t line = inst.pc >> line_shift_;
        if (line != last_fetch_line_) {
            const Tick ready = memory_.fetchInstruction(inst.pc, now_);
            last_fetch_line_ = line;
            if (ready > now_ + static_cast<Tick>(config_.il1_lat)) {
                // IL1 miss: this group completes when the line lands.
                base = ready;
                fetch_stall_until_ = ready;
                line_missed = true;
            }
        }
        fetch_ready_[fetch_seq_ & fetch_ring_mask_] =
            base + front_end_depth_;

        bool break_group = line_missed;
        if (inst.isBr()) {
            switch (inst_facts_[fetch_seq_].branch) {
              case TraceFacts::kMispredict:
                fetch_blocked_on_branch_ = true;
                blocking_branch_seq_ = fetch_seq_;
                break_group = true;
                break;
              case TraceFacts::kBtbBubble:
                fetch_stall_until_ = std::max(
                    fetch_stall_until_,
                    base + static_cast<Tick>(config_.btb_miss_penalty));
                break_group = true;
                break;
              default:
                // Fetch groups end at taken branches.
                break_group = break_group || inst.taken;
                break;
            }
        }

        ++fetch_seq_;
        ++fetched;
        progress_ = true;
        if (break_group)
            break;
    }
}

void
OooCore::doDispatch()
{
    stall_ = nullptr;
    int dispatched = 0;
    while (dispatched < config_.fetch_width && fetchQueued() > 0) {
        const std::uint64_t seq = dispatch_seq_;
        std::uint64_t SimStats::*stall = nullptr;
        const trace::TraceInstruction &inst = insts_[seq];
        if (fetch_ready_[seq & fetch_ring_mask_] > now_)
            stall = &SimStats::fetch_empty_stalls;
        else if (rob_count_ == rob_size_)
            stall = &SimStats::rob_full_stalls;
        else if (iq_count_ >= config_.iq_size)
            stall = &SimStats::iq_full_stalls;
        else if (lsq_count_ >= config_.lsq_size && inst.isMem())
            stall = &SimStats::lsq_full_stalls;
        if (stall) {
            if (dispatched == 0) {
                stall_ = stall;
                ++(stats_.*stall);
            }
            return;
        }

        const TraceFacts::Inst &facts = inst_facts_[seq];
        const int slot = rob_tail_;
        RobEntry &entry = rob_[static_cast<std::size_t>(slot)];
        entry = RobEntry{.seq = seq,
                         .mem_addr = inst.mem_addr,
                         .wake = now_ + 1,
                         .op = inst.op,
                         .is_mispredicted_branch =
                             facts.branch == TraceFacts::kMispredict};

        // A producer is in flight iff it is no older than the ROB head.
        for (int k = 0; k < 2; ++k) {
            const std::uint16_t back = facts.producer[k];
            if (back == TraceFacts::kNoLink || back > rob_count_)
                continue;
            const int p = robBack(slot, back);
            RobEntry &producer = rob_[static_cast<std::size_t>(p)];
            if (producer.issued) {
                // The completion is known.
                entry.wake = std::max(entry.wake, producer.completion);
            } else {
                entry.next_dependent[k] = producer.first_dependent;
                producer.first_dependent = slot * 2 + k;
                ++entry.pending;
            }
        }
        if (entry.pending == 0)
            scheduleWake(slot);

        rob_tail_ = robNext(rob_tail_);
        ++rob_count_;
        ++iq_count_;
        lsq_count_ += inst.isMem();
        ++dispatch_seq_;
        ++dispatched;
        progress_ = true;
    }
}

int
OooCore::blockingStore(int slot) const
{
    const std::uint64_t seq = rob_[static_cast<std::size_t>(slot)].seq;
    const std::uint64_t in_flight = seq - committed_; // older entries
    // Walk the same-word stores youngest first while they are in flight.
    std::uint64_t back = inst_facts_[seq].prev_store;
    while (back != TraceFacts::kNoLink && back <= in_flight) {
        const int s = robBack(slot, back);
        if (!rob_[static_cast<std::size_t>(s)].issued)
            return s;
        const std::uint16_t next = inst_facts_[seq - back].prev_store;
        if (next == TraceFacts::kNoLink)
            break;
        back += next;
    }
    return kNoSlot;
}

Tick
OooCore::loadCompletion(int slot)
{
    // The youngest older store to the same word forwards if in flight.
    const RobEntry &load = rob_[static_cast<std::size_t>(slot)];
    const std::uint16_t back = inst_facts_[load.seq].prev_store;
    if (back != TraceFacts::kNoLink && back <= load.seq - committed_) {
        const RobEntry &store = rob_[static_cast<std::size_t>(
            robBack(slot, back))];
        assert(store.issued);
        return std::max(now_, store.completion) + 1; // forwarding
    }
    return memory_.load(load.mem_addr, now_);
}

void
OooCore::scheduleFarWake(int slot)
{
    wake_heap_.push_back({rob_[static_cast<std::size_t>(slot)].wake, slot});
    std::push_heap(wake_heap_.begin(), wake_heap_.end(),
                   std::greater<>{});
}

void
OooCore::noteRetry(RobEntry &entry)
{
    if (!entry.retried) {
        entry.retried = true;
        ++retrying_;
    }
}

bool
OooCore::tryIssueEntry(int slot)
{
    RobEntry &entry = rob_[static_cast<std::size_t>(slot)];
    assert(entry.pending == 0 && entry.wake <= now_);

    // Loads blocked behind an unexecuted same-address store must not
    // claim a cache port: they wait for that store to issue.
    if (entry.op == OpClass::Load) {
        const int store = blockingStore(slot);
        if (store != kNoSlot) {
            RobEntry &blocker = rob_[static_cast<std::size_t>(store)];
            entry.next_blocked = blocker.first_blocked;
            blocker.first_blocked = slot;
            noteRetry(entry);
            return false;
        }
    }

    if (!fus_.tryIssue(entry.op, now_)) {
        // Retry when the pool next has a free unit.
        entry.wake = fus_.nextFree(entry.op);
        noteRetry(entry);
        scheduleWake(slot);
        return false;
    }

    entry.issued = true;
    retrying_ -= entry.retried;
    switch (entry.op) {
      case OpClass::Load:
        entry.completion = loadCompletion(slot);
        break;
      case OpClass::Store:
        entry.completion = now_ + 1; // address/data into the LSQ
        // The loads it blocked retry in this issue walk: they are
        // younger, so the walk has yet to reach them.
        for (int load = entry.first_blocked; load != kNoSlot;) {
            const int next =
                rob_[static_cast<std::size_t>(load)].next_blocked;
            makeReady(load);
            load = next;
        }
        entry.first_blocked = kNoSlot;
        break;
      default:
        entry.completion =
            now_ + static_cast<Tick>(fus_.latency(entry.op));
        break;
    }

    if (entry.is_mispredicted_branch) {
        // Redirect: fetch restarts when the branch executes.
        assert(fetch_blocked_on_branch_ &&
               blocking_branch_seq_ == entry.seq);
        fetch_blocked_on_branch_ = false;
        fetch_stall_until_ = entry.completion;
        // The next fetch group starts at a new line.
        last_fetch_line_ = ~0ULL;
    }

    // Wake the dependents: the completion time is now known.
    for (int link = entry.first_dependent; link != kNoLink;) {
        const int consumer_slot = link / 2;
        RobEntry &consumer = rob_[static_cast<std::size_t>(consumer_slot)];
        link = consumer.next_dependent[link % 2];
        consumer.wake = std::max(consumer.wake, entry.completion);
        if (--consumer.pending == 0)
            scheduleWake(consumer_slot);
    }
    return true;
}

int
OooCore::findReady(int lo, int hi) const
{
    if (lo >= hi)
        return hi;
    std::size_t w = static_cast<std::size_t>(lo / 64);
    std::uint64_t bits = ready_[w] & (~0ULL << (lo % 64));
    const std::size_t last = static_cast<std::size_t>((hi - 1) / 64);
    while (bits == 0) {
        if (++w > last)
            return hi;
        bits = ready_[w];
    }
    const int slot = static_cast<int>(w * 64) + std::countr_zero(bits);
    return std::min(slot, hi);
}

void
OooCore::doIssue()
{
    // Entries whose wake time has come join the ready set.
    const auto bucket = static_cast<std::size_t>(now_ % kWheelSize);
    if (wheel_busy_[bucket / 64] & (1ULL << (bucket % 64))) {
        std::uint64_t *due = &wheel_[bucket * slot_words_];
        for (std::size_t w = 0; w < slot_words_; ++w) {
            ready_[w] |= due[w];
            ready_count_ += std::popcount(due[w]);
            due[w] = 0;
        }
        wheel_busy_[bucket / 64] &= ~(1ULL << (bucket % 64));
    }
    while (!wake_heap_.empty() && wake_heap_.front().wake <= now_) {
        const int slot = wake_heap_.front().slot;
        std::pop_heap(wake_heap_.begin(), wake_heap_.end(),
                      std::greater<>{});
        wake_heap_.pop_back();
        makeReady(slot);
    }

    // Oldest first: from the ROB head to the end, then wrapped.
    int issued = 0;
    const auto walk = [&](int lo, int hi) {
        for (int slot = lo; ready_count_ > 0; ++slot) {
            slot = findReady(slot, hi);
            if (slot == hi)
                break;
            ready_[static_cast<std::size_t>(slot / 64)] &=
                ~(1ULL << (slot % 64));
            --ready_count_;
            if (!tryIssueEntry(slot))
                continue;
            --iq_count_;
            progress_ = true;
            if (++issued == config_.issue_width) {
                // Untried entries stay ready for the next cycle.
                return false;
            }
        }
        return true;
    };
    if (walk(rob_head_, rob_size_))
        walk(0, rob_head_);
}

void
OooCore::doCommit()
{
    int done = 0;
    while (done < config_.commit_width && rob_count_ > 0) {
        const RobEntry &entry = rob_[static_cast<std::size_t>(rob_head_)];
        // An entry that has not issued completes at kNever.
        if (entry.completion > now_)
            return;
        if (entry.op == OpClass::Store)
            (void)memory_.store(entry.mem_addr, now_);
        lsq_count_ -= trace::isMemory(entry.op);
        rob_head_ = robNext(rob_head_);
        --rob_count_;
        ++committed_;
        ++done;
        progress_ = true;
    }
}

Tick
OooCore::nextWheelWake() const
{
    // Buckets hold wakes in (now, now + kWheelSize): search circularly
    // from the bucket of now + 1.
    const auto start = static_cast<std::size_t>((now_ + 1) % kWheelSize);
    constexpr std::size_t kWords = kWheelSize / 64;
    for (std::size_t i = 0; i <= kWords; ++i) {
        const std::size_t w = (start / 64 + i) % kWords;
        std::uint64_t bits = wheel_busy_[w];
        if (i == 0)
            bits &= ~0ULL << (start % 64);
        else if (i == kWords)
            bits &= ~(~0ULL << (start % 64));
        if (bits == 0)
            continue;
        const std::size_t bucket = w * 64 +
            static_cast<std::size_t>(std::countr_zero(bits));
        return now_ + 1 + (bucket + kWheelSize - start) % kWheelSize;
    }
    return kNever;
}

Tick
OooCore::nextEventTime() const
{
    Tick t = kNever;
    // Fetch resumption.
    if (!fetch_blocked_on_branch_ && fetch_seq_ < trace_size_ &&
        fetchQueued() < fetch_queue_capacity_) {
        t = std::min(t, std::max(fetch_stall_until_, now_ + 1));
    }
    // Front-end arrival of the next dispatchable instruction. A head
    // that has arrived waits on a commit or an issue instead.
    if (fetchQueued() > 0) {
        const Tick ready = fetch_ready_[dispatch_seq_ & fetch_ring_mask_];
        if (ready > now_)
            t = std::min(t, ready);
    }
    // Commit of the ROB head.
    if (rob_count_ > 0) {
        const RobEntry &head =
            rob_[static_cast<std::size_t>(rob_head_)];
        if (head.issued)
            t = std::min(t, head.completion);
    }
    // Wakeups: ready entries the issue width left untried retry next
    // cycle; otherwise the earliest wake on the wheel or the heap.
    if (ready_count_ > 0)
        t = std::min(t, now_ + 1);
    t = std::min(t, nextWheelWake());
    if (!wake_heap_.empty())
        t = std::min(t, wake_heap_.front().wake);
    return t;
}

SimStats
OooCore::run(std::uint64_t warmup_instructions)
{
    return runLoop(warmup_instructions, [] {});
}

} // namespace ppm::sim
