#include "sim/ooo_core.hh"

#include <algorithm>
#include <cassert>
#include <functional>

namespace ppm::sim {

using trace::OpClass;
using trace::kNoReg;

namespace {

int
log2Floor(int v)
{
    int shift = 0;
    while ((1 << (shift + 1)) <= v)
        ++shift;
    return shift;
}

/** Forwarding granularity: stores forward to loads within 8 bytes. */
constexpr int kForwardShift = 3;

} // namespace

OooCore::OooCore(const ProcessorConfig &config, const trace::Trace &trace)
    : config_(config), trace_(trace), memory_(config_),
      predictor_(config_), fus_(config_)
{
    config_.validate();
    rob_size_ = config_.rob_size;
    rob_.assign(static_cast<std::size_t>(rob_size_), RobEntry{});
    fetch_queue_capacity_ = static_cast<std::size_t>(
        (config_.frontEndDepth() + 1) * config_.fetch_width);
    wake_heap_.reserve(static_cast<std::size_t>(config_.iq_size));
    ready_.reserve(static_cast<std::size_t>(config_.iq_size));
    for (std::size_t r = 0; r < trace::kNumArchRegs; ++r) {
        reg_writer_[r] = kNoProducer;
        reg_writer_seq_[r] = 0;
    }
}

bool
OooCore::operandReady(const RobEntry &entry, int which) const
{
    const int slot = entry.producer[which];
    if (slot == kNoProducer)
        return true;
    const RobEntry &producer = rob_[static_cast<std::size_t>(slot)];
    if (producer.seq != entry.producer_seq[which])
        return true; // producer already committed; value in the file
    return producer.issued && producer.completion <= now_;
}

void
OooCore::doFetch()
{
    if (fetch_seq_ >= trace_.size() || fetch_blocked_on_branch_)
        return;
    if (now_ < fetch_stall_until_)
        return;

    const int line_shift = log2Floor(config_.line_size);
    int fetched = 0;
    while (fetched < config_.fetch_width &&
           fetch_queue_.size() < fetch_queue_capacity_ &&
           fetch_seq_ < trace_.size()) {
        const trace::TraceInstruction &inst = trace_[fetch_seq_];
        Tick base = now_;
        bool line_missed = false;

        const std::uint64_t line = inst.pc >> line_shift;
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

        FetchedInst fetched_inst;
        fetched_inst.seq = fetch_seq_;
        fetched_inst.dispatch_ready =
            base + static_cast<Tick>(config_.frontEndDepth());

        bool break_group = line_missed;
        if (inst.isBr()) {
            const BranchPrediction pred = predictor_.predict(inst);
            const auto res = predictor_.update(inst, pred);
            if (res.mispredict) {
                fetched_inst.mispredicted = true;
                fetch_blocked_on_branch_ = true;
                blocking_branch_seq_ = fetch_seq_;
                break_group = true;
            } else if (res.btb_bubble) {
                fetch_stall_until_ = std::max(
                    fetch_stall_until_,
                    base + static_cast<Tick>(config_.btb_miss_penalty));
                break_group = true;
            } else if (inst.taken) {
                // Fetch groups end at taken branches.
                break_group = true;
            }
        }

        fetch_queue_.push_back(fetched_inst);
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
    int dispatched = 0;
    while (dispatched < config_.fetch_width && !fetch_queue_.empty()) {
        const FetchedInst &f = fetch_queue_.front();
        if (f.dispatch_ready > now_) {
            if (dispatched == 0)
                ++stats_.fetch_empty_stalls;
            return;
        }
        const trace::TraceInstruction &inst = trace_[f.seq];

        if (rob_count_ == rob_size_) {
            if (dispatched == 0)
                ++stats_.rob_full_stalls;
            return;
        }
        if (iq_count_ >= config_.iq_size) {
            if (dispatched == 0)
                ++stats_.iq_full_stalls;
            return;
        }
        if (inst.isMem() && lsq_count_ >= config_.lsq_size) {
            if (dispatched == 0)
                ++stats_.lsq_full_stalls;
            return;
        }

        const int slot = rob_tail_;
        RobEntry &entry = rob_[static_cast<std::size_t>(slot)];
        entry = RobEntry{};
        entry.seq = f.seq;
        entry.op = inst.op;
        entry.mem_addr = inst.mem_addr;
        entry.wake = now_ + 1;
        entry.is_mispredicted_branch = f.mispredicted;

        for (int k = 0; k < 2; ++k) {
            const trace::RegId reg = inst.src[k];
            if (reg == kNoReg)
                continue;
            const int w = reg_writer_[reg];
            if (w == kNoProducer)
                continue;
            RobEntry &producer = rob_[static_cast<std::size_t>(w)];
            if (producer.seq == reg_writer_seq_[reg] &&
                producer.seq != entry.seq) {
                entry.producer[k] = w;
                entry.producer_seq[k] = producer.seq;
                if (producer.issued) {
                    // Issued or committed: the completion is known.
                    entry.wake = std::max(entry.wake, producer.completion);
                } else {
                    entry.next_dependent[k] = producer.first_dependent;
                    producer.first_dependent = slot * 2 + k;
                    ++entry.pending;
                }
            }
        }
        if (entry.pending == 0)
            scheduleWake(slot);
        if (inst.dest != kNoReg) {
            reg_writer_[inst.dest] = slot;
            reg_writer_seq_[inst.dest] = f.seq;
        }

        rob_tail_ = robNext(rob_tail_);
        ++rob_count_;
        ++iq_count_;
        if (inst.isMem()) {
            lsq_.push_back(slot);
            ++lsq_count_;
        }
        fetch_queue_.pop_front();
        ++dispatched;
        progress_ = true;
    }
}

Tick
OooCore::loadCompletion(int slot)
{
    // Search the youngest older store to the same 8-byte word.
    const RobEntry &load = rob_[static_cast<std::size_t>(slot)];
    const std::uint64_t word = load.mem_addr >> kForwardShift;
    int match = kNoProducer;
    for (int s : lsq_) {
        if (s == slot)
            break;
        const RobEntry &e = rob_[static_cast<std::size_t>(s)];
        if (e.op == OpClass::Store &&
            (e.mem_addr >> kForwardShift) == word) {
            match = s;
        }
    }
    if (match != kNoProducer) {
        const RobEntry &store = rob_[static_cast<std::size_t>(match)];
        if (!store.issued)
            return kNever; // must wait for the store to execute
        return std::max(now_, store.completion) + 1; // forwarding
    }
    return memory_.load(load.mem_addr, now_);
}

void
OooCore::scheduleWake(int slot)
{
    wake_heap_.push_back({rob_[static_cast<std::size_t>(slot)].wake, slot});
    std::push_heap(wake_heap_.begin(), wake_heap_.end(),
                   std::greater<>{});
}

bool
OooCore::tryIssueEntry(int slot)
{
    RobEntry &entry = rob_[static_cast<std::size_t>(slot)];
    assert(entry.pending == 0 && entry.wake <= now_);
    assert(operandReady(entry, 0) && operandReady(entry, 1));

    // Loads blocked behind an unexecuted same-address store must not
    // claim a cache port.
    if (entry.op == OpClass::Load) {
        const std::uint64_t word = entry.mem_addr >> kForwardShift;
        for (int s : lsq_) {
            if (s == slot)
                break;
            const RobEntry &e = rob_[static_cast<std::size_t>(s)];
            if (e.op == OpClass::Store && !e.issued &&
                (e.mem_addr >> kForwardShift) == word) {
                return false;
            }
        }
    }

    if (!fus_.tryIssue(entry.op, now_))
        return false;

    entry.issued = true;
    switch (entry.op) {
      case OpClass::Load:
        entry.completion = loadCompletion(slot);
        assert(entry.completion != kNever);
        break;
      case OpClass::Store:
        entry.completion = now_ + 1; // address/data into the LSQ
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

void
OooCore::doIssue()
{
    // Entries whose wake time has come join the ready set in age order.
    const auto older = [this](std::uint64_t seq, int slot) {
        return seq < rob_[static_cast<std::size_t>(slot)].seq;
    };
    while (!wake_heap_.empty() && wake_heap_.front().wake <= now_) {
        const int slot = wake_heap_.front().slot;
        std::pop_heap(wake_heap_.begin(), wake_heap_.end(),
                      std::greater<>{});
        wake_heap_.pop_back();
        const std::uint64_t seq = rob_[static_cast<std::size_t>(slot)].seq;
        ready_.insert(
            std::upper_bound(ready_.begin(), ready_.end(), seq, older),
            slot);
    }

    int issued = 0;
    std::size_t kept = 0;
    std::size_t i = 0;
    for (; i < ready_.size() && issued < config_.issue_width; ++i) {
        const int slot = ready_[i];
        if (tryIssueEntry(slot)) {
            ++issued;
            --iq_count_;
            progress_ = true;
            continue;
        }
        ready_[kept++] = slot;
    }
    ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(kept),
                 ready_.begin() + static_cast<std::ptrdiff_t>(i));
}

void
OooCore::doCommit()
{
    int done = 0;
    while (done < config_.commit_width && rob_count_ > 0) {
        RobEntry &entry = rob_[static_cast<std::size_t>(rob_head_)];
        if (!entry.issued || entry.completion > now_)
            return;
        if (entry.op == OpClass::Store)
            (void)memory_.store(entry.mem_addr, now_);
        if (entry.op == OpClass::Load || entry.op == OpClass::Store) {
            assert(!lsq_.empty() && lsq_.front() == rob_head_);
            lsq_.pop_front();
            --lsq_count_;
        }
        rob_head_ = robNext(rob_head_);
        --rob_count_;
        ++committed_;
        ++done;
        progress_ = true;
    }
}

Tick
OooCore::nextEventTime() const
{
    Tick t = kNever;
    // Fetch resumption.
    if (!fetch_blocked_on_branch_ && fetch_seq_ < trace_.size() &&
        fetch_queue_.size() < fetch_queue_capacity_) {
        t = std::min(t, std::max(fetch_stall_until_, now_ + 1));
    }
    // Front-end arrival of the next dispatchable instruction.
    if (!fetch_queue_.empty())
        t = std::min(t, fetch_queue_.front().dispatch_ready);
    // Commit of the ROB head.
    if (rob_count_ > 0) {
        const RobEntry &head =
            rob_[static_cast<std::size_t>(rob_head_)];
        if (head.issued)
            t = std::min(t, head.completion);
    }
    // Wakeups of waiting instructions: a ready entry that could not
    // issue retries next cycle, otherwise the earliest wake time.
    if (!ready_.empty())
        t = std::min(t, now_);
    else if (!wake_heap_.empty())
        t = std::min(t, wake_heap_.front().wake);
    return t;
}

SimStats
OooCore::run(std::uint64_t warmup_instructions)
{
    return runLoop(warmup_instructions, [] {});
}

} // namespace ppm::sim
