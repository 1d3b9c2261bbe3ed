#include "train/online_trainer.hh"

#include <algorithm>
#include <cmath>
#include <exception>
#include <system_error>
#include <utility>

#include "obs/event_log.hh"
#include "obs/trace_span.hh"
#include "serve/result_archive.hh"
#include "serve/wire_codec.hh"
#include "util/crc32.hh"
#include "util/file_io.hh"

namespace ppm::train {

using core::SimulatorOracle;

namespace {

/**
 * Relative-error floor of the prequential refit trigger: with a tiny
 * training set the k-fold CV error can be 0 (unknown), and without a
 * floor every fresh point would trigger a full refit.
 */
constexpr double kErrorFloor = 0.02;

/** State files are small; cap guards against garbage length words. */
constexpr std::uint32_t kMaxStatePayload = 1u << 28;

} // namespace

rbf::TrainerOptions
onlineRefitOptions(std::size_t points)
{
    rbf::TrainerOptions options; // the paper's full grids
    if (points > 256) {
        // Candidate centers scale ~ 2 n / p_min; growing p_min with n
        // and capping selected centers bounds the refit cost so the
        // trainer keeps up with an unbounded archive. Model capacity
        // between refits comes from the incremental fold path.
        const int p = static_cast<int>(points / 256);
        options.p_min_grid = {p, 2 * p};
        options.alpha_grid = {4, 8, 12};
        options.max_centers = 256;
    }
    return options;
}

OnlineTrainer::OnlineTrainer(dspace::DesignSpace space,
                             OnlineTrainerOptions options)
    : space_(std::move(space)), options_(std::move(options))
{
    context_ = serve::ResultArchive::contextFor(
        options_.benchmark, options_.trace_length, options_.warmup,
        options_.metric);
    loadState();
    folds_ = points_.size();
    if (points_.size() >= options_.min_train_points) {
        // Rebuild the model deterministically from the persisted
        // points: the incremental Cholesky state is derived, never
        // stored, so a restart cannot resurrect stale weights.
        fullRefit();
    }
}

void
OnlineTrainer::addArchive(const std::string &path)
{
    auto tailer =
        std::make_unique<serve::ArchiveTailer>(path, context_);
    const auto it = offsets_.find(path);
    if (it != offsets_.end())
        tailer->seek(it->second);
    else
        offsets_.emplace(path, 0);
    tailers_.push_back(std::move(tailer));
}

bool
OnlineTrainer::acceptRecord(const Key &key, double value,
                            std::vector<const Key *> &fresh)
{
    if (key.size() != space_.size())
        return false; // foreign record
    if (!space_.contains(SimulatorOracle::pointFromKey(key)))
        return false; // out-of-space record
    const auto [it, inserted] = points_.emplace(key, value);
    if (!inserted)
        return false; // duplicate point (another shard got it first)
    fresh.push_back(&it->first);
    return true;
}

std::size_t
OnlineTrainer::step()
{
    obs::TraceRoot trace_root("train.root");
    OBS_SPAN("train.step");
    std::vector<const Key *> fresh;
    for (const auto &tailer : tailers_) {
        for (const auto &record : tailer->poll())
            acceptRecord(record.key, record.value, fresh);
        offsets_[tailer->path()] = tailer->offset();
    }
    // Canonical fold order: sorted by memo key, independent of shard
    // count and append interleaving within the epoch.
    std::sort(fresh.begin(), fresh.end(),
              [](const Key *a, const Key *b) { return *a < *b; });

    if (fit_) {
        OBS_SPAN("train.fold_epoch");
        for (const Key *key : fresh) {
            const dspace::UnitPoint x =
                space_.toUnit(SimulatorOracle::pointFromKey(*key));
            const double y = points_.at(*key);
            // Prequential (test-then-train) scoring: the model is
            // judged on each point before learning from it.
            const double pred = fit_->predict(x);
            preq_err_sum_ +=
                std::abs(pred - y) / std::max(std::abs(y), 1e-12);
            ++preq_n_;
            fit_->fold(x, y);
            model_dirty_ = true;
        }
    }
    folds_ = points_.size();
    if (!fresh.empty()) {
        OBS_STATIC_COUNTER(fold_count, "train.folds");
        OBS_ADD(fold_count, fresh.size());
    }

    bool refit_needed = false;
    if (!fit_) {
        refit_needed = points_.size() >= options_.min_train_points;
    } else if (!fresh.empty()) {
        const auto growth_at = static_cast<std::size_t>(
            options_.refit_growth *
            static_cast<double>(points_at_refit_));
        if (points_.size() >= growth_at &&
            points_.size() > points_at_refit_)
            refit_needed = true;
        else if (preq_n_ >= options_.refit_error_min &&
                 prequentialError() >
                     options_.refit_error_ratio *
                         std::max(cv_error_, kErrorFloor))
            refit_needed = true;
    }
    if (refit_needed)
        fullRefit();

    if (!fresh.empty() || refit_needed)
        persistState();
    if (model_dirty_ && armed_ && !options_.out_path.empty())
        publish();
    return fresh.size();
}

double
OnlineTrainer::prequentialError() const
{
    return preq_n_ > 0
               ? preq_err_sum_ / static_cast<double>(preq_n_)
               : 0.0;
}

std::uint64_t
OnlineTrainer::tailRetries() const
{
    std::uint64_t total = 0;
    for (const auto &tailer : tailers_)
        total += tailer->retries();
    return total;
}

void
OnlineTrainer::fullRefit()
{
    OBS_SPAN("train.refit");
    std::vector<dspace::UnitPoint> xs;
    std::vector<double> ys;
    xs.reserve(points_.size());
    ys.reserve(points_.size());
    for (const auto &[key, value] : points_) {
        xs.push_back(space_.toUnit(SimulatorOracle::pointFromKey(key)));
        ys.push_back(value);
    }
    const rbf::TrainerOptions refit_options =
        options_.refit_options
            ? *options_.refit_options
            : onlineRefitOptions(points_.size());
    rbf::TrainedRbf trained;
    try {
        trained = rbf::trainRbfModel(xs, ys, refit_options);
    } catch (const std::exception &e) {
        // A degenerate sample (e.g. duplicates only) can defeat tree
        // construction. With a live model we keep folding on the old
        // centers; without one there is nothing to fall back to.
        obs::logEvent(obs::LogLevel::Warn, "train", "refit_failed",
                      {{"error", e.what()},
                       {"points", points_.size()}});
        if (!fit_)
            throw;
        points_at_refit_ = points_.size();
        preq_err_sum_ = 0.0;
        preq_n_ = 0;
        return;
    }
    p_min_ = trained.p_min;
    alpha_ = trained.alpha;
    linear_ = linreg::fitSelectedLinearModel(xs, ys).model;
    cv_error_ = rbf::crossValidatedError(xs, ys, refit_options,
                                         trained.p_min, trained.alpha);

    // Re-seed the streaming state over the new centers by refolding
    // the whole canonical point set: the published weights always
    // come from the same rank-1 path later folds extend, so every
    // snapshot is reproducible from the point set alone. The
    // selection pass's least-squares weights are discarded.
    fit_ = std::make_unique<rbf::IncrementalFit>(
        trained.network.bases(), options_.ridge);
    for (const auto &[key, value] : points_)
        fit_->fold(space_.toUnit(SimulatorOracle::pointFromKey(key)), value);

    points_at_refit_ = points_.size();
    preq_err_sum_ = 0.0;
    preq_n_ = 0;
    ++refits_;
    model_dirty_ = true;
    OBS_STATIC_COUNTER(refit_count, "train.refits");
    OBS_ADD(refit_count, 1);
    obs::logEvent(obs::LogLevel::Info, "train", "refit",
                  {{"points", points_.size()},
                   {"centers", fit_->numBases()},
                   {"cv_error", cv_error_}});
}

void
OnlineTrainer::publish()
{
    OBS_SPAN("train.publish");
    std::uint64_t version = options_.model_version;
    if (version == 0) {
        version = model_version_;
        try {
            version = std::max(
                version,
                serve::loadSnapshot(options_.out_path).model_version);
        } catch (const serve::SnapshotError &) {
            // absent or unreadable: derive from trainer state alone
        }
        ++version;
    }

    serve::ModelSnapshot snap;
    snap.model_version = version;
    snap.benchmark = options_.benchmark;
    snap.metric = options_.metric;
    snap.trace_length = options_.trace_length;
    snap.warmup = options_.warmup;
    snap.train_points = static_cast<std::uint32_t>(points_.size());
    snap.p_min = static_cast<std::uint32_t>(p_min_);
    snap.alpha = alpha_;
    snap.cv_error = cv_error_;
    snap.space = space_;
    snap.network = fit_->network();
    snap.linear = linear_;
    serve::saveSnapshot(snap, options_.out_path);

    model_version_ = version;
    last_published_ = std::move(snap);
    ++publishes_;
    model_dirty_ = false;
    OBS_STATIC_COUNTER(publish_count, "train.publishes");
    OBS_ADD(publish_count, 1);
    obs::logEvent(obs::LogLevel::Info, "train", "publish",
                  {{"version", model_version_},
                   {"points", points_.size()},
                   {"cv_error", cv_error_}});
    // Record the published version in the checkpoint so a restart
    // derives a strictly newer one even if the snapshot file is
    // replaced out from under us.
    persistState();
}

void
OnlineTrainer::loadState()
{
    if (options_.state_path.empty())
        return;
    std::vector<std::uint8_t> bytes;
    try {
        bytes = util::readFile(options_.state_path);
    } catch (const std::system_error &e) {
        if (e.code() == std::errc::no_such_file_or_directory)
            return; // first run
        throw TrainerStateError(e.what());
    }

    try {
        serve::PayloadReader image(bytes.data(), bytes.size());
        if (image.u32() != kStateMagic)
            throw TrainerStateError("not a trainer state file: " +
                                    options_.state_path);
        if (image.u16() != kStateVersion)
            throw TrainerStateError(
                "unsupported trainer state version in " +
                options_.state_path);
        const std::uint32_t payload_len = image.u32();
        if (payload_len > kMaxStatePayload ||
            payload_len > image.remaining())
            throw TrainerStateError("trainer state truncated: " +
                                    options_.state_path);
        const std::uint8_t *payload = image.bytes(payload_len);
        if (image.u32() != util::crc32(payload, payload_len))
            throw TrainerStateError("trainer state corrupt: " +
                                    options_.state_path);
        image.expectEnd();

        serve::PayloadReader in(payload, payload_len);
        if (in.str() != context_)
            throw TrainerStateError(
                "trainer state context mismatch in " +
                options_.state_path);
        model_version_ = in.u64();
        const std::uint64_t folds = in.u64();
        const std::uint32_t num_archives = in.u32();
        for (std::uint32_t i = 0; i < num_archives; ++i) {
            std::string path = in.str();
            const std::uint64_t offset = in.u64();
            offsets_[std::move(path)] = offset;
        }
        const std::uint64_t num_points = in.u64();
        for (std::uint64_t i = 0; i < num_points; ++i) {
            const std::uint32_t key_len = in.u32();
            Key key(key_len);
            for (auto &k : key)
                k = static_cast<std::int64_t>(in.u64());
            const double value = in.f64();
            points_.emplace(std::move(key), value);
        }
        in.expectEnd();
        if (folds != points_.size())
            throw TrainerStateError(
                "trainer state fold count mismatch in " +
                options_.state_path);
    } catch (const serve::ProtocolError &e) {
        throw TrainerStateError("trainer state corrupt (" +
                                std::string(e.what()) + "): " +
                                options_.state_path);
    }
}

void
OnlineTrainer::persistState() const
{
    if (options_.state_path.empty())
        return;
    serve::PayloadWriter out;
    out.str(context_);
    out.u64(model_version_);
    out.u64(points_.size());
    out.u32(static_cast<std::uint32_t>(offsets_.size()));
    for (const auto &[path, offset] : offsets_) {
        out.str(path);
        out.u64(offset);
    }
    out.u64(points_.size());
    for (const auto &[key, value] : points_) {
        out.u32(static_cast<std::uint32_t>(key.size()));
        for (std::int64_t k : key)
            out.u64(static_cast<std::uint64_t>(k));
        out.f64(value);
    }
    const std::vector<std::uint8_t> payload = out.take();

    serve::PayloadWriter image;
    image.u32(kStateMagic);
    image.u16(kStateVersion);
    image.u32(static_cast<std::uint32_t>(payload.size()));
    image.bytes(payload.data(), payload.size());
    image.u32(util::crc32(payload.data(), payload.size()));
    // Atomic checkpoint: a SIGKILL at any instant leaves either the
    // complete old state or the complete new one.
    try {
        util::replaceFile(options_.state_path, image.take());
    } catch (const std::system_error &e) {
        throw TrainerStateError(e.what());
    }
}

} // namespace ppm::train
