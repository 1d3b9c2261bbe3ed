/**
 * @file
 * OnlineTrainer: the producer-side continuous-training subsystem.
 *
 * ppm_serve shards append every simulation result to per-shard
 * ResultArchive files; the serve plane's DriftMonitor can tell when
 * the published model has fallen behind that stream but cannot heal
 * it. OnlineTrainer closes the loop:
 *
 *     archive tail -> incremental refit -> snapshot republish
 *
 * Each step() polls an ArchiveTailer per shard archive from a
 * persisted byte offset, folds the *new unique* design points into
 * the RBF output weights by rank-1 Cholesky updates
 * (rbf::IncrementalFit — O(m^2) per point instead of a full
 * tree-build + subset-selection retrain), and republishes a format-2
 * `.ppmm` snapshot through the same atomic temp+fsync+rename path
 * ppm_publish uses, so a watching `ppm_serve --predict` hot-swaps to
 * it with zero downtime.
 *
 * Canonical fold ordering
 * -----------------------
 * Points accumulate in a std::map keyed by the archive's integer
 * memo key (lexicographic order); each epoch folds its fresh points
 * in sorted-key order, and full refits refold the entire map in that
 * same order. The fold sequence — and therefore every weight and
 * every published snapshot byte — depends only on the *set* of
 * points per epoch, not on shard count, append interleaving, thread
 * count, or poll timing within the epoch. Duplicate keys (the same
 * point simulated by several shards) fold exactly once; simulation
 * is deterministic so later duplicates carry the same value and are
 * dropped.
 *
 * Full-refit triggers (center re-selection)
 * -----------------------------------------
 * Incremental folds reuse the current centers; two triggers force a
 * full trainRbfModel() pass (new tree, new subset selection, fresh
 * deterministic k-fold CV error, new linear baseline):
 *
 *   - growth: the point count reached refit_growth x the count at
 *     the previous refit (first fit at min_train_points), or
 *   - error: the prequential (test-then-train: each fresh point is
 *     predicted *before* being folded) mean relative error since the
 *     last refit exceeds refit_error_ratio x that refit's CV error,
 *     over at least refit_error_min fresh points.
 *
 * Crash safety
 * ------------
 * After folding, step() atomically persists a state file (offsets +
 * accumulated point set + counters, CRC-checked; see kStateMagic)
 * and only then republishes. A restart loads the state, seeks each
 * tailer to its persisted offset, and rebuilds the model from the
 * persisted points with one deterministic full refit — so a SIGKILL
 * at any instant (mid-fold, mid-persist, mid-publish) never double
 * counts or skips a point: folds() always equals the number of
 * distinct points ever tailed. Snapshot and state writes are both
 * temp+fsync+rename, so neither file is ever observed torn.
 *
 * Metrics: train.folds / train.refits / train.publishes /
 * train.tail.records / train.tail.retries counters; spans
 * train.step, train.fold_epoch (one epoch's folds; each single fold
 * is train.fold), train.refit, train.publish, train.tail. Each step()
 * opens the trace root train.root, so with PPM_TRACE_SAMPLE=N every
 * Nth step is exported whole through the SpanBuffer.
 */

#ifndef PPM_TRAIN_ONLINE_TRAINER_HH
#define PPM_TRAIN_ONLINE_TRAINER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/oracle.hh"
#include "dspace/design_space.hh"
#include "linreg/model_selection.hh"
#include "rbf/incremental.hh"
#include "rbf/trainer.hh"
#include "serve/archive_tail.hh"
#include "serve/model_snapshot.hh"

namespace ppm::train {

/** Magic of the trainer state (checkpoint) file: "PPMT". */
inline constexpr std::uint32_t kStateMagic = 0x50504D54u;

/** State-file format version this build reads and writes. */
inline constexpr std::uint16_t kStateVersion = 1;

/** Corrupt or mismatched trainer state file. */
class TrainerStateError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

struct OnlineTrainerOptions
{
    /** Oracle identity; must match the tailed archives' context. */
    std::string benchmark = "twolf";
    std::uint64_t trace_length = 100000;
    std::uint64_t warmup = 0;
    core::Metric metric = core::Metric::Cpi;

    /**
     * Checkpoint file for offsets + points + counters; empty keeps
     * state in memory only (no crash resume).
     */
    std::string state_path;

    /**
     * Snapshot to republish after each epoch that changed the model;
     * empty trains without publishing.
     */
    std::string out_path;

    /**
     * Fixed model_version to publish (determinism harnesses); 0
     * derives a monotone version from the state file and any
     * existing out_path snapshot, +1 per publish.
     */
    std::uint64_t model_version = 0;

    /** Points required before the first full fit. */
    std::size_t min_train_points = 8;

    /** Growth-trigger factor (see file comment). */
    double refit_growth = 2.0;

    /** Error-trigger ratio over the last refit's CV error. */
    double refit_error_ratio = 2.0;

    /** Minimum prequential samples before the error trigger fires. */
    std::size_t refit_error_min = 16;

    /** Ridge damping of the streamed normal equations. */
    double ridge = rbf::kIncrementalRidge;

    /**
     * Hyperparameter grids for full refits. The default shrinks with
     * sample size (see onlineRefitOptions()); pin it here to
     * override.
     */
    std::optional<rbf::TrainerOptions> refit_options;
};

/**
 * Full-refit hyperparameter grids scaled to @p points: the paper's
 * full grid for small samples, then a coarser grid with p_min
 * growing ~ points/256 and capped centers, keeping the refit cost
 * bounded as the archive grows (the incremental fold path is what
 * tracks the stream between refits).
 */
rbf::TrainerOptions onlineRefitOptions(std::size_t points);

class OnlineTrainer
{
  public:
    /**
     * @param space   The design space archive points must lie in
     *                (foreign records are skipped, as in
     *                ppm_publish --archive).
     * @param options See OnlineTrainerOptions. Loads state_path if
     *                it exists (rebuilding the model deterministically
     *                from the persisted points) and validates its
     *                context against the oracle identity.
     * @throws TrainerStateError on a corrupt or mismatched state
     *         file.
     */
    OnlineTrainer(dspace::DesignSpace space,
                  OnlineTrainerOptions options);

    OnlineTrainer(const OnlineTrainer &) = delete;
    OnlineTrainer &operator=(const OnlineTrainer &) = delete;

    /**
     * Tail @p path (created lazily by its shard; may not exist yet),
     * resuming from the state file's persisted offset for that path.
     */
    void addArchive(const std::string &path);

    /**
     * One epoch: poll every archive, fold fresh unique points in
     * canonical order (with prequential scoring), run a full refit if
     * a trigger fired, persist state, republish the snapshot if the
     * model changed and publishing is armed. Returns the number of
     * fresh points folded this epoch.
     * @throws serve::ArchiveError / TrainerStateError /
     *         serve::SnapshotError on unrecoverable failures.
     */
    std::size_t step();

    /**
     * Publishing gate (the drift-event arming hook): while disarmed,
     * step() keeps tailing, folding, and persisting state but leaves
     * the snapshot untouched; arming makes the next step() republish
     * the accumulated model. Trainers start armed; `ppm_trainer
     * --arm-on-drift` starts disarmed and arms on a drift event.
     */
    void setArmed(bool armed) { armed_ = armed; }
    bool armed() const { return armed_; }

    /** Distinct design points ever folded (== exact unique tailed). */
    std::uint64_t folds() const { return folds_; }

    /** Full center re-selection passes run (including restarts). */
    std::uint64_t refits() const { return refits_; }

    /** Snapshots published. */
    std::uint64_t publishes() const { return publishes_; }

    /** Version of the last published snapshot (0 = none yet). */
    std::uint64_t modelVersion() const { return model_version_; }

    /** Deterministic k-fold CV error of the last full refit. */
    double cvError() const { return cv_error_; }

    /** Prequential mean relative error since the last refit. */
    double prequentialError() const;

    /** True once a model exists (first full fit has run). */
    bool hasModel() const { return fit_ != nullptr; }

    /** Partial-tail retries across all tailed archives. */
    std::uint64_t tailRetries() const;

    /** The snapshot most recently published (for --push). */
    const serve::ModelSnapshot &lastPublished() const
    {
        return last_published_;
    }

    const std::string &context() const { return context_; }

  private:
    using Key = core::ResultStore::Key;

    void loadState();
    void persistState() const;
    void fullRefit();
    void publish();
    bool acceptRecord(const Key &key, double value,
                      std::vector<const Key *> &fresh);

    dspace::DesignSpace space_;
    OnlineTrainerOptions options_;
    std::string context_;

    std::vector<std::unique_ptr<serve::ArchiveTailer>> tailers_;
    /** Persisted resume offsets, including not-yet-added archives. */
    std::map<std::string, std::uint64_t> offsets_;

    /** All accepted points, canonically ordered by memo key. */
    std::map<Key, double> points_;

    /** Streaming weight state over the current centers. */
    std::unique_ptr<rbf::IncrementalFit> fit_;
    /** Hyperparameters of the current centers (snapshot metadata). */
    int p_min_ = 0;
    double alpha_ = 0.0;
    /** Linear baseline fitted at the last full refit. */
    linreg::LinearModel linear_;

    std::uint64_t folds_ = 0;
    std::uint64_t refits_ = 0;
    std::uint64_t publishes_ = 0;
    std::uint64_t model_version_ = 0;
    double cv_error_ = 0.0;
    std::size_t points_at_refit_ = 0;
    double preq_err_sum_ = 0.0;
    std::uint64_t preq_n_ = 0;
    bool armed_ = true;
    bool model_dirty_ = false;
    serve::ModelSnapshot last_published_;
};

} // namespace ppm::train

#endif // PPM_TRAIN_ONLINE_TRAINER_HH
