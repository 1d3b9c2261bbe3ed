/**
 * @file
 * PredictOracle: a CpiOracle whose answers come from a trained model
 * snapshot instead of the cycle-level simulator — the client half of
 * the prediction-serving plane. Batches are chunked and sharded
 * across PREDICT servers exactly like RemoteOracle shards simulation
 * batches (same ShardedClient: endpoint grammar, retry/backoff
 * schedule, dead latch, fault-injection coverage, remote.* counters),
 * and every chunk that cannot be served remotely is evaluated locally
 * against the oracle's own copy of the snapshot.
 *
 * Bit-equivalence contract: a remote server evaluates the same
 * snapshot bytes through the same predictWithSnapshot() code path as
 * the local fallback, and IEEE-754 evaluation is deterministic in
 * (snapshot, point) — so results are bit-identical for every shard
 * count, socket list, and failure pattern, provided the servers host
 * the same snapshot version this oracle holds.
 */

#ifndef PPM_SERVE_PREDICT_ORACLE_HH
#define PPM_SERVE_PREDICT_ORACLE_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/oracle.hh"
#include "dspace/design_space.hh"
#include "serve/model_snapshot.hh"
#include "serve/protocol.hh"
#include "serve/sharded_client.hh"

namespace ppm::serve {

class PredictOracle final : public core::CpiOracle
{
  public:
    /**
     * @param snapshot The model to predict with; also the local
     *        fallback when no server (or no healthy server) is
     *        configured.
     * @param options Sharding/retry options; options.sockets empty =
     *        always predict locally.
     * @param model Which trained model family the oracle queries —
     *        the RBF network or the linear baseline.
     */
    explicit PredictOracle(ModelSnapshot snapshot,
                           RemoteOptions options = {},
                           ModelKind model = ModelKind::Rbf);

    double cpi(const dspace::DesignPoint &point) override;
    std::vector<double> evaluateAll(
        const std::vector<dspace::DesignPoint> &points) override;

    /** Total points predicted (remote and local alike). */
    std::uint64_t evaluations() const override;

    /** Points answered by PREDICT servers so far. */
    std::uint64_t remotePoints() const { return client_.remotePoints(); }

    /** Points predicted by the local snapshot fallback. */
    std::uint64_t fallbackPoints() const { return client_.localPoints(); }

    /**
     * Greatest model version any server echoed so far (0 = none
     * seen). A value differing from snapshot().model_version means a
     * server hot-swapped past the local copy.
     */
    std::uint64_t
    serverVersion() const
    {
        return server_version_.load(std::memory_order_relaxed);
    }

    const ModelSnapshot &snapshot() const { return snapshot_; }
    const RemoteOptions &options() const { return client_.options(); }

  private:
    ModelSnapshot snapshot_;
    ModelKind model_;
    ShardedClient client_;

    std::atomic<std::uint64_t> server_version_{0};
};

} // namespace ppm::serve

#endif // PPM_SERVE_PREDICT_ORACLE_HH
