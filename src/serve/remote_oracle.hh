/**
 * @file
 * RemoteOracle: a CpiOracle that shards evaluation batches across one
 * or more SimServer processes over Unix-domain sockets, TCP
 * endpoints, or any mix of the two (see transport.hh for the
 * endpoint grammar), with per-request timeouts, bounded
 * exponential-backoff retry, and transparent fallback to in-process
 * simulation when a server is unreachable — so every caller of the
 * CpiOracle interface works unchanged against a remote backend.
 *
 * Determinism contract: results are returned in input order and are
 * bit-identical to local evaluation for every shard count and socket
 * list, because the cycle-level simulator is deterministic in
 * (trace, config, options) and the server regenerates the identical
 * trace from (benchmark, trace length). Chunk c of a batch always
 * goes to socket c % sockets.size(); which chunks end up served
 * remotely versus locally can vary with failures, but never the
 * values.
 *
 * The transport mechanics — connect/retry/backoff schedule, the
 * per-socket dead latch, endpoint health counters, the dedicated
 * dispatch-thread fan-out, and the chunk loop with its remote and
 * fallback counts — live in ShardedClient, shared with the
 * prediction-serving client (PredictOracle).
 */

#ifndef PPM_SERVE_REMOTE_ORACLE_HH
#define PPM_SERVE_REMOTE_ORACLE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/oracle.hh"
#include "dspace/design_space.hh"
#include "serve/protocol.hh"
#include "serve/sharded_client.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"

namespace ppm::serve {

class RemoteOracle final : public core::CpiOracle
{
  public:
    /**
     * @param space Design space of the points (paper layout).
     * @param benchmark Profile name; the server regenerates the trace
     *        from it, so it must name the same profile @p trace was
     *        generated from.
     * @param trace The local trace, used for fallback simulation and
     *        to derive the trace length sent to servers (must outlive
     *        the oracle).
     */
    RemoteOracle(const dspace::DesignSpace &space,
                 std::string benchmark, const trace::Trace &trace,
                 const sim::SimOptions &sim_options = {},
                 core::Metric metric = core::Metric::Cpi,
                 RemoteOptions options = {});

    double cpi(const dspace::DesignPoint &point) override;
    std::vector<double> evaluateAll(
        const std::vector<dspace::DesignPoint> &points) override;

    /**
     * Fresh simulations attributable to this oracle: server-reported
     * fresh counts plus local fallback simulations. Server counts are
     * approximate when unrelated clients hit the same server oracle
     * concurrently.
     */
    std::uint64_t evaluations() const override;

    /** Points answered by servers so far. */
    std::uint64_t remotePoints() const { return client_.remotePoints(); }

    /** Request chunks successfully served remotely. */
    std::uint64_t
    remoteChunksServed() const
    {
        return client_.remoteChunks();
    }

    /** Points evaluated by the in-process fallback oracle. */
    std::uint64_t fallbackPoints() const { return client_.localPoints(); }

    /**
     * The in-process fallback oracle (e.g. to attach a ResultArchive
     * so even fallback simulations persist).
     */
    core::SimulatorOracle &fallbackOracle() { return fallback_; }

    const RemoteOptions &options() const { return client_.options(); }

  private:
    std::string benchmark_;
    const trace::Trace &trace_;
    sim::SimOptions sim_options_;
    core::Metric metric_;
    ShardedClient client_;
    core::SimulatorOracle fallback_;

    std::atomic<std::uint64_t> remote_fresh_{0};
};

} // namespace ppm::serve

#endif // PPM_SERVE_REMOTE_ORACLE_HH
