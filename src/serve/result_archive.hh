/**
 * @file
 * ResultArchive: an append-only on-disk memo log of simulation
 * results (design-point key → metric value), CRC-checked per record.
 *
 * File format (all integers little-endian):
 *
 *     header:  u32 magic 'PPMA'
 *              u16 version
 *              u32 context_len, context bytes, u32 crc(context)
 *     record:  u32 payload_len, payload, u32 crc(payload)
 *     payload: u32 key_len, i64 key[key_len], f64 value
 *
 * The context string names the oracle the archive belongs to
 * (benchmark, trace length, warmup, metric); opening an archive with
 * a different context fails rather than silently mixing result sets.
 *
 * This class is the only code that knows the layout: ArchiveTailer
 * follows live archives through parseHeader() and scanRecords().
 *
 * Crash recovery: on open, scanRecords() reads records sequentially;
 * the first short, oversized or CRC-corrupted record marks the
 * recovered end of the log — earlier records load normally, the
 * corrupt tail is counted in recordsSkipped() and truncated away so
 * subsequent appends re-establish a clean log.
 *
 * Concurrency: appends are single write() calls made under an
 * exclusive flock(), so multiple oracles — including oracles in
 * different processes (the sharded simulation servers) — can share
 * one archive file.
 */

#ifndef PPM_SERVE_RESULT_ARCHIVE_HH
#define PPM_SERVE_RESULT_ARCHIVE_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/oracle.hh"

namespace ppm::serve {

/** Archive cannot be opened, is for another context, or I/O failed. */
class ArchiveError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One record parsed from an archive. */
struct ArchiveRecord
{
    core::ResultStore::Key key;
    double value = 0.0;
    /** Absolute byte offset one past this record in the file. */
    std::uint64_t end_offset = 0;
};

/** What ResultArchive::scanRecords() found in a byte range. */
struct ArchiveScan
{
    std::vector<ArchiveRecord> records;
    /**
     * Bytes taken by the records: everything before the first record
     * that is short, too large, fails its CRC or holds a malformed
     * payload.
     */
    std::size_t consumed = 0;
};

class ResultArchive final : public core::ResultStore
{
  public:
    /** Longest context string a header can carry. */
    static constexpr std::size_t kMaxContext = 4096;

    /** Longest encoded header: magic, version, context, CRC. */
    static constexpr std::size_t kMaxHeaderBytes = 4 + 2 + 4 +
                                                   kMaxContext + 4;

    /**
     * Open (creating if absent) the archive at @p path for
     * @p context, loading every intact record and truncating any
     * corrupt tail.
     * @throws ArchiveError on I/O failure or context mismatch.
     */
    ResultArchive(std::string path, std::string context);
    ~ResultArchive() override;

    ResultArchive(const ResultArchive &) = delete;
    ResultArchive &operator=(const ResultArchive &) = delete;

    /** Replay the records loaded at open time. */
    void load(const std::function<void(const Key &, double)> &sink)
        override;

    /** Durably append one record (single write under flock). */
    void append(const Key &key, double value) override;

    /** Intact records loaded at open time. */
    std::size_t recordsLoaded() const { return entries_.size(); }

    /**
     * Corrupt or truncated trailing records detected (and truncated
     * away) at open time.
     */
    std::size_t recordsSkipped() const { return skipped_; }

    const std::string &path() const { return path_; }
    const std::string &context() const { return context_; }

    /**
     * Canonical archive file name for one oracle context, e.g.
     * "mcf_t100000_w15000_CPI.ppma".
     */
    static std::string fileNameFor(const std::string &benchmark,
                                   std::uint64_t trace_length,
                                   std::uint64_t warmup,
                                   core::Metric metric);

    /**
     * Context string of one oracle context, e.g.
     * "mcf|t100000|w15000|CPI": stored in every archive header, so
     * its bytes must never change.
     */
    static std::string contextFor(const std::string &benchmark,
                                  std::uint64_t trace_length,
                                  std::uint64_t warmup,
                                  core::Metric metric);

    /**
     * The simulation context "mcf|t100000|w15000" that the contexts
     * of its three metrics extend: one simulation prices them all.
     */
    static std::string contextFor(const std::string &benchmark,
                                  std::uint64_t trace_length,
                                  std::uint64_t warmup);

    /**
     * Parse the header at the start of @p data, which must name
     * @p context. Returns the header size, or nullopt while the
     * header is incomplete: too few bytes, or a context CRC mismatch
     * (a torn read of a header still being written).
     * @throws ArchiveError when it is invalid: bad magic, version or
     *         context length, or another context (@p path names the
     *         file in the message).
     */
    static std::optional<std::size_t> parseHeader(
        const std::uint8_t *data, std::size_t size,
        const std::string &context, const std::string &path);

    /**
     * Parse records from @p data, which sits at file offset @p base,
     * up to the first record that is short, too large, fails its CRC
     * or holds a malformed payload. Never throws on bad bytes.
     */
    static ArchiveScan scanRecords(const std::uint8_t *data,
                                   std::size_t size,
                                   std::uint64_t base);

  private:
    void openAndRecover();

    std::string path_;
    std::string context_;
    int fd_ = -1;
    std::vector<ArchiveRecord> entries_;
    std::size_t skipped_ = 0;
    std::mutex mutex_;
};

} // namespace ppm::serve

#endif // PPM_SERVE_RESULT_ARCHIVE_HH
