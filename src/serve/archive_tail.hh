/**
 * @file
 * ArchiveTailer: a read-only follower of a live ResultArchive file.
 *
 * The online trainer tails every shard's archive from a persisted
 * byte offset: each poll() parses whatever *complete* records have
 * appeared past the offset and advances it record-by-record. It
 * parses with ResultArchive::parseHeader() and scanRecords(), the
 * scanner the owner recovers with, so both stop at the same byte.
 * Unlike ResultArchive::openAndRecover — which owns the file and may
 * truncate a corrupt tail — the tailer never writes. Anything
 * inconsistent at the tail is treated as a concurrent writer's
 * partially flushed record: poll() stops before it, reports what it
 * has, and retries from the same offset next time (counted in
 * retries()). A writer flushes a record with a single pwrite, but
 * nothing guarantees a reader observes those bytes atomically, so a
 * torn read can surface as a short record, an absurd length word, or
 * a CRC mismatch — all of which heal on a later poll once the bytes
 * land. Genuinely corrupt tails are the owning server's problem: its
 * next open truncates them, the file shrinks back to a clean record
 * boundary at or past our offset, and appends resume; the tailer
 * meanwhile just keeps waiting without consuming garbage.
 *
 * The archive file may not exist yet (a shard that has not produced a
 * result); poll() simply returns nothing until it appears, and a
 * header still being written is retried like a torn record. A header
 * carrying a *different* context, or a wrong magic, version or
 * context length, is a configuration error and throws ArchiveError —
 * silently folding another oracle's results into a model must not
 * happen.
 *
 * offset() is the byte offset one past the last fully consumed
 * record (or past the header when no record has been consumed yet;
 * 0 before the header has been seen). It is exactly what the trainer
 * persists; seek() restores it on restart.
 */

#ifndef PPM_SERVE_ARCHIVE_TAIL_HH
#define PPM_SERVE_ARCHIVE_TAIL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/result_archive.hh"

namespace ppm::serve {

class ArchiveTailer
{
  public:
    /** One complete record pulled past the tail offset. */
    using Record = ArchiveRecord;

    /**
     * Follow the archive at @p path for oracle @p context. The file
     * need not exist yet; nothing is opened until the first poll().
     * @throws ArchiveError only for an over-long context string.
     */
    ArchiveTailer(std::string path, std::string context);
    ~ArchiveTailer();

    ArchiveTailer(const ArchiveTailer &) = delete;
    ArchiveTailer &operator=(const ArchiveTailer &) = delete;

    /**
     * Parse every complete record currently on disk past offset(),
     * advancing the offset past each. Returns the records in file
     * order; empty when the file is absent, ends exactly at the
     * offset, or ends in a partially flushed record (retry later).
     * @throws ArchiveError on I/O failure, a non-archive file, or a
     *         context mismatch.
     */
    std::vector<Record> poll();

    /**
     * Resume position: restart tailing at absolute byte offset
     * @p off, as previously returned by offset(). Offsets inside the
     * header region are clamped up to the first record boundary once
     * the header has been read.
     */
    void seek(std::uint64_t off);

    /** Byte offset one past the last fully consumed record. */
    std::uint64_t offset() const { return offset_; }

    /**
     * Polls that ended in a partially flushed (or not yet readable)
     * tail record and will retry from the same offset.
     */
    std::uint64_t retries() const { return retries_; }

    /** Complete records consumed over the tailer's lifetime. */
    std::uint64_t records() const { return records_; }

    const std::string &path() const { return path_; }
    const std::string &context() const { return context_; }

  private:
    bool ensureOpen();

    std::string path_;
    std::string context_;
    int fd_ = -1;
    bool header_ok_ = false;
    std::uint64_t header_end_ = 0;
    std::uint64_t offset_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t records_ = 0;
};

} // namespace ppm::serve

#endif // PPM_SERVE_ARCHIVE_TAIL_HH
