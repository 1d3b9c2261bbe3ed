#include "serve/result_archive.hh"

#include <cerrno>
#include <cstring>
#include <system_error>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "obs/event_log.hh"
#include "obs/trace_span.hh"
#include "serve/wire_codec.hh"
#include "util/crc32.hh"
#include "util/file_io.hh"

namespace ppm::serve {

namespace {

constexpr std::uint32_t kArchiveMagic = 0x50504D41u; // "PPMA"
constexpr std::uint16_t kArchiveVersion = 1;
constexpr std::uint32_t kMaxRecordPayload = 1u << 20;

[[noreturn]] void
throwErrno(const std::string &what)
{
    throw ArchiveError(what + ": " + std::strerror(errno));
}

// The context is encoded as a codec string.
static_assert(ResultArchive::kMaxContext <= kMaxString);

std::vector<std::uint8_t>
encodeHeader(const std::string &context)
{
    PayloadWriter w;
    w.u32(kArchiveMagic);
    w.u16(kArchiveVersion);
    w.str(context);
    w.u32(util::crc32(context.data(), context.size()));
    return w.take();
}

std::vector<std::uint8_t>
encodeRecord(const core::ResultStore::Key &key, double value)
{
    PayloadWriter payload;
    payload.u32(static_cast<std::uint32_t>(key.size()));
    for (std::int64_t k : key)
        payload.u64(static_cast<std::uint64_t>(k));
    payload.f64(value);
    const std::vector<std::uint8_t> bytes = payload.take();

    PayloadWriter record;
    record.u32(static_cast<std::uint32_t>(bytes.size()));
    record.bytes(bytes.data(), bytes.size());
    record.u32(util::crc32(bytes.data(), bytes.size()));
    return record.take();
}

/** RAII flock; the archive fd is locked for load/repair and appends. */
class FileLock
{
  public:
    explicit FileLock(int fd) : fd_(fd)
    {
        while (::flock(fd_, LOCK_EX) < 0) {
            if (errno != EINTR)
                throwErrno("flock");
        }
    }
    ~FileLock() { ::flock(fd_, LOCK_UN); }
    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

  private:
    int fd_;
};

void
writeAllAt(int fd, const std::vector<std::uint8_t> &bytes, off_t off)
{
    std::size_t done = 0;
    while (done < bytes.size()) {
        const ssize_t n =
            ::pwrite(fd, bytes.data() + done, bytes.size() - done,
                     off + static_cast<off_t>(done));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("pwrite");
        }
        done += static_cast<std::size_t>(n);
    }
}

} // namespace

ResultArchive::ResultArchive(std::string path, std::string context)
    : path_(std::move(path)), context_(std::move(context))
{
    if (context_.size() > kMaxContext)
        throw ArchiveError("archive context string too long");
    openAndRecover();
}

ResultArchive::~ResultArchive()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
ResultArchive::openAndRecover()
{
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0)
        throwErrno("open " + path_);
    FileLock lock(fd_);

    // Read the whole file; archives are modest (tens of bytes per
    // simulation result) and this keeps recovery logic simple.
    std::vector<std::uint8_t> bytes;
    try {
        bytes = util::readAt(fd_, path_, 0, util::fileSize(fd_, path_));
    } catch (const std::system_error &e) {
        throw ArchiveError(e.what());
    }

    if (bytes.empty()) {
        // Fresh archive: write the context header.
        writeAllAt(fd_, encodeHeader(context_), 0);
        return;
    }

    // A valid header with a different context is a caller error
    // (mixing result sets); an unreadable header on a non-empty file
    // means the file is not an archive.
    const std::optional<std::size_t> header =
        parseHeader(bytes.data(), bytes.size(), context_, path_);
    if (!header)
        throw ArchiveError("not a result archive (bad header): " +
                           path_);

    // The first bad record ends the recovered log; truncate it away
    // so appends continue a clean log.
    ArchiveScan scan = scanRecords(bytes.data() + *header,
                                   bytes.size() - *header, *header);
    entries_ = std::move(scan.records);
    const std::size_t good_end = *header + scan.consumed;
    if (good_end < bytes.size()) {
        skipped_ = 1;
        if (::ftruncate(fd_, static_cast<off_t>(good_end)) < 0)
            throwErrno("ftruncate " + path_);
    }

    OBS_STATIC_COUNTER(preloads, "archive.preloaded");
    OBS_ADD(preloads, entries_.size());
    if (skipped_ > 0) {
        OBS_STATIC_COUNTER(corrupt, "archive.corrupt_records");
        OBS_ADD(corrupt, skipped_);
        obs::logEvent(obs::LogLevel::Warn, "archive", "corrupt_tail",
                      {{"path", path_},
                       {"recovered", entries_.size()},
                       {"skipped", skipped_}});
    }
}

void
ResultArchive::load(
    const std::function<void(const Key &, double)> &sink)
{
    std::lock_guard<std::mutex> guard(mutex_);
    for (const ArchiveRecord &record : entries_)
        sink(record.key, record.value);
}

void
ResultArchive::append(const Key &key, double value)
{
    OBS_SPAN("archive.append");
    OBS_STATIC_COUNTER(appends, "archive.appends");
    OBS_ADD(appends, 1);
    const std::vector<std::uint8_t> record = encodeRecord(key, value);
    std::lock_guard<std::mutex> guard(mutex_);
    FileLock lock(fd_);
    // Append at the current end under the lock: other processes may
    // have grown the file since we loaded it.
    const off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end < 0)
        throwErrno("lseek " + path_);
    writeAllAt(fd_, record, end);
}

std::string
ResultArchive::fileNameFor(const std::string &benchmark,
                           std::uint64_t trace_length,
                           std::uint64_t warmup, core::Metric metric)
{
    std::string name = benchmark;
    for (char &c : name) {
        if (c == '/' || c == '\\' || c == '|')
            c = '_';
    }
    return name + "_t" + std::to_string(trace_length) + "_w" +
           std::to_string(warmup) + "_" + core::metricName(metric) +
           ".ppma";
}

std::optional<std::size_t>
ResultArchive::parseHeader(const std::uint8_t *data, std::size_t size,
                           const std::string &context,
                           const std::string &path)
{
    PayloadReader r(data, size);
    if (r.remaining() < 4)
        return std::nullopt;
    if (r.u32() != kArchiveMagic)
        throw ArchiveError("not a result archive (bad magic): " + path);
    if (r.remaining() < 2)
        return std::nullopt;
    if (r.u16() != kArchiveVersion)
        throw ArchiveError("unsupported archive version in " + path);
    if (r.remaining() < 4)
        return std::nullopt;
    const std::uint32_t ctx_len = r.u32();
    if (ctx_len > kMaxContext)
        throw ArchiveError("not a result archive (bad header): " + path);
    if (r.remaining() < std::size_t{ctx_len} + 4)
        return std::nullopt;
    const std::uint8_t *ctx = r.bytes(ctx_len);
    if (util::crc32(ctx, ctx_len) != r.u32())
        return std::nullopt;
    if (std::string(reinterpret_cast<const char *>(ctx), ctx_len) !=
        context)
        throw ArchiveError("archive context mismatch in " + path);
    return size - r.remaining();
}

ArchiveScan
ResultArchive::scanRecords(const std::uint8_t *data, std::size_t size,
                           std::uint64_t base)
{
    ArchiveScan scan;
    PayloadReader r(data, size);
    while (r.remaining() >= 4) {
        const std::uint32_t len = r.u32();
        if (len < 4 || len > kMaxRecordPayload ||
            r.remaining() < len + 4u)
            break;
        const std::uint8_t *payload = r.bytes(len);
        if (util::crc32(payload, len) != r.u32())
            break;
        PayloadReader p(payload, len);
        const std::uint32_t key_len = p.u32();
        if (p.remaining() != std::size_t{key_len} * 8 + 8)
            break;
        ArchiveRecord record;
        record.key.resize(key_len);
        for (auto &k : record.key)
            k = static_cast<std::int64_t>(p.u64());
        record.value = p.f64();
        scan.consumed = size - r.remaining();
        record.end_offset = base + scan.consumed;
        scan.records.push_back(std::move(record));
    }
    return scan;
}

} // namespace ppm::serve
