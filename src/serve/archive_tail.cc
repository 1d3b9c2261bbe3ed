#include "serve/archive_tail.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

#include "obs/trace_span.hh"
#include "util/file_io.hh"

namespace ppm::serve {

ArchiveTailer::ArchiveTailer(std::string path, std::string context)
    : path_(std::move(path)), context_(std::move(context))
{
    if (context_.size() > ResultArchive::kMaxContext)
        throw ArchiveError("archive context string too long");
}

ArchiveTailer::~ArchiveTailer()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
ArchiveTailer::ensureOpen()
{
    if (fd_ >= 0)
        return true;
    fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0) {
        if (errno == ENOENT)
            return false; // shard has not created its archive yet
        throw ArchiveError("open " + path_ + ": " +
                           std::strerror(errno));
    }
    return true;
}

void
ArchiveTailer::seek(std::uint64_t off)
{
    offset_ = off;
    if (header_ok_ && offset_ < header_end_)
        offset_ = header_end_;
}

std::vector<ArchiveTailer::Record>
ArchiveTailer::poll()
{
    OBS_SPAN("train.tail");
    if (!ensureOpen())
        return {};

    std::vector<std::uint8_t> bytes;
    try {
        const std::uint64_t size = util::fileSize(fd_, path_);
        if (!header_ok_) {
            bytes = util::readAt(
                fd_, path_, 0,
                std::min<std::uint64_t>(size,
                                        ResultArchive::kMaxHeaderBytes));
            const std::optional<std::size_t> header =
                ResultArchive::parseHeader(bytes.data(), bytes.size(),
                                           context_, path_);
            if (!header) {
                ++retries_; // header bytes still in flight
                return {};
            }
            header_ok_ = true;
            header_end_ = *header;
            if (offset_ < header_end_)
                offset_ = header_end_;
        }
        if (size <= offset_)
            return {}; // nothing new (or the owner truncated a bad tail)
        bytes = util::readAt(fd_, path_, offset_,
                             static_cast<std::size_t>(size - offset_));
    } catch (const std::system_error &e) {
        throw ArchiveError(e.what());
    }

    // A short, absurd or checksum-failing tail is either a concurrent
    // writer's bytes that have not all landed or a corrupt tail the
    // owning server will truncate; both heal by retrying from the
    // first such record on the next poll.
    ArchiveScan scan =
        ResultArchive::scanRecords(bytes.data(), bytes.size(), offset_);
    offset_ += scan.consumed;
    records_ += scan.records.size();
    OBS_STATIC_COUNTER(tail_records, "train.tail.records");
    OBS_ADD(tail_records, scan.records.size());
    if (scan.consumed < bytes.size()) {
        ++retries_;
        OBS_STATIC_COUNTER(tail_retries, "train.tail.retries");
        OBS_ADD(tail_retries, 1);
    }
    return std::move(scan.records);
}

} // namespace ppm::serve
