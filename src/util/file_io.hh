/**
 * @file
 * File primitives behind every artifact the repo persists (model
 * snapshots, trainer state, result archives): one crash-safe
 * whole-file replace and one EINTR-safe positional read.
 *
 * Failures throw std::system_error whose what() names the failing
 * step, the path and the errno text; callers rethrow it as their own
 * typed error (SnapshotError, TrainerStateError, ArchiveError).
 */

#ifndef PPM_UTIL_FILE_IO_HH
#define PPM_UTIL_FILE_IO_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ppm::util {

/**
 * Atomically replace the file at @p path with @p bytes: write them to
 * a unique temporary file in the same directory (mode 0644), fsync()
 * it and rename() it over @p path, so readers — and a crash at any
 * instant — see either the complete old file or the complete new
 * one. The temporary is unlinked on failure.
 * @throws std::system_error
 */
void replaceFile(const std::string &path,
                 const std::vector<std::uint8_t> &bytes);

/** Size of the open file @p fd (named @p path in errors). */
std::uint64_t fileSize(int fd, const std::string &path);

/**
 * Read up to @p size bytes at @p offset of the open file @p fd
 * (named @p path in errors), retrying on EINTR. The result is
 * shorter than @p size only where the file ends first.
 * @throws std::system_error
 */
std::vector<std::uint8_t> readAt(int fd, const std::string &path,
                                 std::uint64_t offset, std::size_t size);

/**
 * Read the whole file at @p path. A file larger than @p max_size is
 * refused (EFBIG) before any byte is read.
 * @throws std::system_error (ENOENT when the file does not exist)
 */
std::vector<std::uint8_t> readFile(
    const std::string &path,
    std::uint64_t max_size = std::numeric_limits<std::uint64_t>::max());

} // namespace ppm::util

#endif // PPM_UTIL_FILE_IO_HH
