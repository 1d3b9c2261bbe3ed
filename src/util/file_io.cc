#include "util/file_io.hh"

#include <atomic>
#include <cerrno>
#include <system_error>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace ppm::util {

namespace {

[[noreturn]] void
throwErrno(int err, const std::string &what)
{
    throw std::system_error(err, std::generic_category(), what);
}

} // namespace

void
replaceFile(const std::string &path,
            const std::vector<std::uint8_t> &bytes)
{
    // Unique temp name in the target directory: rename() is only
    // atomic within a filesystem, and a fixed name would let two
    // writers clobber each other's half-written files.
    static std::atomic<std::uint64_t> serial{0};
    const std::string tmp = path + ".tmp." +
                            std::to_string(::getpid()) + "." +
                            std::to_string(serial.fetch_add(1));
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    if (fd < 0)
        throwErrno(errno, "create " + tmp);
    const auto fail = [&tmp](const char *step, int err) {
        ::unlink(tmp.c_str());
        throwErrno(err, step + tmp);
    };
    std::size_t done = 0;
    while (done < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n >= 0) {
            done += static_cast<std::size_t>(n);
        } else if (errno != EINTR) {
            const int err = errno;
            ::close(fd);
            fail("write ", err);
        }
    }
    if (::fsync(fd) < 0) {
        const int err = errno;
        ::close(fd);
        fail("fsync ", err);
    }
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) < 0)
        fail("rename to ", errno);
}

std::uint64_t
fileSize(int fd, const std::string &path)
{
    struct stat st{};
    if (::fstat(fd, &st) < 0)
        throwErrno(errno, "fstat " + path);
    return static_cast<std::uint64_t>(st.st_size);
}

std::vector<std::uint8_t>
readAt(int fd, const std::string &path, std::uint64_t offset,
       std::size_t size)
{
    std::vector<std::uint8_t> bytes(size);
    std::size_t got = 0;
    while (got < size) {
        const ssize_t n = ::pread(fd, bytes.data() + got, size - got,
                                  static_cast<off_t>(offset + got));
        if (n > 0)
            got += static_cast<std::size_t>(n);
        else if (n == 0)
            break; // end of file
        else if (errno != EINTR)
            throwErrno(errno, "pread " + path);
    }
    bytes.resize(got);
    return bytes;
}

std::vector<std::uint8_t>
readFile(const std::string &path, std::uint64_t max_size)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        throwErrno(errno, "open " + path);
    try {
        const std::uint64_t size = fileSize(fd, path);
        if (size > max_size)
            throwErrno(EFBIG, "read " + path);
        std::vector<std::uint8_t> bytes =
            readAt(fd, path, 0, static_cast<std::size_t>(size));
        ::close(fd);
        return bytes;
    } catch (...) {
        ::close(fd);
        throw;
    }
}

} // namespace ppm::util
