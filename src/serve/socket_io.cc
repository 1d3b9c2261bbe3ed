#include "serve/socket_io.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/fault_injector.hh"
#include "serve/transport.hh"

namespace ppm::serve {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void
throwErrno(const std::string &what)
{
    throw IoError(what + ": " + std::strerror(errno));
}

/** Milliseconds left before @p deadline, clamped to >= 0. */
int
remainingMs(Clock::time_point deadline)
{
    const auto left = std::chrono::duration_cast<
        std::chrono::milliseconds>(deadline - Clock::now());
    return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

/**
 * Wait until @p fd is ready for @p events or @p deadline passes.
 * @throws IoError on poll failure or timeout.
 */
void
waitReady(int fd, short events, Clock::time_point deadline)
{
    for (;;) {
        struct pollfd pfd = {fd, events, 0};
        const int ms = remainingMs(deadline);
        const int rc = ::poll(&pfd, 1, ms);
        if (rc > 0)
            return;
        if (rc == 0)
            throw IoError("socket operation timed out");
        if (errno != EINTR)
            throwErrno("poll");
    }
}

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        throwErrno("fcntl(O_NONBLOCK)");
}

sockaddr_un
unixAddress(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path))
        throw IoError("unix socket path invalid or too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

/** RAII owner of a getaddrinfo result list. */
struct AddrInfoGuard
{
    addrinfo *list = nullptr;
    ~AddrInfoGuard()
    {
        if (list != nullptr)
            ::freeaddrinfo(list);
    }
};

AddrInfoGuard
resolveTcp(const std::string &host, std::uint16_t port, bool passive)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
    const std::string service = std::to_string(port);
    AddrInfoGuard result;
    const int rc = ::getaddrinfo(host.c_str(), service.c_str(),
                                 &hints, &result.list);
    if (rc != 0)
        throw IoError("resolve " + host + ":" + service + ": " +
                      ::gai_strerror(rc));
    return result;
}

/**
 * Finish a non-blocking connect on @p fd: wait for writability, then
 * surface the socket error if the connect failed.
 */
void
finishConnect(int fd, Clock::time_point deadline,
              const std::string &what)
{
    waitReady(fd, POLLOUT, deadline);
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0)
        throwErrno("getsockopt(SO_ERROR)");
    if (err != 0) {
        errno = err;
        throwErrno("connect " + what);
    }
}

} // namespace

void
FdGuard::reset(int fd)
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = fd;
}

FdGuard
listenUnix(const std::string &path, int backlog)
{
    const sockaddr_un addr = unixAddress(path);
    FdGuard fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd.valid())
        throwErrno("socket");
    ::unlink(path.c_str());
    if (::bind(fd.get(), reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) < 0)
        throwErrno("bind " + path);
    if (::listen(fd.get(), backlog) < 0)
        throwErrno("listen " + path);
    setNonBlocking(fd.get());
    return fd;
}

FdGuard
connectUnix(const std::string &path, int timeout_ms)
{
    const sockaddr_un addr = unixAddress(path);
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    FdGuard fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd.valid())
        throwErrno("socket");
    setNonBlocking(fd.get());
    if (::connect(fd.get(), reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) == 0)
        return fd;
    if (errno != EINPROGRESS && errno != EAGAIN)
        throwErrno("connect " + path);
    finishConnect(fd.get(), deadline, path);
    return fd;
}

FdGuard
listenTcp(const std::string &host, std::uint16_t port, int backlog)
{
    const AddrInfoGuard addrs = resolveTcp(host, port, true);
    std::string last_error = "no addresses resolved";
    for (const addrinfo *ai = addrs.list; ai != nullptr;
         ai = ai->ai_next) {
        FdGuard fd(::socket(ai->ai_family,
                            ai->ai_socktype | SOCK_CLOEXEC,
                            ai->ai_protocol));
        if (!fd.valid()) {
            last_error = std::string("socket: ") +
                         std::strerror(errno);
            continue;
        }
        const int one = 1;
        ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        if (::bind(fd.get(), ai->ai_addr, ai->ai_addrlen) < 0 ||
            ::listen(fd.get(), backlog) < 0) {
            last_error = std::string("bind/listen: ") +
                         std::strerror(errno);
            continue;
        }
        setNonBlocking(fd.get());
        return fd;
    }
    throw IoError("listen " + host + ":" + std::to_string(port) +
                  ": " + last_error);
}

FdGuard
connectTcp(const std::string &host, std::uint16_t port,
           int timeout_ms)
{
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    const AddrInfoGuard addrs = resolveTcp(host, port, false);
    const std::string what = host + ":" + std::to_string(port);
    std::string last_error = "no addresses resolved";
    for (const addrinfo *ai = addrs.list; ai != nullptr;
         ai = ai->ai_next) {
        FdGuard fd(::socket(ai->ai_family,
                            ai->ai_socktype | SOCK_CLOEXEC,
                            ai->ai_protocol));
        if (!fd.valid()) {
            last_error = std::string("socket: ") +
                         std::strerror(errno);
            continue;
        }
        setNonBlocking(fd.get());
        try {
            if (::connect(fd.get(), ai->ai_addr, ai->ai_addrlen) != 0) {
                if (errno != EINPROGRESS && errno != EAGAIN)
                    throwErrno("connect " + what);
                finishConnect(fd.get(), deadline, what);
            }
        } catch (const IoError &e) {
            last_error = e.what();
            continue;
        }
        setTcpNoDelay(fd.get());
        return fd;
    }
    throw IoError("connect " + what + ": " + last_error);
}

std::uint16_t
boundTcpPort(int fd)
{
    sockaddr_storage addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                      &len) < 0)
        throwErrno("getsockname");
    if (addr.ss_family == AF_INET)
        return ntohs(
            reinterpret_cast<const sockaddr_in *>(&addr)->sin_port);
    if (addr.ss_family == AF_INET6)
        return ntohs(
            reinterpret_cast<const sockaddr_in6 *>(&addr)->sin6_port);
    throw IoError("getsockname: not a TCP socket");
}

void
setTcpNoDelay(int fd)
{
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                       sizeof(one));
}

void
sendAll(int fd, const void *data, std::size_t size, int timeout_ms)
{
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::size_t sent = 0;
    while (sent < size) {
        // MSG_NOSIGNAL: a peer that died mid-write must surface as
        // EPIPE (an IoError the caller retries), not kill the process.
        const ssize_t n = ::send(fd, bytes + sent, size - sent,
                                 MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            waitReady(fd, POLLOUT, deadline);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        throwErrno("send");
    }
}

void
recvAll(int fd, void *data, std::size_t size, int timeout_ms)
{
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    auto *bytes = static_cast<std::uint8_t *>(data);
    std::size_t got = 0;
    while (got < size) {
        const ssize_t n = ::recv(fd, bytes + got, size - got, 0);
        if (n > 0) {
            got += static_cast<std::size_t>(n);
            continue;
        }
        if (n == 0)
            throw IoError("connection closed by peer");
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            waitReady(fd, POLLIN, deadline);
            continue;
        }
        if (errno == EINTR)
            continue;
        throwErrno("recv");
    }
}

void
writeFrame(int fd, const std::vector<std::uint8_t> &frame,
           int timeout_ms)
{
    const std::shared_ptr<FaultInjector> injector =
        FaultInjector::active();
    if (!injector) {
        sendAll(fd, frame.data(), frame.size(), timeout_ms);
        return;
    }
    const FaultInjector::Decision d =
        injector->nextSendFault(frame.size());
    switch (d.kind) {
      case FaultKind::None:
        sendAll(fd, frame.data(), frame.size(), timeout_ms);
        return;
      case FaultKind::Drop:
        // Swallowed: the sender believes it succeeded, the peer's
        // read runs into its timeout.
        return;
      case FaultKind::Delay:
      case FaultKind::Stall:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(d.sleep_ms));
        // A stall sized past the peer's read timeout typically makes
        // this send fail with EPIPE once the peer gave up — exactly
        // the IoError the retry machinery expects.
        sendAll(fd, frame.data(), frame.size(), timeout_ms);
        return;
      case FaultKind::Truncate:
        sendAll(fd, frame.data(),
                static_cast<std::size_t>(d.target), timeout_ms);
        // EOF mid-frame on the peer, instead of a silent short frame
        // that would stall it until timeout.
        ::shutdown(fd, SHUT_WR);
        return;
      case FaultKind::BitFlip: {
        std::vector<std::uint8_t> corrupted = frame;
        corrupted[d.target / 8] ^= static_cast<std::uint8_t>(
            1u << (d.target % 8));
        sendAll(fd, corrupted.data(), corrupted.size(), timeout_ms);
        return;
      }
      case FaultKind::Reset:
        ::shutdown(fd, SHUT_RDWR);
        throw IoError("fault injection: connection reset");
    }
}

Frame
readFrame(int fd, int timeout_ms)
{
    // Read the fixed header first: it bounds the rest of the read, so
    // an oversized or version-mismatched frame is rejected before any
    // payload allocation.
    std::vector<std::uint8_t> buf(kHeaderSize);
    recvAll(fd, buf.data(), kHeaderSize, timeout_ms);
    const FrameHeader header = decodeHeader(buf.data(), buf.size());
    const std::size_t rest =
        kTraceBlockSize + header.payload_len + kTrailerSize;
    buf.resize(kHeaderSize + rest);
    recvAll(fd, buf.data() + kHeaderSize, rest, timeout_ms);
    return decodeFrame(buf);
}

Frame
requestOnce(const std::string &endpoint,
            const std::vector<std::uint8_t> &request, MsgType reply_type,
            int timeout_ms)
{
    const FdGuard fd =
        connectEndpoint(parseEndpoint(endpoint), timeout_ms);
    writeFrame(fd.get(), request, timeout_ms);
    Frame reply = readFrame(fd.get(), timeout_ms);
    if (reply.type == MsgType::Error)
        throw ProtocolError("server error: " +
                            parseError(reply.payload).message);
    if (reply.type != reply_type)
        throw ProtocolError(
            "unexpected reply type " +
            std::to_string(static_cast<unsigned>(reply.type)));
    return reply;
}

} // namespace ppm::serve
