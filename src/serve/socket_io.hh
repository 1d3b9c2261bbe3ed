/**
 * @file
 * Socket plumbing for the simulation service: RAII fd ownership,
 * Unix-domain and TCP listen/connect with explicit timeouts, and
 * poll-driven whole-frame reads and writes on non-blocking
 * descriptors.
 *
 * All timeouts are in milliseconds and apply to the entire operation
 * (a frame read must finish within one timeout, not one timeout per
 * syscall). Failures — timeouts, resets, clean EOF mid-frame — raise
 * IoError; malformed bytes raise protocol::ProtocolError.
 *
 * writeFrame is also the fault-injection seam: when a
 * serve::FaultInjector is installed (PPM_FAULT_SPEC or an explicit
 * install()), every outgoing frame — client requests and server
 * replies alike — passes through it and may be dropped, delayed,
 * stalled, truncated, bit-flipped, or reset before it reaches the
 * wire. See fault_injector.hh.
 */

#ifndef PPM_SERVE_SOCKET_IO_HH
#define PPM_SERVE_SOCKET_IO_HH

#include <cstddef>
#include <stdexcept>
#include <string>

#include "serve/protocol.hh"

namespace ppm::serve {

/** Socket-level failure: connect/send/recv error, timeout, or EOF. */
class IoError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * The peer had closed the connection before any byte of the frame
 * being read arrived (EOF or ECONNRESET), or a send found it gone
 * (EPIPE or ECONNRESET). On a pooled client connection this means
 * the server closed it while it sat idle.
 */
class PeerClosedError : public IoError
{
  public:
    using IoError::IoError;
};

/** Move-only owner of a file descriptor; closes on destruction. */
class FdGuard
{
  public:
    explicit FdGuard(int fd = -1) : fd_(fd) {}
    ~FdGuard() { reset(); }

    FdGuard(FdGuard &&other) noexcept : fd_(other.release()) {}
    FdGuard &
    operator=(FdGuard &&other) noexcept
    {
        if (this != &other)
            reset(other.release());
        return *this;
    }

    FdGuard(const FdGuard &) = delete;
    FdGuard &operator=(const FdGuard &) = delete;

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    int
    release()
    {
        int fd = fd_;
        fd_ = -1;
        return fd;
    }

    void reset(int fd = -1);

  private:
    int fd_;
};

/**
 * Create a non-blocking Unix-domain listening socket bound to
 * @p path. A stale socket file at @p path is unlinked first.
 * @throws IoError on any failure (including a path too long for
 *         sockaddr_un).
 */
FdGuard listenUnix(const std::string &path, int backlog = 64);

/**
 * Connect to the Unix-domain socket at @p path, waiting at most
 * @p timeout_ms. Returns a non-blocking connected fd.
 * @throws IoError when the server is absent, refuses, or times out.
 */
FdGuard connectUnix(const std::string &path, int timeout_ms);

/**
 * Create a non-blocking TCP listening socket bound to
 * @p host:@p port (port 0 lets the kernel pick; read it back with
 * boundTcpPort). SO_REUSEADDR is set so restarts rebind instantly.
 * @throws IoError on resolution or bind/listen failure.
 */
FdGuard listenTcp(const std::string &host, std::uint16_t port,
                  int backlog = 64);

/**
 * Connect to @p host:@p port within @p timeout_ms. The connected
 * socket is non-blocking with TCP_NODELAY set (frames are
 * latency-bound request/response exchanges, never bulk streams).
 * @throws IoError when unresolvable, refused, or timed out.
 */
FdGuard connectTcp(const std::string &host, std::uint16_t port,
                   int timeout_ms);

/** Port a TCP listener actually bound (resolves a port-0 bind). */
std::uint16_t boundTcpPort(int fd);

/** Best-effort TCP_NODELAY (no-op on non-TCP descriptors). */
void setTcpNoDelay(int fd);

/**
 * Send all @p size bytes within @p timeout_ms.
 * @throws PeerClosedError on EPIPE or ECONNRESET, IoError otherwise.
 */
void sendAll(int fd, const void *data, std::size_t size,
             int timeout_ms);

/**
 * Receive exactly @p size bytes within @p timeout_ms.
 * @throws IoError on timeout, error, or EOF before @p size bytes;
 *         PeerClosedError when the EOF or reset comes before the
 *         first byte.
 */
void recvAll(int fd, void *data, std::size_t size, int timeout_ms);

/**
 * Write one encoded frame. When a FaultInjector is installed the
 * frame first passes through it and may be perturbed or swallowed
 * (see file comment). @throws IoError
 */
void writeFrame(int fd, const std::vector<std::uint8_t> &frame,
                int timeout_ms);

/**
 * Read and validate one complete frame.
 * @throws IoError on socket failure (PeerClosedError when no byte of
 *         the frame arrived), ProtocolError on malformed data.
 */
Frame readFrame(int fd, int timeout_ms);

/**
 * One exchange on a fresh connection to the endpoint spec
 * @p endpoint: connect, write @p request, read the reply. An Error
 * reply raises ProtocolError carrying the server's message; a reply
 * of any type other than @p reply_type raises ProtocolError too.
 * @p timeout_ms bounds the connect and each frame transfer.
 * @throws IoError on socket failure.
 */
Frame requestOnce(const std::string &endpoint,
                  const std::vector<std::uint8_t> &request,
                  MsgType reply_type, int timeout_ms);

} // namespace ppm::serve

#endif // PPM_SERVE_SOCKET_IO_HH
