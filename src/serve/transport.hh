/**
 * @file
 * Transport abstraction of the simulation service: one endpoint
 * grammar covering Unix-domain sockets and TCP, and listen/connect
 * entry points that dispatch to the right socket family. Everything
 * above this layer (frame I/O, SimServer, RemoteOracle, the tools) is
 * transport-agnostic: an endpoint string is either
 *
 *     /path/to/server.sock        Unix-domain socket path
 *     host:port                   TCP (port may be 0 to let the
 *                                 kernel pick one when listening)
 *
 * A spec is TCP when it contains no '/' and ends in ":<digits>";
 * anything else is a Unix path, so existing socket-path configuration
 * keeps working unchanged. PPM_SERVE_SOCKET accepts a comma-separated
 * mix of both kinds.
 *
 * TCP specifics handled here so callers never see them: poll-driven
 * connect with an explicit timeout, TCP_NODELAY on every connected
 * socket (request/response frames are latency-bound, never bulk), and
 * SO_REUSEADDR on listeners so a restarted server rebinds instantly.
 *
 * Security note: TCP mode carries no authentication or encryption —
 * bind to loopback or a trusted network only (see README).
 */

#ifndef PPM_SERVE_TRANSPORT_HH
#define PPM_SERVE_TRANSPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/socket_io.hh"

namespace ppm::serve {

/** A parsed server address: Unix path or TCP host:port. */
struct Endpoint
{
    enum class Kind
    {
        Unix,
        Tcp,
    };

    Kind kind = Kind::Unix;
    std::string path;        //!< Unix: the socket path
    std::string host;        //!< TCP: numeric address or hostname
    std::uint16_t port = 0;  //!< TCP: port (0 = kernel-assigned)

    /** Canonical spec string ("/path" or "host:port"). */
    std::string display() const;
};

/**
 * Parse an endpoint spec (see file comment for the grammar).
 * @throws IoError on an empty spec, an empty TCP host, or a port
 *         outside [0, 65535].
 */
Endpoint parseEndpoint(const std::string &spec);

/** Split a comma-separated endpoint list (empty items skipped). */
std::vector<std::string> splitEndpointSpecs(const std::string &specs);

/** Parse a comma-separated endpoint list (empty items skipped). */
std::vector<Endpoint> parseEndpointList(const std::string &specs);

/**
 * Create a non-blocking listening socket for @p endpoint: a
 * Unix-domain socket (stale file unlinked first) or a TCP listener
 * with SO_REUSEADDR. @throws IoError on any failure.
 */
FdGuard listenEndpoint(const Endpoint &endpoint, int backlog = 64);

/**
 * Connect to @p endpoint within @p timeout_ms. TCP connections get
 * TCP_NODELAY. Returns a non-blocking connected fd.
 * @throws IoError when absent, refused, unresolvable, or timed out.
 */
FdGuard connectEndpoint(const Endpoint &endpoint, int timeout_ms);

} // namespace ppm::serve

#endif // PPM_SERVE_TRANSPORT_HH
