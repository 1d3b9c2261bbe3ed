#include "serve/transport.hh"

#include <cctype>

#include <netinet/in.h>
#include <sys/socket.h>

namespace ppm::serve {

std::string
Endpoint::display() const
{
    if (kind == Kind::Unix)
        return path;
    return host + ":" + std::to_string(port);
}

Endpoint
parseEndpoint(const std::string &spec)
{
    if (spec.empty())
        throw IoError("empty endpoint spec");
    if (spec.find('/') == std::string::npos) {
        const std::size_t colon = spec.rfind(':');
        if (colon != std::string::npos && colon + 1 < spec.size()) {
            bool digits = true;
            for (std::size_t i = colon + 1; i < spec.size(); ++i)
                digits = digits && std::isdigit(static_cast<unsigned
                                                char>(spec[i])) != 0;
            if (digits) {
                if (colon == 0)
                    throw IoError("TCP endpoint needs an explicit "
                                  "host (use 0.0.0.0:port to listen "
                                  "on every interface): " + spec);
                if (spec.size() - colon - 1 > 5)
                    throw IoError("TCP port out of range: " + spec);
                const unsigned long port =
                    std::stoul(spec.substr(colon + 1));
                if (port > 65535)
                    throw IoError("TCP port out of range: " + spec);
                Endpoint ep;
                ep.kind = Endpoint::Kind::Tcp;
                ep.host = spec.substr(0, colon);
                ep.port = static_cast<std::uint16_t>(port);
                return ep;
            }
        }
    }
    Endpoint ep;
    ep.kind = Endpoint::Kind::Unix;
    ep.path = spec;
    return ep;
}

std::vector<std::string>
splitEndpointSpecs(const std::string &specs)
{
    std::vector<std::string> items;
    std::size_t start = 0;
    while (start <= specs.size()) {
        std::size_t comma = specs.find(',', start);
        if (comma == std::string::npos)
            comma = specs.size();
        if (comma > start)
            items.push_back(specs.substr(start, comma - start));
        start = comma + 1;
    }
    return items;
}

std::vector<Endpoint>
parseEndpointList(const std::string &specs)
{
    std::vector<Endpoint> endpoints;
    for (const std::string &spec : splitEndpointSpecs(specs))
        endpoints.push_back(parseEndpoint(spec));
    return endpoints;
}

FdGuard
listenEndpoint(const Endpoint &endpoint, int backlog)
{
    if (endpoint.kind == Endpoint::Kind::Unix)
        return listenUnix(endpoint.path, backlog);
    return listenTcp(endpoint.host, endpoint.port, backlog);
}

FdGuard
connectEndpoint(const Endpoint &endpoint, int timeout_ms)
{
    if (endpoint.kind == Endpoint::Kind::Unix)
        return connectUnix(endpoint.path, timeout_ms);
    return connectTcp(endpoint.host, endpoint.port, timeout_ms);
}

} // namespace ppm::serve
