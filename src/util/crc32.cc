#include "util/crc32.hh"

#include <array>

namespace ppm::util {

namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slice-by-8 tables: tables[0] is the classic bytewise table, and
 * tables[k][i] is the CRC of byte i followed by k zero bytes, so one
 * lookup per byte of an 8-byte word advances the CRC by the whole
 * word.
 */
constexpr Tables
makeTables()
{
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

constexpr Tables kTables = makeTables();

/** Little-endian 32-bit load, whatever the host byte order. */
std::uint32_t
load32(const unsigned char *p)
{
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
           std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size, std::uint32_t seed)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; size >= 8; bytes += 8, size -= 8) {
        const std::uint32_t lo = load32(bytes) ^ c;
        const std::uint32_t hi = load32(bytes + 4);
        c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    }
    for (; size > 0; ++bytes, --size)
        c = kTables[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace ppm::util
