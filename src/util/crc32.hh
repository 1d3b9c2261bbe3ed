/**
 * @file
 * CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) used to
 * integrity-check wire-protocol frames and result-archive records.
 * Computed slice-by-8 (eight table lookups per 8-byte word); the
 * values are those of the bytewise algorithm.
 */

#ifndef PPM_UTIL_CRC32_HH
#define PPM_UTIL_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace ppm::util {

/**
 * CRC-32 of @p size bytes at @p data, continuing from @p seed.
 * crc32(data, n) computed in pieces equals one whole-buffer call:
 * crc32(b, m, crc32(a, n)) == crc32(ab, n + m).
 */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t seed = 0);

} // namespace ppm::util

#endif // PPM_UTIL_CRC32_HH
