/**
 * @file
 * The one little-endian byte codec of the repo: the bounds-checked
 * writer/reader behind the wire protocol (protocol.cc), model
 * snapshots (model_snapshot.cc), result archives (result_archive.cc)
 * and trainer state files (online_trainer.cc).
 *
 * Everything is encoded little-endian whatever the host, so images
 * are endianness-independent: a snapshot published on a big-endian
 * host loads bit-identically on a little-endian one. (f64s copies
 * whole arrays on little-endian hosts, where the bytes are the same.)
 * Every read bounds-checks and throws ProtocolError on truncation; no
 * malformed input is undefined behaviour.
 */

#ifndef PPM_SERVE_WIRE_CODEC_HH
#define PPM_SERVE_WIRE_CODEC_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "serve/protocol.hh"

namespace ppm::serve {

/** Append-only little-endian byte writer. */
class PayloadWriter
{
  public:
    void u8(std::uint8_t v) { put<1>(v); }
    void u16(std::uint16_t v) { put<2>(v); }
    void u32(std::uint32_t v) { put<4>(v); }
    void u64(std::uint64_t v) { put<8>(v); }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    /** Append @p n doubles: the bytes of n f64() calls. */
    void
    f64s(const double *v, std::size_t n)
    {
        if constexpr (std::endian::native == std::endian::little) {
            const auto *b = reinterpret_cast<const std::uint8_t *>(v);
            bytes_.insert(bytes_.end(), b, b + n * sizeof(double));
        } else {
            for (std::size_t i = 0; i < n; ++i)
                f64(v[i]);
        }
    }

    /** Append @p n raw bytes. */
    void
    bytes(const std::uint8_t *data, std::size_t n)
    {
        bytes_.insert(bytes_.end(), data, data + n);
    }

    void
    str(const std::string &s)
    {
        if (s.size() > kMaxString)
            throw ProtocolError("string too long to encode");
        u32(static_cast<std::uint32_t>(s.size()));
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    template <int N>
    void
    put(std::uint64_t v)
    {
        std::uint8_t le[N];
        for (int i = 0; i < N; ++i)
            le[i] = static_cast<std::uint8_t>(v >> (8 * i));
        bytes_.insert(bytes_.end(), le, le + N);
    }

    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked little-endian byte reader. */
class PayloadReader
{
  public:
    PayloadReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    std::uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint16_t
    u16()
    {
        need(2);
        std::uint16_t v = static_cast<std::uint16_t>(
            data_[pos_] | (data_[pos_ + 1] << 8));
        pos_ += 2;
        return v;
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 3; i >= 0; --i)
            v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
        pos_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 7; i >= 0; --i)
            v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
        pos_ += 8;
        return v;
    }

    double f64() { return std::bit_cast<double>(u64()); }

    /** Read @p n doubles into @p out: n f64() calls' worth. */
    void
    f64s(double *out, std::size_t n)
    {
        if constexpr (std::endian::native == std::endian::little) {
            const std::uint8_t *in = bytes(n * sizeof(double));
            if (n > 0) // an empty vector's data() may be null
                std::memcpy(out, in, n * sizeof(double));
        } else {
            need(n * sizeof(double));
            for (std::size_t i = 0; i < n; ++i)
                out[i] = f64();
        }
    }

    /** Skip @p n raw bytes, returning where they start. */
    const std::uint8_t *
    bytes(std::size_t n)
    {
        need(n);
        const std::uint8_t *start = data_ + pos_;
        pos_ += n;
        return start;
    }

    std::string
    str()
    {
        const std::uint32_t len = u32();
        if (len > kMaxString)
            throw ProtocolError("encoded string too long");
        need(len);
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      len);
        pos_ += len;
        return s;
    }

    std::size_t remaining() const { return size_ - pos_; }

    void
    expectEnd() const
    {
        if (pos_ != size_)
            throw ProtocolError("trailing bytes in payload");
    }

  private:
    void
    need(std::size_t n) const
    {
        if (size_ - pos_ < n)
            throw ProtocolError("payload truncated");
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace ppm::serve

#endif // PPM_SERVE_WIRE_CODEC_HH
