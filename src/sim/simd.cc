#include "sim/simd.hh"

#include <algorithm>
#include <cstring>

namespace pageforge
{
namespace simd
{

std::uint32_t
firstDiff(const std::uint8_t *a, const std::uint8_t *b,
          std::uint32_t from, std::uint32_t len)
{
    // Chunked memcmp (vectorized by the library) to locate the first
    // differing chunk, then a byte scan inside it.
    constexpr std::uint32_t chunk = 256;
    std::uint32_t pos = from;
    while (pos < len) {
        std::uint32_t n = std::min(chunk, len - pos);
        if (std::memcmp(a + pos, b + pos, n) == 0) {
            pos += n;
            continue;
        }
        for (std::uint32_t off = pos;; ++off) {
            if (a[off] != b[off])
                return off;
        }
    }
    return len;
}

bool
rangeEqual(const std::uint8_t *a, const std::uint8_t *b,
           std::uint32_t len)
{
    return std::memcmp(a, b, len) == 0;
}

bool
allZero(const std::uint8_t *p, std::uint32_t len)
{
    std::uint32_t off = 0;
    for (; off + 8 <= len; off += 8) {
        std::uint64_t word;
        std::memcpy(&word, p + off, 8);
        if (word != 0)
            return false;
    }
    for (; off < len; ++off) {
        if (p[off] != 0)
            return false;
    }
    return true;
}

void
fingerprintBlocks(const std::uint8_t *data, std::size_t nblocks,
                  std::uint64_t h[4])
{
    std::uint64_t h0 = h[0], h1 = h[1], h2 = h[2], h3 = h[3];
    for (std::size_t i = 0; i < nblocks; ++i) {
        std::uint64_t w[4];
        std::memcpy(w, data + i * 32, 32);
        h0 ^= w[0]; h0 *= 0xbf58476d1ce4e5b9ULL; h0 ^= h0 >> 31;
        h1 ^= w[1]; h1 *= 0xbf58476d1ce4e5b9ULL; h1 ^= h1 >> 31;
        h2 ^= w[2]; h2 *= 0xbf58476d1ce4e5b9ULL; h2 ^= h2 >> 31;
        h3 ^= w[3]; h3 *= 0xbf58476d1ce4e5b9ULL; h3 ^= h3 >> 31;
    }
    h[0] = h0; h[1] = h1; h[2] = h2; h[3] = h3;
}

std::uint32_t
findTagWay(const std::uint64_t *tags, std::uint32_t ways,
           std::uint64_t line_addr)
{
    for (std::uint32_t w = 0; w < ways; ++w) {
        // tag ^ line_addr in {1, 2, 3}: address bits equal and a
        // nonzero state in the low two bits.
        if ((tags[w] ^ line_addr) - 1 < 3)
            return w;
    }
    return noWay;
}

std::uint32_t
argminU64(const std::uint64_t *vals, std::uint32_t n)
{
    std::uint32_t best = 0;
    for (std::uint32_t i = 1; i < n; ++i) {
        if (vals[i] < vals[best])
            best = i;
    }
    return best;
}

} // namespace simd
} // namespace pageforge
