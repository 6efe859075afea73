#include "ecc/jhash.hh"

#include <cstring>

#include "sim/logging.hh"
#include "sim/simd.hh"

namespace pageforge
{

namespace
{

std::uint32_t
rol32(std::uint32_t word, unsigned shift)
{
    return (word << shift) | (word >> (32 - shift));
}

// __jhash_mix from include/linux/jhash.h
void
jhashMix(std::uint32_t &a, std::uint32_t &b, std::uint32_t &c)
{
    a -= c; a ^= rol32(c, 4);  c += b;
    b -= a; b ^= rol32(a, 6);  a += c;
    c -= b; c ^= rol32(b, 8);  b += a;
    a -= c; a ^= rol32(c, 16); c += b;
    b -= a; b ^= rol32(a, 19); a += c;
    c -= b; c ^= rol32(b, 4);  b += a;
}

// __jhash_final from include/linux/jhash.h
void
jhashFinal(std::uint32_t &a, std::uint32_t &b, std::uint32_t &c)
{
    c ^= b; c -= rol32(b, 14);
    a ^= c; a -= rol32(c, 11);
    b ^= a; b -= rol32(a, 25);
    c ^= b; c -= rol32(b, 16);
    a ^= c; a -= rol32(c, 4);
    b ^= a; b -= rol32(a, 14);
    c ^= b; c -= rol32(b, 24);
}

} // namespace

std::uint32_t
jhash2(const std::uint32_t *key, std::uint32_t length,
       std::uint32_t initval)
{
    std::uint32_t a, b, c;
    a = b = c = jhashInitval + (length << 2) + initval;

    while (length > 3) {
        a += key[0];
        b += key[1];
        c += key[2];
        jhashMix(a, b, c);
        length -= 3;
        key += 3;
    }

    switch (length) {
      case 3:
        c += key[2];
        [[fallthrough]];
      case 2:
        b += key[1];
        [[fallthrough]];
      case 1:
        a += key[0];
        jhashFinal(a, b, c);
        break;
      case 0:
        // Nothing left: c already holds the result.
        break;
    }
    return c;
}

std::uint32_t
ksmPageHash(const std::uint8_t *page, std::uint32_t bytes)
{
    pf_assert(bytes % 4 == 0 && bytes <= pageSize,
              "hash length must be a multiple of 4 within a page");
    // Pages in the simulator are 8-byte aligned allocations, but copy
    // into a word buffer anyway to avoid alignment assumptions.
    std::uint32_t words[pageSize / 4];
    std::memcpy(words, page, bytes);
    return jhash2(words, bytes / 4, 17);
}

std::uint64_t
fnv1a64(const std::uint8_t *data, std::size_t len)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < len; ++i) {
        hash ^= data[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::uint64_t
pageFingerprint64(const std::uint8_t *data, std::size_t len)
{
    // Four independent xorshift-multiply lanes (splitmix64 finalizer
    // constants), 32 bytes per iteration: a single lane's multiply
    // latency chain caps throughput near one word per five cycles,
    // while four lanes pipeline.
    std::uint64_t h[4] = {0x9e3779b97f4a7c15ULL ^ len,
                          0xbf58476d1ce4e5b9ULL,
                          0x94d049bb133111ebULL,
                          0x2545f4914f6cdd1dULL};
    std::size_t i = len / 32 * 32;
    simd::fingerprintBlocks(data, len / 32, h);
    std::uint64_t hash = h[0];
    hash = (hash ^ h[1]) * 0xbf58476d1ce4e5b9ULL;
    hash = (hash ^ h[2]) * 0xbf58476d1ce4e5b9ULL;
    hash = (hash ^ h[3]) * 0xbf58476d1ce4e5b9ULL;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t word;
        std::memcpy(&word, data + i, 8);
        hash ^= word;
        hash *= 0xbf58476d1ce4e5b9ULL;
        hash ^= hash >> 31;
    }
    for (; i < len; ++i) {
        hash ^= data[i];
        hash *= 0x94d049bb133111ebULL;
        hash ^= hash >> 29;
    }
    hash *= 0xbf58476d1ce4e5b9ULL;
    hash ^= hash >> 32;
    return hash;
}

} // namespace pageforge
