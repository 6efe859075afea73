#include "sim/simd.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PF_SIMD_X86 1
#include <immintrin.h>
#else
#define PF_SIMD_X86 0
#endif

namespace pageforge
{
namespace simd
{

namespace
{

// ------------------------------------------------------------------
// Scalar tier: the reference implementations. The SIMD tiers must
// match these bit-for-bit on every input.
// ------------------------------------------------------------------

std::uint32_t
firstDiffScalar(const std::uint8_t *a, const std::uint8_t *b,
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
rangeEqualScalar(const std::uint8_t *a, const std::uint8_t *b,
                 std::uint32_t len)
{
    return std::memcmp(a, b, len) == 0;
}

bool
allZeroScalar(const std::uint8_t *p, std::uint32_t len)
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
fingerprintBlocksScalar(const std::uint8_t *data, std::size_t nblocks,
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
findTagWayScalar(const std::uint64_t *tags, std::uint32_t ways,
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
argminU64Scalar(const std::uint64_t *vals, std::uint32_t n)
{
    std::uint32_t best = 0;
    for (std::uint32_t i = 1; i < n; ++i) {
        if (vals[i] < vals[best])
            best = i;
    }
    return best;
}

#if PF_SIMD_X86

// ------------------------------------------------------------------
// SSE2 tier (x86-64 baseline, but dispatched explicitly so the
// scalar fallback stays reachable for equivalence testing).
// SSE2 has no 64-bit lane compare (pcmpeqq is SSE4.1), so the
// tag-scan kernel reuses the scalar version at this tier.
// ------------------------------------------------------------------

__attribute__((target("sse2"))) std::uint32_t
firstDiffSse2(const std::uint8_t *a, const std::uint8_t *b,
              std::uint32_t from, std::uint32_t len)
{
    std::uint32_t pos = from;
    for (; pos + 16 <= len; pos += 16) {
        __m128i va =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(a + pos));
        __m128i vb =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(b + pos));
        unsigned eq = static_cast<unsigned>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(va, vb)));
        if (eq != 0xffffu)
            return pos + static_cast<std::uint32_t>(
                             std::countr_zero(~eq & 0xffffu));
    }
    for (; pos < len; ++pos) {
        if (a[pos] != b[pos])
            return pos;
    }
    return len;
}

__attribute__((target("sse2"))) bool
rangeEqualSse2(const std::uint8_t *a, const std::uint8_t *b,
               std::uint32_t len)
{
    std::uint32_t pos = 0;
    for (; pos + 16 <= len; pos += 16) {
        __m128i va =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(a + pos));
        __m128i vb =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(b + pos));
        if (_mm_movemask_epi8(_mm_cmpeq_epi8(va, vb)) != 0xffff)
            return false;
    }
    return pos == len || std::memcmp(a + pos, b + pos, len - pos) == 0;
}

__attribute__((target("sse2"))) bool
allZeroSse2(const std::uint8_t *p, std::uint32_t len)
{
    __m128i zero = _mm_setzero_si128();
    std::uint32_t pos = 0;
    for (; pos + 16 <= len; pos += 16) {
        __m128i v =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + pos));
        if (_mm_movemask_epi8(_mm_cmpeq_epi8(v, zero)) != 0xffff)
            return false;
    }
    for (; pos < len; ++pos) {
        if (p[pos] != 0)
            return false;
    }
    return true;
}

/** Low 64 bits of a 64x64 multiply per lane, from 32-bit multiplies. */
__attribute__((target("sse2"))) inline __m128i
mullo64Sse2(__m128i a, __m128i b)
{
    __m128i lo = _mm_mul_epu32(a, b);
    __m128i cross = _mm_add_epi64(
        _mm_mul_epu32(_mm_srli_epi64(a, 32), b),
        _mm_mul_epu32(a, _mm_srli_epi64(b, 32)));
    return _mm_add_epi64(lo, _mm_slli_epi64(cross, 32));
}

__attribute__((target("sse2"))) void
fingerprintBlocksSse2(const std::uint8_t *data, std::size_t nblocks,
                      std::uint64_t h[4])
{
    const __m128i mult = _mm_set1_epi64x(
        static_cast<long long>(0xbf58476d1ce4e5b9ULL));
    __m128i h01 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(h));
    __m128i h23 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(h + 2));
    for (std::size_t i = 0; i < nblocks; ++i) {
        __m128i w01 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(data + i * 32));
        __m128i w23 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(data + i * 32 + 16));
        h01 = _mm_xor_si128(h01, w01);
        h23 = _mm_xor_si128(h23, w23);
        h01 = mullo64Sse2(h01, mult);
        h23 = mullo64Sse2(h23, mult);
        h01 = _mm_xor_si128(h01, _mm_srli_epi64(h01, 31));
        h23 = _mm_xor_si128(h23, _mm_srli_epi64(h23, 31));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i *>(h), h01);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(h + 2), h23);
}

// ------------------------------------------------------------------
// AVX2 tier.
// ------------------------------------------------------------------

__attribute__((target("avx2"))) std::uint32_t
firstDiffAvx2(const std::uint8_t *a, const std::uint8_t *b,
              std::uint32_t from, std::uint32_t len)
{
    std::uint32_t pos = from;
    for (; pos + 32 <= len; pos += 32) {
        __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + pos));
        __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + pos));
        std::uint32_t eq = static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
        if (eq != 0xffffffffu)
            return pos +
                static_cast<std::uint32_t>(std::countr_zero(~eq));
    }
    for (; pos < len; ++pos) {
        if (a[pos] != b[pos])
            return pos;
    }
    return len;
}

__attribute__((target("avx2"))) bool
rangeEqualAvx2(const std::uint8_t *a, const std::uint8_t *b,
               std::uint32_t len)
{
    std::uint32_t pos = 0;
    for (; pos + 32 <= len; pos += 32) {
        __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + pos));
        __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + pos));
        if (static_cast<std::uint32_t>(_mm256_movemask_epi8(
                _mm256_cmpeq_epi8(va, vb))) != 0xffffffffu)
            return false;
    }
    return pos == len || std::memcmp(a + pos, b + pos, len - pos) == 0;
}

__attribute__((target("avx2"))) bool
allZeroAvx2(const std::uint8_t *p, std::uint32_t len)
{
    std::uint32_t pos = 0;
    for (; pos + 32 <= len; pos += 32) {
        __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + pos));
        if (!_mm256_testz_si256(v, v))
            return false;
    }
    for (; pos < len; ++pos) {
        if (p[pos] != 0)
            return false;
    }
    return true;
}

__attribute__((target("avx2"))) inline __m256i
mullo64Avx2(__m256i a, __m256i b)
{
    __m256i lo = _mm256_mul_epu32(a, b);
    __m256i cross = _mm256_add_epi64(
        _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
        _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
    return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) void
fingerprintBlocksAvx2(const std::uint8_t *data, std::size_t nblocks,
                      std::uint64_t h[4])
{
    const __m256i mult = _mm256_set1_epi64x(
        static_cast<long long>(0xbf58476d1ce4e5b9ULL));
    __m256i hv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(h));
    for (std::size_t i = 0; i < nblocks; ++i) {
        __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(data + i * 32));
        hv = _mm256_xor_si256(hv, w);
        hv = mullo64Avx2(hv, mult);
        hv = _mm256_xor_si256(hv, _mm256_srli_epi64(hv, 31));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(h), hv);
}

__attribute__((target("avx2"))) std::uint32_t
findTagWayAvx2(const std::uint64_t *tags, std::uint32_t ways,
               std::uint64_t line_addr)
{
    // tag ^ line_addr in {1, 2, 3} <=> (tag ^ line_addr) - 1 in
    // [0, 2]. Tags stay below 2^63, so the signed 64-bit compares are
    // safe: x = 0 wraps to -1 and fails the lower bound.
    const __m256i vaddr = _mm256_set1_epi64x(
        static_cast<long long>(line_addr));
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i three = _mm256_set1_epi64x(3);
    const __m256i minus1 = _mm256_set1_epi64x(-1);
    std::uint32_t w = 0;
    for (; w + 4 <= ways; w += 4) {
        __m256i t = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(tags + w));
        __m256i y = _mm256_sub_epi64(_mm256_xor_si256(t, vaddr), one);
        __m256i m = _mm256_and_si256(_mm256_cmpgt_epi64(three, y),
                                     _mm256_cmpgt_epi64(y, minus1));
        unsigned mask = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(m)));
        if (mask)
            return w + static_cast<std::uint32_t>(std::countr_zero(mask));
    }
    for (; w < ways; ++w) {
        if ((tags[w] ^ line_addr) - 1 < 3)
            return w;
    }
    return noWay;
}

#endif // PF_SIMD_X86

// ------------------------------------------------------------------
// Dispatch.
// ------------------------------------------------------------------

struct Kernels
{
    std::uint32_t (*firstDiff)(const std::uint8_t *, const std::uint8_t *,
                               std::uint32_t, std::uint32_t);
    bool (*rangeEqual)(const std::uint8_t *, const std::uint8_t *,
                       std::uint32_t);
    bool (*allZero)(const std::uint8_t *, std::uint32_t);
    void (*fingerprintBlocks)(const std::uint8_t *, std::size_t,
                              std::uint64_t *);
    std::uint32_t (*findTagWay)(const std::uint64_t *, std::uint32_t,
                                std::uint64_t);
    Level level;
};

constexpr Kernels scalarKernels{firstDiffScalar, rangeEqualScalar,
                                allZeroScalar, fingerprintBlocksScalar,
                                findTagWayScalar, Level::Scalar};

Kernels
kernelsFor(Level level)
{
#if PF_SIMD_X86
    switch (level) {
      case Level::Avx2:
        return {firstDiffAvx2, rangeEqualAvx2, allZeroAvx2,
                fingerprintBlocksAvx2, findTagWayAvx2, Level::Avx2};
      case Level::Sse2:
        return {firstDiffSse2, rangeEqualSse2, allZeroSse2,
                fingerprintBlocksSse2, findTagWayScalar, Level::Sse2};
      case Level::Scalar:
        break;
    }
#else
    (void)level;
#endif
    return scalarKernels;
}

Level
detectBestLevel()
{
#if PF_SIMD_X86
    if (__builtin_cpu_supports("avx2"))
        return Level::Avx2;
    if (__builtin_cpu_supports("sse2"))
        return Level::Sse2;
#endif
    return Level::Scalar;
}

bool
scalarForced()
{
    const char *env = std::getenv("PF_FORCE_SCALAR");
    return env && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

Kernels &
state()
{
    // Resolved once, on first kernel use (thread-safe magic static);
    // the PF_FORCE_SCALAR override therefore applies no matter how
    // early the first page compare happens.
    static Kernels kernels =
        kernelsFor(scalarForced() ? Level::Scalar : detectBestLevel());
    return kernels;
}

} // namespace

Level
activeLevel()
{
    return state().level;
}

Level
bestLevel()
{
    return detectBestLevel();
}

const char *
levelName(Level level)
{
    switch (level) {
      case Level::Scalar:
        return "scalar";
      case Level::Sse2:
        return "sse2";
      case Level::Avx2:
        return "avx2";
    }
    return "?";
}

bool
setLevel(Level level)
{
    if (static_cast<int>(level) > static_cast<int>(detectBestLevel()))
        return false;
    state() = kernelsFor(level);
    return true;
}

std::uint32_t
firstDiff(const std::uint8_t *a, const std::uint8_t *b,
          std::uint32_t from, std::uint32_t len)
{
    return state().firstDiff(a, b, from, len);
}

bool
rangeEqual(const std::uint8_t *a, const std::uint8_t *b,
           std::uint32_t len)
{
    return state().rangeEqual(a, b, len);
}

bool
allZero(const std::uint8_t *p, std::uint32_t len)
{
    return state().allZero(p, len);
}

void
fingerprintBlocks(const std::uint8_t *data, std::size_t nblocks,
                  std::uint64_t h[4])
{
    state().fingerprintBlocks(data, nblocks, h);
}

std::uint32_t
findTagWay(const std::uint64_t *tags, std::uint32_t ways,
           std::uint64_t line_addr)
{
    return state().findTagWay(tags, ways, line_addr);
}

std::uint32_t
argminU64(const std::uint64_t *vals, std::uint32_t n)
{
    // Deliberately undispatched: a set holds at most ~20 timestamps,
    // where the scalar reduction already runs at full speed and a
    // horizontal SIMD argmin would pay more in lane extraction than
    // the loop costs.
    return argminU64Scalar(vals, n);
}

} // namespace simd
} // namespace pageforge
