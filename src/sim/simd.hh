/**
 * @file
 * Byte-level kernels for the page-content hot paths.
 *
 * The simulator's byte-level work over 4 KB pages sits here: locating
 * the first differing byte of two pages (the content-tree compares),
 * whole-page equality checks (merge verify), zero-page detection, the
 * fingerprint mixing loop and the cache tag-set scan. Each kernel has
 * one portable scalar implementation; the memcmp-based ones inherit
 * the C library's vectorization.
 *
 * The kernels return exact byte offsets and exact hash values, so
 * modelled statistics (bytes examined, lines fetched, hash keys) are
 * the same on every host.
 */

#ifndef PF_SIM_SIMD_HH
#define PF_SIM_SIMD_HH

#include <cstddef>
#include <cstdint>

namespace pageforge
{
namespace simd
{

/**
 * Instruction-set tier of the kernels. Only the scalar tier exists;
 * the name survives for the host benchmark's stamp line.
 */
enum class Level
{
    Scalar = 0,
};

/** Tier of the kernels in use: always Level::Scalar. */
inline Level
activeLevel()
{
    return Level::Scalar;
}

/** Human-readable tier name ("scalar"). */
inline const char *
levelName(Level)
{
    return "scalar";
}

/**
 * Index of the first byte in [from, len) where @p a and @p b differ,
 * or @p len when the ranges are equal. Bytes before @p from are not
 * read and are assumed irrelevant to the caller.
 */
std::uint32_t firstDiff(const std::uint8_t *a, const std::uint8_t *b,
                        std::uint32_t from, std::uint32_t len);

/** True when @p a and @p b are byte-identical over @p len bytes. */
bool rangeEqual(const std::uint8_t *a, const std::uint8_t *b,
                std::uint32_t len);

/** True when every byte of [p, p + len) is zero. */
bool allZero(const std::uint8_t *p, std::uint32_t len);

/**
 * The 32-byte-per-iteration mixing loop of pageFingerprint64: for
 * each of @p nblocks consecutive 32 B blocks, lane i absorbs the
 * block's i-th little-endian 64-bit word as
 * `h[i] ^= w; h[i] *= 0xbf58476d1ce4e5b9; h[i] ^= h[i] >> 31`.
 */
void fingerprintBlocks(const std::uint8_t *data, std::size_t nblocks,
                       std::uint64_t h[4]);

/** Sentinel returned by findTagWay when no way matched. */
constexpr std::uint32_t noWay = 0xffffffffu;

/**
 * Cache tag-set scan: index of the way whose packed tag matches
 * @p line_addr, or noWay. A packed tag is the 64 B-aligned line
 * address OR'd with a nonzero 2-bit MESI state (an invalid way stores
 * 0), so a match is exactly `tag ^ line_addr` in {1, 2, 3}. At most
 * one way can match (a line is resident at most once per cache); the
 * scan returns the first match.
 * @pre line_addr is 64 B aligned.
 */
std::uint32_t findTagWay(const std::uint64_t *tags, std::uint32_t ways,
                         std::uint64_t line_addr);

/**
 * Index of the *first* minimum of @p vals[0, n). Used for victim
 * selection over a set's use timestamps: valid ways carry unique
 * stamps >= 1 from a strictly increasing clock, and every invalid way
 * carries 0, so ties occur by design and the first-index rule makes
 * the first invalid way win.
 * @pre n > 0; values stay below 2^63.
 */
std::uint32_t argminU64(const std::uint64_t *vals, std::uint32_t n);

} // namespace simd
} // namespace pageforge

#endif // PF_SIM_SIMD_HH
