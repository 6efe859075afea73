/**
 * @file
 * Runtime-dispatched SIMD kernels for the page-content hot paths.
 *
 * The simulator's wall-clock is dominated by byte-level work over
 * 4 KB pages: locating the first differing byte of two pages (the
 * content-tree compares), whole-page equality checks (merge verify),
 * zero-page detection, and the fingerprint/hash loops. This module
 * provides AVX2 and SSE2 implementations of those primitives next to
 * portable scalar fallbacks, selected once at startup via cpuid.
 *
 * Every variant is bit-identical by construction: the kernels return
 * exact byte offsets and exact hash values, so modelled statistics
 * (bytes examined, lines fetched, hash keys) cannot depend on the
 * host's instruction set. The golden-stats suite and the CI
 * dispatch-equivalence leg enforce this invariant by running the same
 * campaigns with `PF_FORCE_SCALAR=1` and diffing the results.
 *
 * Overrides: the environment variable `PF_FORCE_SCALAR` (set and not
 * "0") pins the scalar kernels before first use; `setLevel()` (also
 * reachable via `pfsim --force-scalar`) switches levels
 * programmatically, e.g. from tests that cross-check variants.
 */

#ifndef PF_SIM_SIMD_HH
#define PF_SIM_SIMD_HH

#include <cstdint>

namespace pageforge
{
namespace simd
{

/** Instruction-set tier of the active kernels. */
enum class Level
{
    Scalar = 0,
    Sse2 = 1,
    Avx2 = 2,
};

/** Tier selected by detection (or forced); resolved on first use. */
Level activeLevel();

/** Best tier the host supports, ignoring any override. */
Level bestLevel();

/** Human-readable tier name ("scalar", "sse2", "avx2"). */
const char *levelName(Level level);

/**
 * Force the active tier. Returns false (and leaves the dispatch
 * unchanged) if the host cannot execute @p level. Not thread-safe
 * against concurrent kernel calls; switch levels only from
 * single-threaded context (startup flags, tests).
 */
bool setLevel(Level level);

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
 * Dirty-line-mask compares above this popcount fall back to a full
 * page compare: past ~3/4 of the page the masked walk's per-line
 * dispatch costs more than one streaming pass. Host-side tuning only
 * — both paths return exact results.
 */
constexpr unsigned maskedCompareMaxLines = 48;

/**
 * The 32-byte-per-iteration mixing loop of pageFingerprint64: for
 * each of @p nblocks consecutive 32 B blocks, lane i absorbs the
 * block's i-th little-endian 64-bit word as
 * `h[i] ^= w; h[i] *= 0xbf58476d1ce4e5b9; h[i] ^= h[i] >> 31`.
 * All tiers produce identical lane values.
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
 * one way can match (a line is resident at most once per cache), so
 * every tier trivially agrees with the scalar first-match scan.
 * @pre line_addr is 64 B aligned; tag values stay below 2^63.
 */
std::uint32_t findTagWay(const std::uint64_t *tags, std::uint32_t ways,
                         std::uint64_t line_addr);

/**
 * Index of the *first* minimum of @p vals[0, n). Used for victim
 * selection over a set's use timestamps: valid ways carry unique
 * stamps >= 1 from a strictly increasing clock, and every invalid way
 * carries 0, so ties occur by design and the first-index rule makes
 * the first invalid way win on every tier.
 * @pre n > 0; values stay below 2^63.
 */
std::uint32_t argminU64(const std::uint64_t *vals, std::uint32_t n);

} // namespace simd
} // namespace pageforge

#endif // PF_SIM_SIMD_HH
