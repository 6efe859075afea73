/**
 * @file
 * Cross-tier equivalence tests for the runtime-dispatched SIMD
 * kernels: every tier the host can execute must return bit-identical
 * results to the scalar reference on the same inputs, including the
 * awkward edges (unaligned lengths, diffs at vector boundaries, empty
 * ranges). The golden-stats suite enforces the same property end to
 * end; these tests localize a violation to the offending kernel.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "ecc/ecc_hash_key.hh"
#include "ecc/line_ecc.hh"
#include "sim/rng.hh"
#include "sim/simd.hh"
#include "sim/types.hh"

namespace pageforge
{
namespace
{

/** Tiers the host supports, scalar first. */
std::vector<simd::Level>
usableLevels()
{
    std::vector<simd::Level> levels{simd::Level::Scalar};
    for (simd::Level level : {simd::Level::Sse2, simd::Level::Avx2}) {
        if (static_cast<int>(level) <=
            static_cast<int>(simd::bestLevel()))
            levels.push_back(level);
    }
    return levels;
}

/** RAII guard restoring the detected tier after a forced switch. */
class LevelGuard
{
  public:
    explicit LevelGuard(simd::Level level)
    {
        EXPECT_TRUE(simd::setLevel(level));
    }
    ~LevelGuard() { simd::setLevel(simd::bestLevel()); }
};

class SimdTest : public ::testing::Test
{
  protected:
    SimdTest() : rng(1234)
    {
        a.resize(pageSize);
        b.resize(pageSize);
        for (std::uint32_t i = 0; i < pageSize; ++i)
            a[i] = static_cast<std::uint8_t>(rng.next());
        b = a;
    }

    Rng rng;
    std::vector<std::uint8_t> a;
    std::vector<std::uint8_t> b;
};

TEST_F(SimdTest, FirstDiffAgreesAcrossTiersAtEveryOffset)
{
    // Place a single diff at offsets crossing the 16/32 B lane
    // boundaries, plus first/last byte.
    for (std::uint32_t off :
         {0u, 1u, 15u, 16u, 17u, 31u, 32u, 33u, 63u, 64u, 100u, 2048u,
          pageSize - 33, pageSize - 1}) {
        b = a;
        b[off] ^= 0x5a;
        for (simd::Level level : usableLevels()) {
            LevelGuard guard(level);
            EXPECT_EQ(simd::firstDiff(a.data(), b.data(), 0, pageSize),
                      off)
                << simd::levelName(level);
            // A nonzero 'from' below/at/above the diff.
            if (off > 0) {
                EXPECT_EQ(
                    simd::firstDiff(a.data(), b.data(), off - 1, pageSize),
                    off)
                    << simd::levelName(level);
            }
            EXPECT_EQ(
                simd::firstDiff(a.data(), b.data(), off + 1, pageSize),
                pageSize)
                << simd::levelName(level);
        }
    }
}

TEST_F(SimdTest, FirstDiffEqualRangesReturnLen)
{
    for (simd::Level level : usableLevels()) {
        LevelGuard guard(level);
        EXPECT_EQ(simd::firstDiff(a.data(), b.data(), 0, pageSize),
                  pageSize);
        EXPECT_EQ(simd::firstDiff(a.data(), b.data(), 0, 0), 0u);
        // Unaligned lengths exercise the scalar tails.
        EXPECT_EQ(simd::firstDiff(a.data(), b.data(), 3, 77), 77u);
    }
}

TEST_F(SimdTest, RangeEqualAndAllZeroEdges)
{
    std::vector<std::uint8_t> zeros(pageSize, 0);
    for (simd::Level level : usableLevels()) {
        LevelGuard guard(level);
        EXPECT_TRUE(simd::rangeEqual(a.data(), b.data(), pageSize));
        EXPECT_TRUE(simd::rangeEqual(a.data(), b.data(), 0));
        EXPECT_TRUE(simd::allZero(zeros.data(), pageSize));
        for (std::uint32_t off : {0u, 31u, 32u, 63u, pageSize - 1}) {
            b = a;
            b[off] ^= 1;
            EXPECT_FALSE(simd::rangeEqual(a.data(), b.data(), pageSize))
                << simd::levelName(level) << " off=" << off;
            zeros[off] = 1;
            EXPECT_FALSE(simd::allZero(zeros.data(), pageSize))
                << simd::levelName(level) << " off=" << off;
            zeros[off] = 0;
        }
        b = a;
        // Odd lengths end in the tail path.
        EXPECT_TRUE(simd::allZero(zeros.data(), 37));
        zeros[36] = 9;
        EXPECT_FALSE(simd::allZero(zeros.data(), 37));
        zeros[36] = 0;
    }
}

TEST_F(SimdTest, FingerprintBlocksMatchesScalarLaneForLane)
{
    std::uint64_t ref[4] = {1, 2, 3, 4};
    {
        LevelGuard guard(simd::Level::Scalar);
        simd::fingerprintBlocks(a.data(), pageSize / 32, ref);
    }
    for (simd::Level level : usableLevels()) {
        LevelGuard guard(level);
        std::uint64_t h[4] = {1, 2, 3, 4};
        simd::fingerprintBlocks(a.data(), pageSize / 32, h);
        for (int lane = 0; lane < 4; ++lane)
            EXPECT_EQ(h[lane], ref[lane])
                << simd::levelName(level) << " lane " << lane;
    }
}

TEST_F(SimdTest, EccPageHashIdenticalAcrossTiers)
{
    // The ECC hash key samples real ECC codes; its accumulation loop
    // dispatches on the active tier, so the 32-bit key must come out
    // the same everywhere.
    EccOffsets offsets = EccOffsets::defaults();
    std::uint32_t ref;
    {
        LevelGuard guard(simd::Level::Scalar);
        ref = eccPageHash(a.data(), offsets);
    }
    for (simd::Level level : usableLevels()) {
        LevelGuard guard(level);
        EXPECT_EQ(eccPageHash(a.data(), offsets), ref)
            << simd::levelName(level);
    }
}

// ---- tag-set scan kernels ------------------------------------------

/** A packed tag: 64 B-aligned address OR'd with a 2-bit MESI state. */
std::uint64_t
packedTag(std::uint64_t line_addr, unsigned state)
{
    return line_addr | state;
}

TEST(SimdTagScanTest, FindTagWayMatchesScalarOnRandomSets)
{
    Rng rng(99);
    for (std::uint32_t ways : {1u, 4u, 8u, 16u, 20u}) {
        for (int trial = 0; trial < 200; ++trial) {
            std::vector<std::uint64_t> tags(ways);
            for (std::uint32_t w = 0; w < ways; ++w) {
                std::uint64_t addr = rng.nextBounded(64) * lineSize;
                unsigned state =
                    static_cast<unsigned>(rng.nextBounded(4));
                tags[w] = state ? packedTag(addr, state) : 0;
            }
            std::uint64_t probe = rng.nextBounded(64) * lineSize;

            // Reference: first way with matching address bits and a
            // nonzero state. At most one way can match in a real
            // cache; random sets may hold duplicates, which still
            // must resolve identically (first match wins everywhere).
            std::uint32_t ref = simd::noWay;
            for (std::uint32_t w = 0; w < ways && ref == simd::noWay;
                 ++w) {
                if ((tags[w] & ~std::uint64_t(3)) == probe &&
                    (tags[w] & 3))
                    ref = w;
            }
            for (simd::Level level : usableLevels()) {
                LevelGuard guard(level);
                EXPECT_EQ(simd::findTagWay(tags.data(), ways, probe),
                          ref)
                    << simd::levelName(level) << " ways=" << ways;
            }
        }
    }
}

TEST(SimdTagScanTest, ArgminPicksUniqueMinimum)
{
    Rng rng(7);
    for (std::uint32_t n : {1u, 2u, 8u, 16u, 20u}) {
        for (int trial = 0; trial < 100; ++trial) {
            std::vector<std::uint64_t> vals(n);
            for (auto &v : vals)
                v = rng.next() >> 1; // keep below 2^63
            std::uint32_t ref = 0;
            for (std::uint32_t i = 1; i < n; ++i) {
                if (vals[i] < vals[ref])
                    ref = i;
            }
            EXPECT_EQ(simd::argminU64(vals.data(), n), ref);
        }
    }
}

TEST(SimdTagScanTest, ArgminPicksFirstMinimumOnTies)
{
    // Cache victim choice relies on ties: every invalid way carries
    // stamp 0, and the first one must win on every tier.
    Rng rng(11);
    for (std::uint32_t n : {1u, 2u, 8u, 16u, 20u}) {
        for (int trial = 0; trial < 100; ++trial) {
            std::vector<std::uint64_t> vals(n);
            for (auto &v : vals) {
                // Small values force repeats; a third of them are the
                // invalid-way stamp 0.
                v = rng.nextBounded(3) == 0 ? 0 : 1 + rng.nextBounded(4);
            }
            std::uint32_t ref = 0;
            for (std::uint32_t i = 1; i < n; ++i) {
                if (vals[i] < vals[ref])
                    ref = i;
            }
            for (simd::Level level : usableLevels()) {
                LevelGuard guard(level);
                EXPECT_EQ(simd::argminU64(vals.data(), n), ref)
                    << simd::levelName(level) << " n=" << n;
            }
        }
    }
    for (simd::Level level : usableLevels()) {
        LevelGuard guard(level);
        const std::uint64_t all_zero[4] = {0, 0, 0, 0};
        EXPECT_EQ(simd::argminU64(all_zero, 4), 0u);
        const std::uint64_t tail_ties[5] = {9, 7, 3, 3, 3};
        EXPECT_EQ(simd::argminU64(tail_ties, 5), 2u);
    }
}

TEST(SimdLevelTest, SetLevelRejectsUnsupportedTier)
{
    // Asking for more than the host has must leave dispatch unchanged.
    if (simd::bestLevel() == simd::Level::Avx2)
        GTEST_SKIP() << "host supports every tier";
    EXPECT_FALSE(simd::setLevel(simd::Level::Avx2));
}

TEST(SimdLevelTest, LevelNamesAreStable)
{
    EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");
    EXPECT_STREQ(simd::levelName(simd::Level::Sse2), "sse2");
    EXPECT_STREQ(simd::levelName(simd::Level::Avx2), "avx2");
}

} // namespace
} // namespace pageforge
