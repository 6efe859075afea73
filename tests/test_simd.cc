/**
 * @file
 * Tests for the page and tag kernels of sim/simd.hh. Each kernel is
 * checked against an independent in-test reference (a byte loop, the
 * documented lane formula, a linear scan, per-line Hamming encodes),
 * including the awkward edges: every diff offset, short and unaligned
 * lengths, empty ranges. Known-answer pins hold the page fingerprint
 * and the ECC page key to fixed values, since both feed modelled
 * statistics.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "ecc/ecc_hash_key.hh"
#include "ecc/hamming7264.hh"
#include "ecc/jhash.hh"
#include "ecc/line_ecc.hh"
#include "sim/rng.hh"
#include "sim/simd.hh"
#include "sim/types.hh"

namespace pageforge
{
namespace
{

// ---- in-test references --------------------------------------------

std::uint32_t
refFirstDiff(const std::uint8_t *a, const std::uint8_t *b,
             std::uint32_t from, std::uint32_t len)
{
    for (std::uint32_t i = from; i < len; ++i) {
        if (a[i] != b[i])
            return i;
    }
    return len;
}

bool
refAllZero(const std::uint8_t *p, std::uint32_t len)
{
    for (std::uint32_t i = 0; i < len; ++i) {
        if (p[i] != 0)
            return false;
    }
    return true;
}

/** Lengths around every chunk, word and vector boundary, plus a page. */
std::vector<std::uint32_t>
edgeLengths()
{
    std::vector<std::uint32_t> lens;
    for (std::uint32_t len = 0; len <= 70; ++len)
        lens.push_back(len);
    for (std::uint32_t len : {127u, 128u, 129u, 255u, 256u, 257u, 511u,
                              512u, 513u, pageSize - 1, pageSize})
        lens.push_back(len);
    return lens;
}

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
    // A single diff at every offset of the page, searched from below,
    // at and above it.
    for (std::uint32_t off = 0; off < pageSize; ++off) {
        b[off] ^= 0x5a;
        EXPECT_EQ(simd::firstDiff(a.data(), b.data(), 0, pageSize), off);
        EXPECT_EQ(simd::firstDiff(a.data(), b.data(), off, pageSize),
                  off);
        if (off > 0) {
            EXPECT_EQ(
                simd::firstDiff(a.data(), b.data(), off - 1, pageSize),
                off);
        }
        EXPECT_EQ(simd::firstDiff(a.data(), b.data(), off + 1, pageSize),
                  pageSize);
        b[off] = a[off];
    }
    // Every edge length, a diff at every position below it and a few
    // start offsets, against the byte loop.
    for (std::uint32_t len : edgeLengths()) {
        for (std::uint32_t off = 0; off <= len && off < pageSize; ++off) {
            b[off] ^= 1;
            for (std::uint32_t from : {0u, off / 2, off, off + 1}) {
                if (from > len)
                    continue;
                EXPECT_EQ(
                    simd::firstDiff(a.data(), b.data(), from, len),
                    refFirstDiff(a.data(), b.data(), from, len))
                    << "len=" << len << " off=" << off
                    << " from=" << from;
            }
            b[off] = a[off];
        }
    }
}

TEST_F(SimdTest, FirstDiffEqualRangesReturnLen)
{
    EXPECT_EQ(simd::firstDiff(a.data(), b.data(), 0, pageSize), pageSize);
    EXPECT_EQ(simd::firstDiff(a.data(), b.data(), 0, 0), 0u);
    EXPECT_EQ(simd::firstDiff(a.data(), b.data(), 3, 77), 77u);
    for (std::uint32_t len : edgeLengths()) {
        for (std::uint32_t from = 0; from <= len && from < 40; ++from)
            EXPECT_EQ(simd::firstDiff(a.data(), b.data(), from, len), len)
                << "len=" << len << " from=" << from;
    }
}

TEST_F(SimdTest, RangeEqualAndAllZeroEdges)
{
    std::vector<std::uint8_t> zeros(pageSize, 0);
    for (std::uint32_t len : edgeLengths()) {
        EXPECT_TRUE(simd::rangeEqual(a.data(), b.data(), len))
            << "len=" << len;
        EXPECT_TRUE(simd::allZero(zeros.data(), len)) << "len=" << len;
        // One differing (or nonzero) byte anywhere in the page: inside
        // the range it must be seen, past the end it must not.
        for (std::uint32_t off = 0; off < pageSize;
             off += off < 600 ? 1 : 61) {
            b[off] ^= 0x80;
            zeros[off] = 0x80;
            EXPECT_EQ(simd::rangeEqual(a.data(), b.data(), len),
                      refFirstDiff(a.data(), b.data(), 0, len) == len)
                << "len=" << len << " off=" << off;
            EXPECT_EQ(simd::allZero(zeros.data(), len),
                      refAllZero(zeros.data(), len))
                << "len=" << len << " off=" << off;
            b[off] = a[off];
            zeros[off] = 0;
        }
    }
    EXPECT_FALSE(simd::allZero(a.data(), pageSize));
}

TEST_F(SimdTest, FingerprintBlocksMatchesScalarLaneForLane)
{
    // The lane formula documented in simd.hh, one 64-bit word at a time.
    for (std::size_t nblocks : {0u, 1u, 2u, 3u, 64u, 127u, 128u}) {
        std::uint64_t seed[4];
        for (std::uint64_t &lane : seed)
            lane = rng.next();
        std::uint64_t ref[4];
        std::memcpy(ref, seed, sizeof(ref));
        for (std::size_t blk = 0; blk < nblocks; ++blk) {
            for (int lane = 0; lane < 4; ++lane) {
                std::uint64_t w = 0;
                for (int byte = 7; byte >= 0; --byte)
                    w = (w << 8) | a[blk * 32 + lane * 8 + byte];
                ref[lane] ^= w;
                ref[lane] *= 0xbf58476d1ce4e5b9ULL;
                ref[lane] ^= ref[lane] >> 31;
            }
        }
        std::uint64_t h[4];
        std::memcpy(h, seed, sizeof(h));
        simd::fingerprintBlocks(a.data(), nblocks, h);
        for (int lane = 0; lane < 4; ++lane)
            EXPECT_EQ(h[lane], ref[lane])
                << "nblocks=" << nblocks << " lane " << lane;
    }
}

TEST_F(SimdTest, EccPageHashIdenticalAcrossTiers)
{
    // The key concatenates, section by section, the Hamming check byte
    // of the sampled line's first word: that line's ECC minikey.
    for (int trial = 0; trial < 50; ++trial) {
        EccOffsets offsets = EccOffsets::defaults();
        if (trial > 0) {
            for (std::uint8_t &off : offsets.offset)
                off = static_cast<std::uint8_t>(
                    rng.nextBounded(linesPerSection));
        }
        std::uint32_t ref = 0;
        for (unsigned s = 0; s < eccHashSections; ++s) {
            const std::uint8_t *line =
                a.data() + offsets.lineIndex(s) * lineSize;
            std::uint64_t word;
            std::memcpy(&word, line, 8);
            std::uint8_t minikey = Hamming7264::encode(word);
            ASSERT_EQ(minikey, LineEcc::minikey(LineEcc::encode(line)));
            ref |= static_cast<std::uint32_t>(minikey) << (8 * s);
        }
        EXPECT_EQ(eccPageHash(a.data(), offsets), ref)
            << "trial " << trial;
        a[rng.nextBounded(pageSize)] ^= 0xff;
    }
}

// Known answers on the fixture's seeded page. pageFingerprint64 is
// KSM's strong hash and eccPageHash is PageForge's key, so a change
// here moves Figure 8's false-match counts.

TEST_F(SimdTest, PageFingerprint64KnownAnswer)
{
    EXPECT_EQ(pageFingerprint64(a.data(), pageSize),
              0xa768860adf62c20cULL);
    EXPECT_EQ(pageFingerprint64(a.data(), 1000 + 7),
              0x906430b9b16793faULL);
}

TEST_F(SimdTest, EccPageHashKnownAnswer)
{
    EXPECT_EQ(eccPageHash(a.data(), EccOffsets::defaults()), 0x33cbeea5u);
    EXPECT_EQ(eccPageHash(a.data(), EccOffsets{{0, 15, 1, 14}}),
              0x9319d44fu);
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
    for (std::uint32_t ways : {0u, 1u, 3u, 4u, 5u, 8u, 16u, 20u}) {
        for (int trial = 0; trial < 200; ++trial) {
            std::vector<std::uint64_t> tags(ways);
            for (std::uint32_t w = 0; w < ways; ++w) {
                std::uint64_t addr = rng.nextBounded(64) * lineSize;
                unsigned state =
                    static_cast<unsigned>(rng.nextBounded(4));
                tags[w] = state ? packedTag(addr, state) : 0;
            }
            std::uint64_t probe = rng.nextBounded(64) * lineSize;

            // Reference: linear scan for the first way with matching
            // address bits and a nonzero state. At most one way can
            // match in a real cache; random sets may hold duplicates,
            // where the first match wins.
            std::uint32_t ref = simd::noWay;
            for (std::uint32_t w = 0; w < ways && ref == simd::noWay;
                 ++w) {
                if ((tags[w] & ~std::uint64_t(3)) == probe &&
                    (tags[w] & 3))
                    ref = w;
            }
            EXPECT_EQ(simd::findTagWay(tags.data(), ways, probe), ref)
                << "ways=" << ways;
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
    // stamp 0, and the first one must win.
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
            EXPECT_EQ(simd::argminU64(vals.data(), n), ref) << "n=" << n;
        }
    }
    const std::uint64_t all_zero[4] = {0, 0, 0, 0};
    EXPECT_EQ(simd::argminU64(all_zero, 4), 0u);
    const std::uint64_t tail_ties[5] = {9, 7, 3, 3, 3};
    EXPECT_EQ(simd::argminU64(tail_ties, 5), 2u);
}

} // namespace
} // namespace pageforge
