/**
 * @file
 * Parameterized property sweeps across module configurations:
 * invariants that must hold for any geometry or size, exercised via
 * TEST_P / INSTANTIATE_TEST_SUITE_P.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "core/scan_table.hh"
#include "cpu/core.hh"
#include "cpu/scheduler.hh"
#include "ecc/ecc_hash_key.hh"
#include "ecc/hamming7264.hh"
#include "ksm/content_tree.hh"
#include "ksm/ksmd.hh"
#include "mem/dram_model.hh"
#include "mem/mem_controller.hh"
#include "sim/rng.hh"

namespace pageforge
{
namespace
{

// ---------------------------------------------------------------------
// (72,64) SECDED: single-error correction holds for any data word.
// ---------------------------------------------------------------------

class HammingSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HammingSweep, AllSingleBitErrorsCorrected)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 20; ++trial) {
        std::uint64_t word = rng.next();
        std::uint8_t check = Hamming7264::encode(word);

        // Clean decode.
        auto clean = Hamming7264::decode(word, check);
        ASSERT_EQ(clean.status, EccDecodeResult::Status::Ok);

        // Every single data-bit flip restores exactly.
        for (unsigned bit = 0; bit < 64; ++bit) {
            auto fixed =
                Hamming7264::decode(word ^ (1ULL << bit), check);
            ASSERT_EQ(fixed.status,
                      EccDecodeResult::Status::CorrectedData);
            ASSERT_EQ(fixed.data, word);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HammingSweep,
                         ::testing::Values(1, 7, 42, 1234, 99999));

// ---------------------------------------------------------------------
// Cache geometry sweep: capacity and LRU invariants for any shape.
// ---------------------------------------------------------------------

using CacheShape = std::tuple<std::uint32_t, std::uint32_t>; // size, ways

class CacheSweep : public ::testing::TestWithParam<CacheShape>
{
  protected:
    CacheConfig
    config() const
    {
        auto [size, ways] = GetParam();
        return CacheConfig{"sweep", size, ways, 2, 4};
    }
};

TEST_P(CacheSweep, NeverExceedsCapacity)
{
    Cache cache(config());
    std::size_t capacity =
        static_cast<std::size_t>(config().numSets()) * config().ways;

    Rng rng(5);
    for (int i = 0; i < 5000; ++i) {
        Addr line = rng.nextBounded(4096) * lineSize;
        if (cache.access(line) == MesiState::Invalid)
            cache.insert(line, MesiState::Shared);
        ASSERT_LE(cache.residentLines(), capacity);
    }
}

TEST_P(CacheSweep, ResidentAfterInsertUntilEvicted)
{
    Cache cache(config());
    Rng rng(7);
    std::vector<Addr> live;

    for (int i = 0; i < 2000; ++i) {
        Addr line = rng.nextBounded(8192) * lineSize;
        Victim victim = cache.insert(line, MesiState::Exclusive);
        ASSERT_TRUE(cache.contains(line));
        if (victim.valid) {
            ASSERT_FALSE(cache.contains(victim.addr));
            ASSERT_NE(victim.addr, line);
        }
    }
    (void)live;
}

TEST_P(CacheSweep, HitsPlusMissesEqualsAccesses)
{
    Cache cache(config());
    Rng rng(11);
    const int accesses = 3000;
    for (int i = 0; i < accesses; ++i) {
        Addr line = rng.nextBounded(512) * lineSize;
        if (cache.access(line) == MesiState::Invalid)
            cache.insert(line, MesiState::Shared);
    }
    EXPECT_EQ(cache.hits() + cache.misses(),
              static_cast<std::uint64_t>(accesses));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheSweep,
    ::testing::Values(CacheShape{1024, 1},      // direct-mapped
                      CacheShape{4096, 2},
                      CacheShape{8 * 1024, 8},  // one set, fully assoc.
                      CacheShape{64 * 1024, 16},
                      CacheShape{20 * 64 * 50, 20})); // non-pow2 sets

// ---------------------------------------------------------------------
// DRAM address mapping: distinct lines map consistently; consecutive
// lines exploit channel/bank parallelism for any geometry.
// ---------------------------------------------------------------------

using DramShape = std::tuple<unsigned, unsigned, unsigned>;

class DramSweep : public ::testing::TestWithParam<DramShape>
{
  protected:
    DramConfig
    config() const
    {
        auto [channels, ranks, banks] = GetParam();
        DramConfig cfg;
        cfg.channels = channels;
        cfg.ranksPerChannel = ranks;
        cfg.banksPerRank = banks;
        return cfg;
    }
};

TEST_P(DramSweep, MappingIsStableAndInRange)
{
    DramModel dram(config());
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        Addr line = rng.nextBounded(1 << 20) * lineSize;
        unsigned channel = dram.channelIndex(line);
        unsigned bank = dram.bankIndex(line);
        ASSERT_LT(channel, config().channels);
        ASSERT_LT(bank, config().totalBanks());
        ASSERT_EQ(dram.channelIndex(line), channel);
        ASSERT_EQ(dram.bankIndex(line), bank);
        // The bank belongs to the channel's bank range.
        unsigned banks_per_channel =
            config().ranksPerChannel * config().banksPerRank;
        ASSERT_EQ(bank / banks_per_channel, channel);
    }
}

TEST_P(DramSweep, ConsecutiveLinesUseAllBanks)
{
    DramModel dram(config());
    std::vector<bool> seen(config().totalBanks(), false);
    for (unsigned line = 0; line < config().totalBanks(); ++line)
        seen[dram.bankIndex(static_cast<Addr>(line) * lineSize)] = true;
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](bool b) { return b; }));
}

TEST_P(DramSweep, CompletionIsMonotoneWithArrival)
{
    DramModel dram(config());
    Addr line = 0;
    Tick done1 = dram.access(line, 0, false, Requester::App);
    Tick done2 = dram.access(line, done1 + 100, false, Requester::App);
    EXPECT_GT(done2, done1);
}

INSTANTIATE_TEST_SUITE_P(Geometries, DramSweep,
                         ::testing::Values(DramShape{1, 1, 4},
                                           DramShape{2, 8, 8},
                                           DramShape{4, 2, 8},
                                           DramShape{2, 1, 2}));

// ---------------------------------------------------------------------
// Scan-table token encoding: round-trip for every entry/side across
// table sizes.
// ---------------------------------------------------------------------

class ScanTableSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ScanTableSweep, TokensRoundTripForEveryEntry)
{
    unsigned entries = GetParam();
    ScanTable table(entries);
    for (unsigned i = 0; i < entries; ++i) {
        for (bool more : {false, true}) {
            ScanIndex absent = makeAbsentToken(i, more);
            ScanIndex cont = makeContinueToken(i, more);
            ASSERT_TRUE(isAbsentToken(absent));
            ASSERT_TRUE(isContinueToken(cont));
            ASSERT_FALSE(table.isValidTarget(absent));
            ASSERT_FALSE(table.isValidTarget(cont));
            ASSERT_EQ(tokenEntry(absent), i);
            ASSERT_EQ(tokenEntry(cont), i);
            ASSERT_EQ(tokenMoreSide(absent), more);
            ASSERT_EQ(tokenMoreSide(cont), more);
        }
    }
}

TEST_P(ScanTableSweep, SizeGrowsWithEntries)
{
    unsigned entries = GetParam();
    ScanTable table(entries);
    EXPECT_EQ(table.numOtherPages(), entries);
    if (entries > 1) {
        ScanTable smaller(entries - 1);
        EXPECT_GT(table.sizeBytes(), smaller.sizeBytes());
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanTableSweep,
                         ::testing::Values(1u, 7u, 15u, 31u, 63u, 127u));

// ---------------------------------------------------------------------
// Content tree: for any population size, in-order equals a reference
// sorted order and red-black invariants hold after churn.
// ---------------------------------------------------------------------

class TreePool : public PageAccessor
{
  public:
    PageHandle
    add(std::uint64_t seed)
    {
        auto page = std::make_unique<std::uint8_t[]>(pageSize);
        Rng rng(seed);
        for (std::uint32_t i = 0; i < pageSize; ++i)
            page[i] = static_cast<std::uint8_t>(rng.next());
        _pages.push_back(std::move(page));
        return _pages.size() - 1;
    }

    const std::uint8_t *
    resolve(PageHandle handle) override
    {
        return _pages[handle].get();
    }

  private:
    std::vector<std::unique_ptr<std::uint8_t[]>> _pages;
};

class ContentTreeSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(ContentTreeSweep, SortedOrderAndInvariants)
{
    TreePool pool;
    ContentTree tree(pool);
    std::map<std::vector<std::uint8_t>, PageHandle> reference;
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 77 + 5);

    const int n = GetParam();
    for (int i = 0; i < n; ++i) {
        PageHandle handle = pool.add(rng.next());
        const std::uint8_t *data = pool.resolve(handle);
        if (reference
                .emplace(std::vector<std::uint8_t>(data, data + pageSize),
                         handle)
                .second) {
            ASSERT_NE(tree.insert(handle), nullptr);
        }
    }

    ASSERT_EQ(tree.size(), reference.size());
    ASSERT_TRUE(tree.validate());

    std::vector<PageHandle> order;
    tree.forEach([&](PageHandle handle) { order.push_back(handle); });
    std::size_t idx = 0;
    for (const auto &[bytes, handle] : reference)
        ASSERT_EQ(order[idx++], handle);
}

TEST_P(ContentTreeSweep, SearchDepthIsLogarithmic)
{
    TreePool pool;
    ContentTree tree(pool);
    Rng rng(GetParam());

    const int n = GetParam();
    for (int i = 0; i < n; ++i)
        tree.insert(pool.add(rng.next()));

    // Red-black bound: height <= 2*log2(n+1).
    double bound = 2.0 * std::log2(static_cast<double>(n) + 1.0) + 1.0;
    for (int probes = 0; probes < 10; ++probes) {
        PageHandle probe = pool.add(rng.next());
        auto result = tree.search(pool.resolve(probe));
        ASSERT_LE(result.nodesVisited, static_cast<unsigned>(bound));
    }
}

INSTANTIATE_TEST_SUITE_P(Populations, ContentTreeSweep,
                         ::testing::Values(1, 3, 16, 100, 500, 2000));

// ---------------------------------------------------------------------
// ECC hash keys: for any offsets, equal pages hash equal, and a
// change on a sampled line is always detected.
// ---------------------------------------------------------------------

class EccOffsetSweep
    : public ::testing::TestWithParam<std::array<std::uint8_t, 4>>
{
};

TEST_P(EccOffsetSweep, EqualPagesHashEqual)
{
    EccOffsets offsets{GetParam()};
    Rng rng(31);
    for (int i = 0; i < 20; ++i) {
        std::vector<std::uint8_t> page(pageSize);
        for (auto &byte : page)
            byte = static_cast<std::uint8_t>(rng.next());
        std::vector<std::uint8_t> copy = page;
        ASSERT_EQ(eccPageHash(page.data(), offsets),
                  eccPageHash(copy.data(), offsets));
    }
}

TEST_P(EccOffsetSweep, SampledLineChangesAreDetected)
{
    EccOffsets offsets{GetParam()};
    Rng rng(37);
    std::vector<std::uint8_t> page(pageSize);
    for (auto &byte : page)
        byte = static_cast<std::uint8_t>(rng.next());
    std::uint32_t base = eccPageHash(page.data(), offsets);

    for (unsigned section = 0; section < eccHashSections; ++section) {
        std::uint32_t line = offsets.lineIndex(section);
        // A single-bit flip anywhere in the sampled line flips the
        // ECC code (Hamming distance >= 1 -> different check bits or
        // parity), and the minikey with probability ~1; assert at
        // least that SOME flip in the line is caught.
        bool caught = false;
        for (unsigned byte = 0; byte < lineSize && !caught; ++byte) {
            page[line * lineSize + byte] ^= 0x01;
            caught = eccPageHash(page.data(), offsets) != base;
            page[line * lineSize + byte] ^= 0x01;
        }
        ASSERT_TRUE(caught) << "section " << section;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Offsets, EccOffsetSweep,
    ::testing::Values(std::array<std::uint8_t, 4>{0, 0, 0, 0},
                      std::array<std::uint8_t, 4>{3, 7, 11, 13},
                      std::array<std::uint8_t, 4>{15, 15, 15, 15},
                      std::array<std::uint8_t, 4>{1, 14, 2, 13}));

// ---------------------------------------------------------------------
// CoW-break storm: fully merge two identical VMs, then write every
// page of one of them in random order. Whatever the order, the merged
// footprint must return to the unmerged one (savings ~ 0), refcounts
// must balance (audit), and no frame may leak.
// ---------------------------------------------------------------------

class CowStormSweep : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    static constexpr unsigned numCores = 2;
    static constexpr std::size_t pages = 48;

    CowStormSweep()
        : mem(2048), mc("mc0", eq, mem, DramConfig{}),
          hier("chip", eq, numCores,
               CacheConfig{"l1", 2 * 1024, 2, 2, 4},
               CacheConfig{"l2", 8 * 1024, 4, 6, 8},
               CacheConfig{"l3", 128 * 1024, 16, 20, 16},
               BusConfig{}, {&mc}),
          hyper("hv", eq, mem),
          sched("sched", eq, numCores, KsmPlacement::RoundRobin, 0.0,
                Rng(1)),
          core0("core0", eq, 0), core1("core1", eq, 1),
          ksmd("ksmd", eq, hyper, hier,
               std::vector<Core *>{&core0, &core1}, sched, KsmConfig{})
    {
        hyper.setInvariantChecking(true);
    }

    EventQueue eq;
    PhysicalMemory mem;
    MemController mc;
    Hierarchy hier;
    Hypervisor hyper;
    KsmScheduler sched;
    Core core0, core1;
    Ksmd ksmd;
};

TEST_P(CowStormSweep, FullStormUnsharesEverythingWithoutLeaks)
{
    Rng rng(GetParam());

    auto fill = [&](VmId vm, GuestPageNum gpn, std::uint64_t seed) {
        Rng prng(seed);
        std::uint8_t buf[pageSize];
        for (auto &byte : buf)
            byte = static_cast<std::uint8_t>(prng.next());
        hyper.writeToPage(vm, gpn, 0, buf, pageSize);
    };

    VmId keeper = hyper.createVm("keeper", pages);
    VmId storm = hyper.createVm("storm", pages);
    for (GuestPageNum gpn = 0; gpn < pages; ++gpn) {
        hyper.touchPage(keeper, gpn);
        hyper.touchPage(storm, gpn);
        std::uint64_t seed = 0xc0ffee + gpn;
        fill(keeper, gpn, seed);
        fill(storm, gpn, seed); // identical twin
    }
    hyper.markMergeable(keeper, 0, pages);
    hyper.markMergeable(storm, 0, pages);
    std::size_t unmerged = mem.framesInUse();

    for (int pass = 0; pass < 4; ++pass)
        ksmd.runOnePassNow();
    ASSERT_EQ(mem.framesInUse(), unmerged - pages); // fully merged

    // The storm: dirty every page of one VM in a random order.
    std::vector<GuestPageNum> order(pages);
    for (GuestPageNum gpn = 0; gpn < pages; ++gpn)
        order[gpn] = gpn;
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBounded(i)]);

    std::uint64_t breaks_before = hyper.cowBreaks();
    for (GuestPageNum gpn : order) {
        std::uint64_t junk = rng.next();
        std::uint32_t offset = static_cast<std::uint32_t>(
            rng.nextBounded(linesPerPage)) * lineSize;
        hyper.writeToPage(storm, gpn, offset, &junk, sizeof(junk));
    }

    // Every write hit a shared frame, so every page took a CoW break
    // and the footprint is back to the unmerged one: savings ~ 0.
    EXPECT_EQ(hyper.cowBreaks() - breaks_before, pages);
    EXPECT_EQ(mem.framesInUse(), unmerged);
    for (GuestPageNum gpn = 0; gpn < pages; ++gpn)
        EXPECT_NE(hyper.frameOf(storm, gpn), hyper.frameOf(keeper, gpn));

    // No leaks: tearing both VMs down returns every frame, and the
    // stable tree releases its pins on the way out.
    hyper.destroyVm(storm);
    hyper.destroyVm(keeper);
    EXPECT_EQ(mem.framesInUse(), 0u);
    FrameAuditReport audit = hyper.auditFrames();
    EXPECT_TRUE(audit.ok) << audit.problem;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CowStormSweep,
                         ::testing::Values(2u, 19u, 83u, 424242u));

} // namespace
} // namespace pageforge
