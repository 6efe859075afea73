/**
 * @file
 * Integration tests for the cache hierarchy: MESI transitions,
 * inclusion, writebacks, snoop probes, and pollution accounting.
 */

#include <vector>

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "sim/rng.hh"

namespace pageforge
{
namespace
{

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest()
        : mem(256), mc("mc0", eq, mem, DramConfig{}),
          hier("chip", eq, 4,
               CacheConfig{"l1", 1024, 2, 2, 4},
               CacheConfig{"l2", 4096, 4, 6, 8},
               CacheConfig{"l3", 64 * 1024, 16, 20, 16},
               BusConfig{}, {&mc})
    {
        frame = mem.allocFrame();
    }

    Addr
    line(std::uint32_t idx)
    {
        return lineAddr(frame, idx);
    }

    EventQueue eq;
    PhysicalMemory mem;
    MemController mc;
    Hierarchy hier;
    FrameId frame = invalidFrame;
};

TEST_F(HierarchyTest, ColdMissGoesToMemoryThenHitsL1)
{
    AccessResult first = hier.access(0, line(0), false, 0, Requester::App);
    EXPECT_EQ(first.source, AccessSource::Memory);

    AccessResult second = hier.access(0, line(0), false, 100'000,
                                      Requester::App);
    EXPECT_EQ(second.source, AccessSource::L1);
    EXPECT_LT(second.latency, first.latency);
}

TEST_F(HierarchyTest, ReadFillIsExclusiveWhenUnshared)
{
    hier.access(0, line(0), false, 0, Requester::App);
    EXPECT_EQ(hier.l2(0).probe(line(0)), MesiState::Exclusive);
}

TEST_F(HierarchyTest, SecondReaderMakesBothShared)
{
    hier.access(0, line(0), false, 0, Requester::App);
    hier.access(1, line(0), false, 1000, Requester::App);
    EXPECT_EQ(hier.l2(0).probe(line(0)), MesiState::Shared);
    EXPECT_EQ(hier.l2(1).probe(line(0)), MesiState::Shared);
}

TEST_F(HierarchyTest, WriteInvalidatesPeers)
{
    hier.access(0, line(0), false, 0, Requester::App);
    hier.access(1, line(0), false, 1000, Requester::App);
    hier.access(0, line(0), true, 2000, Requester::App);

    EXPECT_EQ(hier.l2(0).probe(line(0)), MesiState::Modified);
    EXPECT_EQ(hier.l2(1).probe(line(0)), MesiState::Invalid);
    EXPECT_FALSE(hier.l1(1).contains(line(0)));
}

TEST_F(HierarchyTest, DirtyPeerSuppliesLine)
{
    hier.access(0, line(0), true, 0, Requester::App);
    ASSERT_EQ(hier.l2(0).probe(line(0)), MesiState::Modified);

    AccessResult result = hier.access(1, line(0), false, 1000,
                                      Requester::App);
    EXPECT_EQ(result.source, AccessSource::Peer);
    EXPECT_EQ(hier.l2(0).probe(line(0)), MesiState::Shared);
}

TEST_F(HierarchyTest, L3ServicesSecondCoreAfterEviction)
{
    // Fill from core 0, then push the line out of core 0's private
    // caches (L2 holds 64 lines) by streaming two pages' worth of
    // conflicting lines.
    hier.access(0, line(0), false, 0, Requester::App);
    FrameId extra = mem.allocFrame();
    for (std::uint32_t i = 1; i < 64; ++i)
        hier.access(0, line(i), false, 1000 * i, Requester::App);
    for (std::uint32_t i = 0; i < 64; ++i) {
        hier.access(0, lineAddr(extra, i), false, 100'000 + 1000 * i,
                    Requester::App);
    }

    ASSERT_EQ(hier.l2(0).probe(line(0)), MesiState::Invalid);
    AccessResult result = hier.access(1, line(0), false, 1'000'000,
                                      Requester::App);
    EXPECT_EQ(result.source, AccessSource::L3);
}

TEST_F(HierarchyTest, InclusionBackInvalidatesL1)
{
    hier.access(0, line(0), false, 0, Requester::App);
    ASSERT_TRUE(hier.l1(0).contains(line(0)));

    // Evict line 0 from L2 via conflicting fills.
    for (std::uint32_t i = 1; i < 64; ++i)
        hier.access(0, line(i), false, 1000 * i, Requester::App);

    if (hier.l2(0).probe(line(0)) == MesiState::Invalid) {
        EXPECT_FALSE(hier.l1(0).contains(line(0)));
    }
}

TEST_F(HierarchyTest, UpgradeOnStoreToSharedLine)
{
    hier.access(0, line(0), false, 0, Requester::App);
    hier.access(1, line(0), false, 1000, Requester::App);
    std::uint64_t upgrades_before =
        static_cast<std::uint64_t>(hier.stats().value("upgrades"));

    hier.access(0, line(0), true, 2000, Requester::App);
    EXPECT_EQ(hier.stats().value("upgrades"), upgrades_before + 1);
}

TEST_F(HierarchyTest, SnoopForMcFindsCachedLines)
{
    EXPECT_FALSE(hier.snoopForMc(line(0), 0).hit);
    hier.access(2, line(0), false, 100, Requester::App);
    SnoopResult snoop = hier.snoopForMc(line(0), 1000);
    EXPECT_TRUE(snoop.hit);
    EXPECT_GT(snoop.done, 1000u);
}

TEST_F(HierarchyTest, SnoopDoesNotPerturbCaches)
{
    hier.access(0, line(0), false, 0, Requester::App);
    MesiState before = hier.l2(0).probe(line(0));
    std::uint64_t hits_before = hier.l2(0).hits();

    hier.snoopForMc(line(0), 1000);
    EXPECT_EQ(hier.l2(0).probe(line(0)), before);
    EXPECT_EQ(hier.l2(0).hits(), hits_before);
}

TEST_F(HierarchyTest, L3AttributionPerRequester)
{
    hier.access(0, line(0), false, 0, Requester::App);
    hier.access(0, line(40), false, 100, Requester::Ksm);

    EXPECT_EQ(hier.l3Accesses(Requester::App), 1u);
    EXPECT_EQ(hier.l3Accesses(Requester::Ksm), 1u);
    EXPECT_EQ(hier.l3Misses(Requester::App), 1u);
    EXPECT_GT(hier.l3MissRate(), 0.0);
}

TEST_F(HierarchyTest, MissLatencyOrdering)
{
    // L1 hit < L2 hit < L3 hit < memory.
    AccessResult mem_access =
        hier.access(0, line(0), false, 0, Requester::App);
    AccessResult l1 = hier.access(0, line(0), false, 10'000,
                                  Requester::App);
    EXPECT_LT(l1.latency, mem_access.latency);
    EXPECT_EQ(l1.latency, 2u);
}

TEST_F(HierarchyTest, ResetStatsClearsAttribution)
{
    hier.access(0, line(0), false, 0, Requester::App);
    hier.resetStats();
    EXPECT_EQ(hier.l3Accesses(Requester::App), 0u);
    EXPECT_EQ(hier.l1(0).hits(), 0u);
    EXPECT_DOUBLE_EQ(hier.l3MissRate(), 0.0);
}

TEST_F(HierarchyTest, WritebackReachesMemoryOnL3Eviction)
{
    // Dirty a line, then stream enough lines through one core to push
    // it through L2 into L3 and out of L3 to memory.
    hier.access(0, line(0), true, 0, Requester::App);

    PhysicalMemory big_mem(8192);
    // Use many distinct frames to create L3 pressure in *this* setup:
    // our L3 holds 1024 lines, so touch ~4096 distinct lines.
    std::vector<FrameId> frames;
    for (int i = 0; i < 64; ++i)
        frames.push_back(mem.allocFrame());
    Tick t = 1000;
    for (FrameId f : frames) {
        for (std::uint32_t l = 0; l < linesPerPage; ++l) {
            hier.access(0, lineAddr(f, l), false, t, Requester::App);
            t += 100;
        }
    }
    EXPECT_GT(hier.stats().value("writebacks_to_mem"), 0.0);
}

TEST(HierarchyResidencyTest, HolderByteStaysExactUnderRandomTraffic)
{
    // Tiny caches (L1 4 lines, L2 16, L3 64 per the geometry below)
    // over four frames force evictions, back-invalidations and
    // upgrades; a hot set of lines keeps peers sharing copies. After
    // every operation each touched line's byte must equal
    // 2 x (L2 holders) + (L3 holds), every L1 line must sit in its
    // own core's L2, and an E or M line must have no other L2 copy.
    constexpr unsigned cores = 4;
    EventQueue eq;
    PhysicalMemory mem(64);
    MemController mc("mc0", eq, mem, DramConfig{});
    Hierarchy hier("chip", eq, cores,
                   CacheConfig{"l1", 4 * lineSize, 2, 2, 4},
                   CacheConfig{"l2", 16 * lineSize, 4, 6, 8},
                   CacheConfig{"l3", 64 * lineSize, 8, 20, 16},
                   BusConfig{}, {&mc});
    std::vector<Addr> lines;
    for (int f = 0; f < 4; ++f) {
        FrameId frame = mem.allocFrame();
        for (std::uint32_t l = 0; l < linesPerPage; ++l)
            lines.push_back(lineAddr(frame, l));
    }
    std::vector<bool> touched(lines.size(), false);

    Rng rng(31);
    Tick now = 0;
    for (int step = 0; step < 20000; ++step) {
        std::size_t i = rng.nextBounded(2) ? rng.nextBounded(24)
                                           : rng.nextBounded(lines.size());
        touched[i] = true;
        Addr line = lines[i];
        CoreId core = static_cast<CoreId>(rng.nextBounded(cores));
        switch (rng.nextBounded(5)) {
          case 0:
            hier.snoopForMc(line, now);
            break;
          case 1:
          case 2:
            hier.access(core, line, true, now, Requester::App);
            break;
          default:
            hier.access(core, line, false, now, Requester::App);
            break;
        }
        now += 500;

        for (std::size_t j = 0; j < lines.size(); ++j) {
            if (!touched[j])
                continue;
            Addr l = lines[j];
            unsigned expect = hier.l3().contains(l) ? 1 : 0;
            unsigned owners = 0;
            for (unsigned c = 0; c < cores; ++c) {
                MesiState s2 = hier.l2(c).probe(l);
                if (s2 == MesiState::Exclusive || s2 == MesiState::Modified)
                    ++owners;
                if (s2 != MesiState::Invalid) {
                    expect += 2;
                } else {
                    ASSERT_FALSE(hier.l1(c).contains(l))
                        << "L1/L2 inclusion broken, step " << step;
                }
            }
            ASSERT_EQ(hier.residency().at(l), expect) << "step " << step;
            // MESI: an E or M copy is the only L2 copy.
            if (owners != 0) {
                ASSERT_EQ(expect / 2, 1u) << "step " << step;
            }
            ASSERT_EQ(hier.anyCacheHolds(l), expect != 0);
        }
    }
    EXPECT_GT(hier.l2(0).evictions(), 0u);
    EXPECT_GT(hier.l3().evictions(), 0u);
    EXPECT_GT(hier.stats().value("upgrades"), 0.0);
    EXPECT_GT(hier.stats().value("c2c_transfers"), 0.0);
}

} // namespace
} // namespace pageforge
