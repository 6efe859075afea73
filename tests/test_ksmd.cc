/**
 * @file
 * Tests for the software KSM daemon: Algorithm 1 semantics, hash-gate
 * behaviour across passes, merging, CoW interplay, and cost
 * accounting.
 */

#include "sim_fixture.hh"

#include "ksm/ksmd.hh"

namespace pageforge
{
namespace
{

class KsmdTest : public SmallMachine
{
  protected:
    KsmdTest()
        : sched("sched", eq, numCores, KsmPlacement::RoundRobin, 0.0,
                Rng(1))
    {
    }

    std::unique_ptr<Ksmd>
    makeKsmd(KsmConfig config = {})
    {
        return std::make_unique<Ksmd>("ksmd", eq, hyper, hier,
                                      corePtrs(), sched, config);
    }

    KsmScheduler sched;
};

TEST_F(KsmdTest, TwoPassesMergeIdenticalPages)
{
    VmId vm0 = makeVm(4);
    VmId vm1 = makeVm(4);
    fillSeeded(vm0, 0, 100);
    fillSeeded(vm1, 0, 100); // identical to vm0 page 0
    fillSeeded(vm0, 1, 200);
    fillSeeded(vm1, 1, 300);

    auto ksmd = makeKsmd();
    // Pass 1: hashes are stored, nothing merges (first scan).
    ksmd->runOnePassNow();
    EXPECT_EQ(hyper.merges(), 0u);

    // Pass 2: hash matches, unstable tree search finds the twin.
    ksmd->runOnePassNow();
    EXPECT_GE(hyper.merges(), 1u);
    EXPECT_EQ(hyper.frameOf(vm0, 0), hyper.frameOf(vm1, 0));
    EXPECT_NE(hyper.frameOf(vm0, 1), hyper.frameOf(vm1, 1));
}

TEST_F(KsmdTest, ZeroPagesAllMergeToOneFrame)
{
    VmId vm0 = makeVm(6);
    VmId vm1 = makeVm(6);
    // All pages are zero (fresh-touched); after two passes they must
    // share a single frame.
    auto ksmd = makeKsmd();
    ksmd->runOnePassNow();
    ksmd->runOnePassNow();

    FrameId zero_frame = hyper.frameOf(vm0, 0);
    for (GuestPageNum gpn = 0; gpn < 6; ++gpn) {
        EXPECT_EQ(hyper.frameOf(vm0, gpn), zero_frame);
        EXPECT_EQ(hyper.frameOf(vm1, gpn), zero_frame);
    }
    EXPECT_EQ(mem.refCount(zero_frame), 12u + 1u); // + stable tree pin
}

TEST_F(KsmdTest, ThirdCopyMergesViaStableTree)
{
    VmId vm0 = makeVm(2);
    VmId vm1 = makeVm(2);
    VmId vm2 = makeVm(2);
    fillSeeded(vm0, 0, 42);
    fillSeeded(vm1, 0, 42);
    fillSeeded(vm0, 1, 1);
    fillSeeded(vm1, 1, 2);
    fillSeeded(vm2, 0, 3);
    fillSeeded(vm2, 1, 4);

    auto ksmd = makeKsmd();
    ksmd->runOnePassNow();
    ksmd->runOnePassNow();
    ASSERT_EQ(hyper.frameOf(vm0, 0), hyper.frameOf(vm1, 0));
    std::uint64_t merges_before = ksmd->mergeStats().stableMerges;

    // Now a third identical page appears; it must merge through the
    // *stable* tree on the very next pass (no two-pass hash gate).
    fillSeeded(vm2, 0, 42);
    ksmd->runOnePassNow();
    EXPECT_EQ(hyper.frameOf(vm2, 0), hyper.frameOf(vm0, 0));
    EXPECT_GT(ksmd->mergeStats().stableMerges, merges_before);
}

TEST_F(KsmdTest, ChangedPageIsDroppedByHashGate)
{
    VmId vm0 = makeVm(2);
    VmId vm1 = makeVm(2);
    fillSeeded(vm0, 0, 7);
    fillSeeded(vm1, 0, 8);

    auto ksmd = makeKsmd();
    ksmd->runOnePassNow();
    std::uint64_t dropped_before = ksmd->mergeStats().pagesDropped;

    // Change vm0 page 0 between passes: its jhash no longer matches,
    // so it must be dropped, not inserted into the unstable tree.
    fillSeeded(vm0, 0, 9);
    ksmd->runOnePassNow();
    EXPECT_GT(ksmd->mergeStats().pagesDropped, dropped_before);
}

TEST_F(KsmdTest, WriteAfterMergeUnmergesViaCow)
{
    VmId vm0 = makeVm(1);
    VmId vm1 = makeVm(1);
    fillSeeded(vm0, 0, 5);
    fillSeeded(vm1, 0, 5);

    auto ksmd = makeKsmd();
    ksmd->runOnePassNow();
    ksmd->runOnePassNow();
    ASSERT_EQ(hyper.frameOf(vm0, 0), hyper.frameOf(vm1, 0));

    std::uint8_t byte = 0xFF;
    hyper.writeToPage(vm0, 0, 10, &byte, 1);
    EXPECT_NE(hyper.frameOf(vm0, 0), hyper.frameOf(vm1, 0));
    EXPECT_EQ(hyper.cowBreaks(), 1u);
}

TEST_F(KsmdTest, StableTreePinsMergedFrames)
{
    VmId vm0 = makeVm(1);
    VmId vm1 = makeVm(1);
    fillSeeded(vm0, 0, 5);
    fillSeeded(vm1, 0, 5);

    auto ksmd = makeKsmd();
    ksmd->runOnePassNow();
    ksmd->runOnePassNow();
    FrameId merged = hyper.frameOf(vm0, 0);
    // Two guest mappings plus the stable tree's reference.
    EXPECT_EQ(mem.refCount(merged), 3u);

    // Both guests write: frame survives, held only by the tree...
    std::uint8_t byte = 1;
    hyper.writeToPage(vm0, 0, 0, &byte, 1);
    hyper.writeToPage(vm1, 0, 0, &byte, 1);
    EXPECT_TRUE(mem.isAllocated(merged));
    EXPECT_EQ(mem.refCount(merged), 1u);

    // ...until a later pass prunes the stale stable node.
    ksmd->runOnePassNow();
    ksmd->runOnePassNow();
    EXPECT_FALSE(mem.isAllocated(merged));
}

TEST_F(KsmdTest, PoisonedUnstableKeeperIsDroppedNotMerged)
{
    VmId vm0 = makeVm(1);
    VmId vm1 = makeVm(1);
    fillSeeded(vm0, 0, 5);
    fillSeeded(vm1, 0, 5);

    auto ksmd = makeKsmd();
    ksmd->runOnePassNow(); // first scan: hashes stored, nothing merges

    // Pass 2 inserts vm0's page into the unstable tree and then
    // matches vm1's twin against it. The keeper's last line has not
    // been read yet (jhash reads the first 1 KB), so the compare walk
    // fetches it from DRAM and the double-bit flip poisons the frame
    // while the arena copy still compares equal.
    FrameId keeper = hyper.frameOf(vm0, 0);
    Addr addr = lineAddr(keeper, linesPerPage - 1);
    mc.injectBitFlip(addr, 3);
    mc.injectBitFlip(addr, 60);
    ksmd->runOnePassNow();

    EXPECT_TRUE(mem.isPoisoned(keeper));
    EXPECT_EQ(hyper.merges(), 0u);
    EXPECT_NE(hyper.frameOf(vm1, 0), keeper);
    EXPECT_EQ(ksmd->mergeStats().unstableMerges, 0u);
    EXPECT_GE(ksmd->mergeStats().pagesDropped, 1u);
}

TEST_F(KsmdTest, PoisonedStableMatchIsDroppedNotMerged)
{
    VmId vm0 = makeVm(1);
    VmId vm1 = makeVm(1);
    VmId vm2 = makeVm(1);
    fillSeeded(vm0, 0, 5);
    fillSeeded(vm1, 0, 5);
    fillSeeded(vm2, 0, 6);

    // Uncached compares: every compared line comes from DRAM.
    KsmConfig config;
    config.bypassCaches = true;
    auto ksmd = makeKsmd(config);
    ksmd->runOnePassNow();
    ksmd->runOnePassNow();
    FrameId stable = hyper.frameOf(vm0, 0);
    ASSERT_EQ(hyper.frameOf(vm1, 0), stable);
    ASSERT_EQ(hyper.merges(), 1u);

    // A third copy appears. Its stable-tree compare reads the stable
    // frame's last line, and the double-bit flip poisons the frame
    // while the arena copy still compares equal.
    fillSeeded(vm2, 0, 5);
    Addr addr = lineAddr(stable, linesPerPage - 1);
    mc.injectBitFlip(addr, 3);
    mc.injectBitFlip(addr, 60);
    ksmd->runOnePassNow();

    EXPECT_TRUE(mem.isPoisoned(stable));
    EXPECT_EQ(hyper.merges(), 1u);
    EXPECT_NE(hyper.frameOf(vm2, 0), stable);
    EXPECT_EQ(ksmd->mergeStats().stableMerges, 0u);
    EXPECT_EQ(hyper.poisonedMergeRefusals(), 1u);
}

TEST_F(KsmdTest, EventModeOccupiesCoresAndMerges)
{
    VmId vm0 = makeVm(8);
    VmId vm1 = makeVm(8);
    for (GuestPageNum g = 0; g < 8; ++g) {
        fillSeeded(vm0, g, 1000 + g);
        fillSeeded(vm1, g, 1000 + g);
    }

    KsmConfig config;
    config.sleepInterval = msToTicks(0.05);
    config.pagesToScan = 8;
    auto ksmd = makeKsmd(config);
    ksmd->start();
    eq.runUntil(msToTicks(5));
    ksmd->stop();

    EXPECT_GE(hyper.merges(), 8u);
    Tick ksm_busy = 0;
    for (auto &core : cores)
        ksm_busy += core->busyTicks(Requester::Ksm);
    EXPECT_GT(ksm_busy, 0u);
}

TEST_F(KsmdTest, CycleAccountingCoversAllCategories)
{
    VmId vm0 = makeVm(8);
    VmId vm1 = makeVm(8);
    for (GuestPageNum g = 0; g < 8; ++g) {
        fillSeeded(vm0, g, 2000 + g);
        fillSeeded(vm1, g, 2000 + g);
    }

    auto ksmd = makeKsmd();
    ksmd->runOnePassNow();
    ksmd->runOnePassNow();

    const DaemonCycleStats &cycles = ksmd->cycleStats();
    EXPECT_GT(cycles.compareCycles, 0u);
    EXPECT_GT(cycles.hashCycles, 0u);
    EXPECT_GT(cycles.otherCycles, 0u);
    double sum = cycles.fraction(cycles.compareCycles) +
        cycles.fraction(cycles.hashCycles) +
        cycles.fraction(cycles.otherCycles);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_F(KsmdTest, HashStatsRecordMatchesAndMismatches)
{
    VmId vm0 = makeVm(4);
    VmId vm1 = makeVm(4);
    for (GuestPageNum g = 0; g < 4; ++g) {
        fillSeeded(vm0, g, 3000 + g);
        fillSeeded(vm1, g, 4000 + g); // all unique: no merging
    }

    auto ksmd = makeKsmd();
    ksmd->runOnePassNow(); // first pass: no previous keys
    EXPECT_EQ(ksmd->hashStats().comparisons(), 0u);

    ksmd->runOnePassNow(); // unchanged pages: all match
    EXPECT_GT(ksmd->hashStats().jhashMatches, 0u);
    EXPECT_EQ(ksmd->hashStats().jhashMismatches, 0u);

    fillSeeded(vm0, 0, 5555);
    ksmd->runOnePassNow();
    EXPECT_GT(ksmd->hashStats().jhashMismatches, 0u);
}

TEST_F(KsmdTest, ScanningPollutesCaches)
{
    VmId vm = makeVm(32);
    for (GuestPageNum g = 0; g < 32; ++g)
        fillSeeded(vm, g, 7000 + g);

    std::uint64_t ksm_l3 = hier.l3Accesses(Requester::Ksm);
    auto ksmd = makeKsmd();
    ksmd->runOnePassNow();
    EXPECT_GT(hier.l3Accesses(Requester::Ksm), ksm_l3);
}

} // namespace
} // namespace pageforge
