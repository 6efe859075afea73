/**
 * @file
 * Tests for the KSM-on-PageForge OS driver: tree batching through the
 * Scan Table, continuation refills, hash gating via ECC keys, merging
 * semantics identical to software KSM, and event-mode operation.
 */

#include "sim_fixture.hh"

#include "core/pageforge_driver.hh"
#include "ksm/ksmd.hh"

namespace pageforge
{
namespace
{

class PageForgeDriverTest : public SmallMachine
{
  protected:
    PageForgeDriverTest()
        : module("pf", eq, mc, hier, PageForgeConfig{}), api(module)
    {
    }

    std::unique_ptr<PageForgeDriver>
    makeDriver(PageForgeDriverConfig config = {})
    {
        return std::make_unique<PageForgeDriver>(
            "pfd", eq, hyper, std::vector<PageForgeApi *>{&api}, shards,
            router, corePtrs(), config);
    }

    PageForgeModule module;
    PageForgeApi api;
};

TEST_F(PageForgeDriverTest, TwoPassesMergeIdenticalPages)
{
    VmId vm0 = makeVm(4);
    VmId vm1 = makeVm(4);
    fillSeeded(vm0, 0, 100);
    fillSeeded(vm1, 0, 100);
    fillSeeded(vm0, 1, 200);
    fillSeeded(vm1, 1, 300);

    auto driver = makeDriver();
    driver->runOnePassNow();
    EXPECT_EQ(hyper.merges(), 0u); // first scan: hash gate drops all

    driver->runOnePassNow();
    EXPECT_GE(hyper.merges(), 1u);
    EXPECT_EQ(hyper.frameOf(vm0, 0), hyper.frameOf(vm1, 0));
    EXPECT_NE(hyper.frameOf(vm0, 1), hyper.frameOf(vm1, 1));
}

TEST_F(PageForgeDriverTest, MatchesKsmMemorySavingsExactly)
{
    // The paper's headline: PageForge attains savings identical to
    // KSM. Build two identical memory images and run each daemon to
    // steady state; the frame footprints must be equal.
    VmId vms[4];
    for (int v = 0; v < 4; ++v)
        vms[v] = makeVm(12);
    for (int v = 0; v < 4; ++v) {
        for (GuestPageNum g = 0; g < 6; ++g)
            fillSeeded(vms[v], g, 500 + g); // cross-VM duplicates
        for (GuestPageNum g = 6; g < 10; ++g)
            fillSeeded(vms[v], g, 1000 + v * 100 + g); // unique
        // Pages 10,11 stay zero.
    }

    auto driver = makeDriver();
    for (int pass = 0; pass < 4; ++pass)
        driver->runOnePassNow();
    std::size_t pf_frames = hyper.analyzeDuplication().framesUsed;

    // Fresh, identical setup for software KSM.
    PhysicalMemory mem2(2048);
    EventQueue eq2;
    MemController mc2("mc0", eq2, mem2, DramConfig{});
    Hierarchy hier2("chip", eq2, numCores,
                    CacheConfig{"l1", 2 * 1024, 2, 2, 4},
                    CacheConfig{"l2", 8 * 1024, 4, 6, 8},
                    CacheConfig{"l3", 128 * 1024, 16, 20, 16},
                    BusConfig{}, {&mc2});
    Hypervisor hyper2("hv", eq2, mem2);
    std::vector<std::unique_ptr<Core>> cores2;
    std::vector<Core *> core_ptrs2;
    for (unsigned c = 0; c < numCores; ++c) {
        cores2.push_back(std::make_unique<Core>(
            "core" + std::to_string(c), eq2, static_cast<CoreId>(c)));
        core_ptrs2.push_back(cores2.back().get());
    }
    KsmScheduler sched2("s", eq2, numCores, KsmPlacement::RoundRobin,
                        0.0, Rng(1));
    Ksmd ksmd("ksmd", eq2, hyper2, hier2, core_ptrs2, sched2,
              KsmConfig{});

    auto fill2 = [&](VmId vm, GuestPageNum gpn, std::uint64_t seed) {
        Rng rng(seed);
        std::uint8_t buf[pageSize];
        for (auto &byte : buf)
            byte = static_cast<std::uint8_t>(rng.next());
        hyper2.writeToPage(vm, gpn, 0, buf, pageSize);
    };
    VmId vms2[4];
    for (int v = 0; v < 4; ++v) {
        vms2[v] = hyper2.createVm("vm", 12);
        for (GuestPageNum g = 0; g < 12; ++g)
            hyper2.touchPage(vms2[v], g);
        hyper2.markMergeable(vms2[v], 0, 12);
        for (GuestPageNum g = 0; g < 6; ++g)
            fill2(vms2[v], g, 500 + g);
        for (GuestPageNum g = 6; g < 10; ++g)
            fill2(vms2[v], g, 1000 + v * 100 + g);
    }
    for (int pass = 0; pass < 4; ++pass)
        ksmd.runOnePassNow();
    std::size_t ksm_frames = hyper2.analyzeDuplication().framesUsed;

    EXPECT_EQ(pf_frames, ksm_frames);
    // 6 dup groups + 4x4 unique + 1 zero frame = 23.
    EXPECT_EQ(pf_frames, 23u);
}

TEST_F(PageForgeDriverTest, DeepTreesNeedRefills)
{
    // More unique pages than fit in one 31-entry batch: the driver
    // must use continuation refills.
    VmId vm = makeVm(80);
    for (GuestPageNum g = 0; g < 80; ++g)
        fillSeeded(vm, g, 9000 + g);

    auto driver = makeDriver();
    driver->runOnePassNow();
    driver->runOnePassNow();
    // With an 80-node unstable tree (depth > 5), at least one
    // candidate descended beyond the root batch.
    EXPECT_GT(driver->refills(), 2u * 80u);
}

TEST_F(PageForgeDriverTest, EccHashGateDropsChangedPages)
{
    VmId vm0 = makeVm(2);
    VmId vm1 = makeVm(2);
    fillSeeded(vm0, 0, 1);
    fillSeeded(vm1, 0, 2);
    fillSeeded(vm0, 1, 3);
    fillSeeded(vm1, 1, 4);

    auto driver = makeDriver();
    driver->runOnePassNow();
    std::uint64_t dropped_before = driver->mergeStats().pagesDropped;

    // Change a page on a *sampled* ECC line so the key must differ.
    std::uint32_t line =
        driver->config().eccOffsets.lineIndex(0);
    std::uint8_t junk[lineSize];
    std::memset(junk, 0xEE, lineSize);
    hyper.writeToPage(vm0, 0, line * lineSize, junk, lineSize);

    driver->runOnePassNow();
    EXPECT_GT(driver->mergeStats().pagesDropped, dropped_before);
    EXPECT_GT(driver->hashStats().eccMismatches, 0u);
}

TEST_F(PageForgeDriverTest, HardwareHashAgreesWithFunctionalKey)
{
    VmId vm0 = makeVm(6);
    VmId vm1 = makeVm(6);
    for (GuestPageNum g = 0; g < 6; ++g) {
        fillSeeded(vm0, g, 100 + g);
        fillSeeded(vm1, g, 100 + g);
    }

    auto driver = makeDriver();
    for (int pass = 0; pass < 3; ++pass)
        driver->runOnePassNow();
    // No concurrent writers in this test: the key assembled by the
    // hardware must always equal the functional key.
    EXPECT_EQ(driver->hwHashRaces(), 0u);
}

TEST_F(PageForgeDriverTest, StableTreeServesThirdCopy)
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

    auto driver = makeDriver();
    driver->runOnePassNow();
    driver->runOnePassNow();
    ASSERT_EQ(hyper.frameOf(vm0, 0), hyper.frameOf(vm1, 0));

    fillSeeded(vm2, 0, 42);
    std::uint64_t stable_before = driver->mergeStats().stableMerges;
    driver->runOnePassNow();
    EXPECT_EQ(hyper.frameOf(vm2, 0), hyper.frameOf(vm0, 0));
    EXPECT_GT(driver->mergeStats().stableMerges, stable_before);
}

TEST_F(PageForgeDriverTest, EventModeMergesWithOsChecks)
{
    VmId vm0 = makeVm(6);
    VmId vm1 = makeVm(6);
    for (GuestPageNum g = 0; g < 6; ++g) {
        fillSeeded(vm0, g, 300 + g);
        fillSeeded(vm1, g, 300 + g);
    }

    PageForgeDriverConfig config;
    config.sleepInterval = msToTicks(0.05);
    config.pagesToScan = 12;
    auto driver = makeDriver(config);
    driver->start();
    eq.runUntil(msToTicks(20));
    driver->stop();

    EXPECT_GE(hyper.merges(), 6u);
    EXPECT_GT(driver->osChecks(), 0u);
    EXPECT_EQ(hyper.frameOf(vm0, 3), hyper.frameOf(vm1, 3));
}

TEST_F(PageForgeDriverTest, DriverChargesOnlyTinyCoreTime)
{
    VmId vm0 = makeVm(6);
    VmId vm1 = makeVm(6);
    for (GuestPageNum g = 0; g < 6; ++g) {
        fillSeeded(vm0, g, 300 + g);
        fillSeeded(vm1, g, 300 + g);
    }

    PageForgeDriverConfig config;
    config.sleepInterval = msToTicks(0.1);
    config.pagesToScan = 12;
    auto driver = makeDriver(config);
    driver->start();
    Tick window = msToTicks(20);
    eq.runUntil(window);
    driver->stop();

    Tick os_busy = 0;
    Tick ksm_busy = 0;
    for (auto &core : cores) {
        os_busy += core->busyTicks(Requester::Os);
        ksm_busy += core->busyTicks(Requester::Ksm);
    }
    EXPECT_EQ(ksm_busy, 0u); // no software scanning at all
    // Driver overhead across all cores well under 10% of one core.
    EXPECT_LT(static_cast<double>(os_busy),
              0.10 * static_cast<double>(window));
}

TEST_F(PageForgeDriverTest, CowDuringScanIsHandledSafely)
{
    // Merge two pages, then write one mid-scan state: the driver's
    // pins must keep the hardware reads safe and the merge logic must
    // decline gracefully.
    VmId vm0 = makeVm(3);
    VmId vm1 = makeVm(3);
    for (GuestPageNum g = 0; g < 3; ++g) {
        fillSeeded(vm0, g, 700 + g);
        fillSeeded(vm1, g, 700 + g);
    }

    auto driver = makeDriver();
    driver->runOnePassNow();
    // Dirty a page between passes; contents now differ from its twin.
    std::uint8_t byte = 0x5A;
    hyper.writeToPage(vm0, 1, 2048, &byte, 1);

    driver->runOnePassNow();
    driver->runOnePassNow();
    // The unchanged pages merged; the dirtied one did not merge with
    // its former twin.
    EXPECT_EQ(hyper.frameOf(vm0, 0), hyper.frameOf(vm1, 0));
    EXPECT_NE(hyper.frameOf(vm0, 1), hyper.frameOf(vm1, 1));
}

TEST_F(PageForgeDriverTest, PoisonedUnstableKeeperIsDroppedNotMerged)
{
    VmId vm0 = makeVm(1);
    VmId vm1 = makeVm(1);
    fillSeeded(vm0, 0, 5);
    fillSeeded(vm1, 0, 5);

    auto driver = makeDriver();
    driver->runOnePassNow(); // first scan: hash gate drops all

    // Pass 2 inserts vm0's page into the unstable tree and then
    // matches vm1's twin against it. The module's compare reads the
    // keeper's last line from DRAM, and the double-bit flip poisons
    // the frame while the arena copy still compares equal.
    FrameId keeper = hyper.frameOf(vm0, 0);
    Addr addr = lineAddr(keeper, linesPerPage - 1);
    mc.injectBitFlip(addr, 3);
    mc.injectBitFlip(addr, 60);
    driver->runOnePassNow();

    EXPECT_TRUE(mem.isPoisoned(keeper));
    EXPECT_EQ(hyper.merges(), 0u);
    EXPECT_NE(hyper.frameOf(vm1, 0), keeper);
    EXPECT_EQ(driver->mergeStats().unstableMerges, 0u);
    EXPECT_EQ(hyper.poisonedMergeRefusals(), 1u);
}

TEST_F(PageForgeDriverTest, ZeroPagesCollapseToOneFrame)
{
    VmId vm0 = makeVm(5);
    VmId vm1 = makeVm(5);

    auto driver = makeDriver();
    driver->runOnePassNow();
    driver->runOnePassNow();

    FrameId zero_frame = hyper.frameOf(vm0, 0);
    for (GuestPageNum g = 0; g < 5; ++g) {
        EXPECT_EQ(hyper.frameOf(vm0, g), zero_frame);
        EXPECT_EQ(hyper.frameOf(vm1, g), zero_frame);
    }
}

} // namespace
} // namespace pageforge
