/**
 * @file
 * Whole-system integration invariants: reference-count conservation,
 * determinism across identical runs, and equivalence of the
 * PageForge driver's synchronous and event-driven modes.
 */

#include <unordered_map>

#include <gtest/gtest.h>

#include "core/pageforge_driver.hh"
#include "ksm/accessors.hh"
#include "system/system.hh"

namespace pageforge
{
namespace
{

SystemConfig
smallConfig(DedupMode mode)
{
    SystemConfig config;
    config.numCores = 4;
    config.numVms = 4;
    config.mode = mode;
    config.memScale = 0.05;
    config.l1 = CacheConfig{"l1", 4 * 1024, 2, 2, 4};
    config.l2 = CacheConfig{"l2", 16 * 1024, 4, 6, 8};
    config.l3 = CacheConfig{"l3", 256 * 1024, 16, 20, 16};
    return config;
}

/**
 * Count, for every allocated frame, how many guest pages map it; add
 * the merging daemon's stable-tree pins; the totals must equal the
 * frames' reference counts exactly.
 */
void
checkRefcountConservation(System &system, ContentTree *stable_tree)
{
    Hypervisor &hyper = system.hypervisor();
    PhysicalMemory &mem = system.memory();

    std::unordered_map<FrameId, std::uint32_t> expected;
    for (VmId vm = 0; vm < system.config().numVms; ++vm) {
        const VirtualMachine &machine = hyper.vm(vm);
        for (GuestPageNum gpn = 0; gpn < machine.numPages(); ++gpn) {
            const PageState &page = machine.page(gpn);
            if (page.mapped)
                ++expected[page.frame];
        }
    }
    if (stable_tree) {
        stable_tree->forEach([&](PageHandle handle) {
            ++expected[handleFrame(handle)];
        });
    }

    std::size_t counted = 0;
    for (const auto &[frame, refs] : expected) {
        ASSERT_TRUE(mem.isAllocated(frame));
        EXPECT_EQ(mem.refCount(frame), refs)
            << "frame " << frame << " refcount mismatch";
        ++counted;
    }
    // No allocated frame exists outside the mapping+pin accounting.
    EXPECT_EQ(mem.framesInUse(), counted);
}

TEST(Integration, RefcountsConserveUnderKsm)
{
    System system(smallConfig(DedupMode::Ksm), appByName("masstree"));
    system.deploy();
    system.warmupDedup(6);
    checkRefcountConservation(system, &system.ksmd()->stableTree());

    // Run live load (CoW breaks, churn, re-merges) and re-check.
    system.startLoad();
    system.run(msToTicks(20));
    checkRefcountConservation(system, &system.ksmd()->stableTree());
}

TEST(Integration, RefcountsConserveUnderPageForge)
{
    System system(smallConfig(DedupMode::PageForge),
                  appByName("masstree"));
    system.deploy();
    system.warmupDedup(6);
    checkRefcountConservation(system,
                              &system.pfDriver()->stableTree(0));

    system.startLoad();
    system.run(msToTicks(20));
    // The driver may hold transient pins while a batch is in flight;
    // they are released when the candidate completes. Drain by
    // stopping the daemon and letting in-flight work finish.
    system.pfDriver()->stop();
    system.run(msToTicks(10));
    checkRefcountConservation(system,
                              &system.pfDriver()->stableTree(0));
}

TEST(Integration, IdenticalSeedsGiveIdenticalRuns)
{
    auto run = [](std::uint64_t seed) {
        SystemConfig config = smallConfig(DedupMode::Ksm);
        config.seed = seed;
        System system(config, appByName("silo"));
        system.deploy();
        system.warmupDedup(5);
        system.startLoad();
        system.run(msToTicks(30));
        return std::tuple{system.latency().queries(),
                          system.latency().aggregate().sum(),
                          system.hypervisor().merges(),
                          system.memory().framesInUse()};
    };

    auto a = run(7);
    auto b = run(7);
    EXPECT_EQ(a, b);

    auto c = run(8);
    EXPECT_NE(a, c); // a different seed must actually change the run
}

TEST(Integration, SyncAndEventDriverModesConvergeToSameFootprint)
{
    // Synchronous fast-forward passes and event-driven scanning must
    // reach the same steady-state footprint on the same image (with
    // churn disabled so steady state is unique).
    auto frames_used = [](bool event_mode) {
        SystemConfig config = smallConfig(DedupMode::PageForge);
        AppProfile app = appByName("img_dnn");
        app.dirtyPagesPerSec = 0;
        app.qps = 1; // negligible load; no dirtying writes
        app.writeFraction = 0.0;
        System system(config, app);
        system.deploy();
        if (event_mode) {
            system.startLoad();
            system.run(msToTicks(400));
        } else {
            system.warmupDedup(8);
        }
        return system.hypervisor().analyzeDuplication().framesUsed;
    };

    EXPECT_EQ(frames_used(false), frames_used(true));
}

TEST(Integration, StoppedDaemonsQuiesce)
{
    System system(smallConfig(DedupMode::Ksm), appByName("silo"));
    system.deploy();
    system.startLoad();
    system.run(msToTicks(10));

    system.ksmd()->stop();
    for (unsigned i = 0; i < system.numApps(); ++i)
        system.app(i).stop();

    // After stopping load and daemon, the event queue drains to
    // silence (restores and in-flight work finish; nothing
    // self-perpetuates).
    system.run(msToTicks(200));
    EXPECT_TRUE(system.eventq().empty());
}

} // namespace
} // namespace pageforge
