/**
 * @file
 * A multi-MC PageForge machine runs on the same engine as a single-MC
 * one: every module on the system's one event queue, triggered
 * directly by its API, fetching lines snoop-first.
 *
 * A 1-MC machine is a one-shard machine built from the same objects.
 * Result identity of the multi-MC machine is pinned by the 4-MC golden
 * snapshots in test_golden_stats.cc.
 */

#include <gtest/gtest.h>

#include "core/pageforge_module.hh"
#include "shard/cross_mc_router.hh"
#include "shard/shard_map.hh"
#include "system/system.hh"

namespace pageforge
{
namespace
{

/** Small machine, cache-scaled down so tests stay fast. */
SystemConfig
smallMachine(DedupMode mode, unsigned num_mcs)
{
    SystemConfig sys;
    sys.mode = mode;
    sys.numCores = 4;
    sys.numVms = 4;
    sys.numMcs = num_mcs;
    sys.memScale = 0.05;
    sys.l1 = CacheConfig{"l1", 4 * 1024, 2, 2, 4};
    sys.l2 = CacheConfig{"l2", 16 * 1024, 4, 6, 8};
    sys.l3 = CacheConfig{"l3", 256 * 1024, 16, 20, 16};
    return sys;
}

SystemConfig
fourMcPageForge()
{
    return smallMachine(DedupMode::PageForge, 4);
}

/** Deploy, warm up and run @p system under load for @p ms. */
void
runLoaded(System &system, double ms)
{
    system.deploy();
    system.warmupDedup(3);
    system.startLoad();
    system.run(msToTicks(ms));
}

TEST(MultiMcSystem, FourMcPageForgeMachineHasNoLaneScheduler)
{
    System system(fourMcPageForge(), appByName("masstree"));
    EXPECT_EQ(system.numMcs(), 4u);
    EXPECT_EQ(system.laneScheduler(), nullptr);
}

TEST(MultiMcSystem, EventsDispatchedAreTheSystemQueues)
{
    System system(fourMcPageForge(), appByName("masstree"));
    runLoaded(system, 20);

    EXPECT_GT(system.eventsDispatched(), 0u);
    EXPECT_EQ(system.eventsDispatched(),
              system.eventq().eventsDispatched());
    for (unsigned m = 0; m < system.numMcs(); ++m)
        EXPECT_EQ(&system.pfModule(m)->eventq(), &system.eventq())
            << "module " << m;
}

TEST(MultiMcSystem, ModulesIssueLineFetchesToTheCachesFirst)
{
    // Section 3.2.2: every line request goes to the on-chip network
    // before DRAM, on every controller's module.
    System system(fourMcPageForge(), appByName("masstree"));
    runLoaded(system, 30);

    for (unsigned m = 0; m < system.numMcs(); ++m) {
        PageForgeModule &module = *system.pfModule(m);
        EXPECT_GT(module.linesFetched(), 0u) << "module " << m;
        EXPECT_GT(module.snoopHits(), 0u) << "module " << m;
        EXPECT_EQ(module.snoopHits() + module.dramReads(),
                  module.linesFetched())
            << "module " << m;
    }
}

TEST(MultiMcSystem, OneMcMachineIsAOneShardMachine)
{
    // Every MC count builds the same objects: a 1-MC machine has a
    // one-shard map and a one-MC router that never carries a handoff.
    System system(smallMachine(DedupMode::PageForge, 1),
                  appByName("masstree"));
    ASSERT_NE(system.shardMap(), nullptr);
    ASSERT_NE(system.crossMcRouter(), nullptr);
    EXPECT_EQ(system.shardMap()->numShards(), 1u);
    EXPECT_EQ(system.pfDriver()->numShards(), 1u);
    EXPECT_EQ(system.crossMcRouter()->numMcs(), 1u);

    runLoaded(system, 20);
    EXPECT_GT(system.pfDriver()->shardScans(0), 0u);
    EXPECT_EQ(system.crossMcRouter()->totalHandoffs(), 0u);
}

TEST(MultiMcSystem, KsmUncacheableReadsGoToEachLinesHomeChannel)
{
    // Section 4.3's uncacheable ksmd reads every line from memory,
    // through the controller homing the line's frame.
    SystemConfig sys = smallMachine(DedupMode::Ksm, 2);
    sys.ksm.bypassCaches = true;
    System system(sys, appByName("masstree"));
    runLoaded(system, 20);

    for (unsigned m = 0; m < system.numMcs(); ++m) {
        EXPECT_GT(system.memController(m).dram().bandwidth().totalBytes(
                      Requester::Ksm),
                  0u)
            << "mc" << m;
    }
}

} // namespace
} // namespace pageforge
