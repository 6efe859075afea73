/**
 * @file
 * A multi-MC PageForge machine runs on the same engine as a single-MC
 * one: every module on the system's one event queue, triggered
 * directly by its API, fetching lines snoop-first.
 *
 * Result identity of the multi-MC machine is pinned by the 4-MC golden
 * snapshots in test_golden_stats.cc.
 */

#include <gtest/gtest.h>

#include "core/pageforge_module.hh"
#include "system/system.hh"

namespace pageforge
{
namespace
{

/** Small 4-MC PageForge machine, cache-scaled down so tests stay fast. */
SystemConfig
fourMcPageForge()
{
    SystemConfig sys;
    sys.mode = DedupMode::PageForge;
    sys.numCores = 4;
    sys.numVms = 4;
    sys.numMcs = 4;
    sys.memScale = 0.05;
    sys.l1 = CacheConfig{"l1", 4 * 1024, 2, 2, 4};
    sys.l2 = CacheConfig{"l2", 16 * 1024, 4, 6, 8};
    sys.l3 = CacheConfig{"l3", 256 * 1024, 16, 20, 16};
    return sys;
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

} // namespace
} // namespace pageforge
