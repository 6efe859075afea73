/**
 * @file
 * Per-MC event lanes: mailbox delivery, the quantum barrier, host-time
 * telemetry, and where the machine builds a lane scheduler.
 *
 * Result identity of the multi-MC machine is pinned by the 4-MC golden
 * snapshots in test_golden_stats.cc.
 */

#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "prof/profiler.hh"
#include "sim/event_queue.hh"
#include "sim/lane_scheduler.hh"
#include "system/experiment.hh"
#include "system/system.hh"
#include "trace/trace_sink.hh"

namespace pageforge
{
namespace
{

TEST(LaneScheduler, DeliversAtPostedTickOnDestinationLane)
{
    EventQueue eq;
    LaneScheduler sched(eq, 2, 100);

    Tick fired_at = 0;
    eq.schedule(10, [&] {
        sched.post(1, 10, [&] { fired_at = sched.lane(1).curTick(); });
    });
    sched.runUntil(100);

    EXPECT_EQ(fired_at, 10u);
    EXPECT_EQ(sched.lane(1).eventsDispatched(), 1u);
    EXPECT_EQ(sched.lane(2).eventsDispatched(), 0u);
    EXPECT_EQ(sched.messagesDelivered(), 1u);
}

TEST(LaneScheduler, BoundaryTickEventRunsInPostingQuantum)
{
    // Posting at exactly curTick + quantum (the lookahead limit) must
    // still land in the posting quantum's phase 2: lane runUntil is
    // inclusive of the boundary tick.
    EventQueue eq;
    LaneScheduler sched(eq, 1, 100);

    Tick fired_at = 0;
    eq.schedule(5, [&] {
        sched.post(1, 100, [&] { fired_at = sched.lane(1).curTick(); });
    });
    sched.runUntil(100);

    EXPECT_EQ(fired_at, 100u);
}

TEST(LaneScheduler, MailOrderIdenticalAcrossExecutors)
{
    EventQueue eq;
    LaneScheduler sched(eq, 3, 50);

    // Per-lane (tick, tag) delivery logs.
    std::vector<std::vector<std::pair<Tick, int>>> logs(4);
    auto deliver = [&logs, &sched](unsigned dst, int tag) {
        logs[dst].push_back({sched.lane(dst).curTick(), tag});
    };

    // Quantum 1: ties on (lane, tick) from one posting event — the
    // drain's sequence order must break them.
    eq.schedule(0, [&] {
        for (int i = 0; i < 6; ++i) {
            unsigned dst = 1 + static_cast<unsigned>(i) % 3;
            sched.post(dst, 25, [&deliver, dst, i] { deliver(dst, i); });
        }
    });
    // Quantum 2: posts from two lane-0 events, interleaved ticks.
    eq.schedule(60, [&] {
        sched.post(2, 90, [&deliver] { deliver(2, 100); });
        sched.post(1, 60, [&deliver] { deliver(1, 101); });
    });
    eq.schedule(70, [&] {
        sched.post(1, 60, [&deliver] { deliver(1, 102); });
        sched.post(3, 99, [&deliver] { deliver(3, 103); });
    });
    sched.runUntil(200);

    // Same-tick mail drains in posting-sequence order.
    ASSERT_EQ(logs[1].size(), 4u);
    EXPECT_EQ(logs[1][0], (std::pair<Tick, int>{25, 0}));
    EXPECT_EQ(logs[1][1], (std::pair<Tick, int>{25, 3}));
    EXPECT_EQ(logs[1][2], (std::pair<Tick, int>{60, 101}));
    EXPECT_EQ(logs[1][3], (std::pair<Tick, int>{60, 102}));
}

TEST(LaneSchedulerDeathTest, CrossLaneEventInThePastPanics)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            LaneScheduler sched(eq, 1, 100);
            // Quantum 1 advances lane 1's clock to 100; a quantum-2
            // post below that is stale and must die at drain time.
            eq.schedule(150, [&] { sched.post(1, 50, [] {}); });
            sched.runUntil(200);
        },
        "past");
}

TEST(LaneSchedulerDeathTest, PostToLaneZeroPanics)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            LaneScheduler sched(eq, 1, 100);
            sched.post(0, 10, [] {});
        },
        "invalid lane");
}

TEST(LaneScheduler, TelemetryStaysEmptyWhenProfilingDisabled)
{
    prof::setEnabled(false);
    EventQueue eq;
    LaneScheduler sched(eq, 2, 100);
    eq.schedule(0, [&] { sched.post(1, 10, [] {}); });
    sched.runUntil(500);
    EXPECT_EQ(sched.telemetry().quanta, 0u);
}

TEST(LaneScheduler, TelemetryAccountsEveryLanesFullQuantum)
{
    prof::setEnabled(true);
    {
        EventQueue eq;
        LaneScheduler sched(eq, 2, 100);
        eq.schedule(0, [&] {
            sched.post(1, 50, [] {});
            sched.post(2, 150, [] {});
        });
        sched.runUntil(500);

        const ExecTelemetry &tel = sched.telemetry();
        EXPECT_EQ(tel.quanta, 5u);
        ASSERT_EQ(tel.lanes.size(), 3u); // lane 0 + two shard lanes
        ASSERT_EQ(tel.workerBusyNs.size(), 1u);
        // Each lane's busy + idle + stall covers exactly the same
        // wall-clock: the sum of all quantum durations.
        std::uint64_t wall = tel.phase1Ns + tel.drainNs + tel.phase2Ns;
        EXPECT_GT(wall, 0u);
        for (std::size_t l = 0; l < tel.lanes.size(); ++l) {
            const LaneExecStats &lane = tel.lanes[l];
            EXPECT_EQ(lane.busyNs + lane.idleNs + lane.stallNs, wall)
                << "lane " << l;
        }
        EXPECT_GT(tel.lanes[0].busyNs, 0u); // phase 1 ran
        // Both mailboxes got one message each; the high-watermark saw
        // at least one pending entry.
        EXPECT_GE(tel.mailboxHwm, 1u);
        double eff = tel.phase2Efficiency();
        EXPECT_GE(eff, 0.0);
        EXPECT_LE(eff, 1.0);
    }
    prof::setEnabled(false);
}

/** Small 4-MC machine, cache-scaled down so tests stay fast. */
SystemConfig
fourMcSystem()
{
    SystemConfig sys;
    sys.numCores = 4;
    sys.numVms = 4;
    sys.numMcs = 4;
    sys.l1 = CacheConfig{"l1", 4 * 1024, 2, 2, 4};
    sys.l2 = CacheConfig{"l2", 16 * 1024, 4, 6, 8};
    sys.l3 = CacheConfig{"l3", 256 * 1024, 16, 20, 16};
    return sys;
}

TEST(LaneSystem, SchedulerExistsOnlyOnMultiMcPageForgeMachines)
{
    SystemConfig multi = fourMcSystem();
    multi.mode = DedupMode::PageForge;
    System with_lanes(multi, appByName("masstree"));
    ASSERT_NE(with_lanes.laneScheduler(), nullptr);
    EXPECT_EQ(with_lanes.laneScheduler()->numLanes(), 5u);
    EXPECT_EQ(with_lanes.laneScheduler()->threads(), 0u);
    EXPECT_EQ(with_lanes.laneScheduler()->quantum(),
              multi.pfDriver.osCheckInterval);

    SystemConfig single = fourMcSystem();
    single.numMcs = 1;
    single.mode = DedupMode::PageForge;
    System classic(single, appByName("masstree"));
    EXPECT_EQ(classic.laneScheduler(), nullptr);

    SystemConfig ksm = fourMcSystem();
    ksm.mode = DedupMode::Ksm;
    System no_modules(ksm, appByName("masstree"));
    EXPECT_EQ(no_modules.laneScheduler(), nullptr);
}

TEST(LaneSystem, ProfiledTraceCarriesHostLanesAndHandoffFlows)
{
    // End-to-end: with the profiler armed, a traced multi-MC run must
    // surface cross-MC handoff flow arrows and nonzero lane telemetry.
    prof::setEnabled(true);
    {
        std::ostringstream os;
        TraceSink sink(os);
        SystemConfig sys = fourMcSystem();
        sys.mode = DedupMode::PageForge;
        sys.memScale = 0.05;
        sys.traceSink = &sink;

        System system(sys, appByName("masstree"));
        system.deploy();
        system.warmupDedup(3);
        system.startLoad();
        system.run(msToTicks(30));
        system.finishObservability();
        sink.finish();

        EXPECT_GT(sink.flowEvents(), 0u);
        EXPECT_NE(os.str().find("\"cat\":\"flow\""), std::string::npos);

        ASSERT_NE(system.laneScheduler(), nullptr);
        const ExecTelemetry &tel = system.laneScheduler()->telemetry();
        EXPECT_GT(tel.quanta, 0u);
        EXPECT_GT(tel.lanes.at(0).busyNs, 0u);
    }
    prof::setEnabled(false);
    prof::reset();
}

} // namespace
} // namespace pageforge
