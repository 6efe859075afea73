/**
 * @file
 * Tests for the multi-MC sharding subsystem: ShardMap homing and
 * prefix ownership, CrossMcRouter determinism, per-shard content-tree
 * disjointness, and the dedup-equivalence contract (an N-MC machine
 * merges exactly what the classic single-MC machine merges on a
 * static image).
 */

#include <gtest/gtest.h>

#include "ksm/accessors.hh"
#include "shard/cross_mc_router.hh"
#include "shard/shard_map.hh"
#include "system/experiment.hh"
#include "system/system.hh"

namespace pageforge
{
namespace
{

SystemConfig
tinySystem(unsigned num_mcs)
{
    SystemConfig config;
    config.numCores = 4;
    config.numVms = 4;
    config.numMcs = num_mcs;
    config.memScale = 0.05;
    config.mode = DedupMode::PageForge;
    config.l1 = CacheConfig{"l1", 4 * 1024, 2, 2, 4};
    config.l2 = CacheConfig{"l2", 16 * 1024, 4, 6, 8};
    config.l3 = CacheConfig{"l3", 256 * 1024, 16, 20, 16};
    return config;
}

AppProfile
tinyApp()
{
    AppProfile app = appByName("masstree");
    app.qps = 2000;
    app.computeCyclesPerQuery = 50'000;
    app.memAccessesPerQuery = 200;
    return app;
}

TEST(ShardMap, InterleaveRoundTrip)
{
    for (unsigned n : {1u, 2u, 3u, 4u, 8u}) {
        ShardMap map(n);
        EXPECT_EQ(map.numShards(), n);
        for (FrameId frame = 0; frame < 1000; ++frame) {
            unsigned home = map.homeOf(frame);
            EXPECT_LT(home, n);
            EXPECT_EQ(home, frame % n);
            // Address-based homing agrees with frame-based homing for
            // every byte of the frame.
            EXPECT_EQ(map.homeOfAddr(frameToAddr(frame)), home);
            EXPECT_EQ(map.homeOfAddr(frameToAddr(frame) + pageSize - 1),
                      home);
        }
    }
}

TEST(ShardMap, PrefixRangesDisjointAndCovering)
{
    for (unsigned n : {1u, 2u, 3u, 4u, 5u, 16u, 64u}) {
        ShardMap map(n);
        std::uint32_t expect_lo = 0;
        for (unsigned shard = 0; shard < n; ++shard) {
            auto [lo, hi] = map.prefixRange(shard);
            EXPECT_EQ(lo, expect_lo);
            EXPECT_LT(lo, hi);
            expect_lo = hi;
        }
        EXPECT_EQ(expect_lo, 65536u);

        // Every 16-bit prefix falls inside the range of exactly the
        // shard that claims it.
        for (std::uint32_t prefix = 0; prefix < 65536; ++prefix) {
            unsigned shard = map.contentShardOfPrefix(prefix);
            ASSERT_LT(shard, n);
            auto [lo, hi] = map.prefixRange(shard);
            ASSERT_GE(prefix, lo);
            ASSERT_LT(prefix, hi);
        }
    }
}

TEST(ShardMap, ContentShardReadsLeadingBytesBigEndian)
{
    ShardMap map(4);
    std::uint8_t page[pageSize] = {};

    // Identical leading bytes -> same shard regardless of the rest.
    page[0] = 0xAB;
    page[1] = 0xCD;
    unsigned shard = map.contentShardOf(page);
    page[pageSize - 1] = 0xFF;
    EXPECT_EQ(map.contentShardOf(page), shard);
    EXPECT_EQ(shard, map.contentShardOfPrefix(0xABCDu));

    // A single-shard map owns the whole prefix space.
    ShardMap one(1);
    for (std::uint32_t prefix = 0; prefix < 65536; ++prefix) {
        page[0] = static_cast<std::uint8_t>(prefix >> 8);
        page[1] = static_cast<std::uint8_t>(prefix);
        ASSERT_EQ(one.contentShardOfPrefix(prefix), 0u) << prefix;
        ASSERT_EQ(one.contentShardOf(page), 0u) << prefix;
    }
}

TEST(CrossMcRouter, SerializesPerDestinationDeterministically)
{
    CrossMcRouter router(4, 100);
    EXPECT_EQ(router.numMcs(), 4u);
    EXPECT_EQ(router.hopLatency(), Tick(100));

    // First handoff: pure hop latency.
    EXPECT_EQ(router.enqueue(0, 1, 0), Tick(100));
    // Same destination immediately after: queues behind the first.
    EXPECT_EQ(router.enqueue(2, 1, 0), Tick(101));
    // Different destination is independent.
    EXPECT_EQ(router.enqueue(2, 3, 0), Tick(100));
    // Later enqueue past the backlog: pure latency again.
    EXPECT_EQ(router.enqueue(3, 1, 500), Tick(600));

    EXPECT_EQ(router.totalHandoffs(), 4u);
    EXPECT_EQ(router.handoffsFrom(2), 2u);
    EXPECT_EQ(router.handoffsTo(1), 3u);
    EXPECT_EQ(router.handoffsTo(3), 1u);
    EXPECT_EQ(router.handoffsTo(0), 0u);

    // depth() counts only deliveries still in flight.
    EXPECT_EQ(router.depth(0), 4u);
    EXPECT_EQ(router.depth(100), 2u); // both tick-100 hops landed
    EXPECT_EQ(router.depth(101), 1u);
    EXPECT_EQ(router.depth(600), 0u);

    // The same enqueue sequence replays to the same delivery ticks.
    CrossMcRouter replay(4, 100);
    EXPECT_EQ(replay.enqueue(0, 1, 0), Tick(100));
    EXPECT_EQ(replay.enqueue(2, 1, 0), Tick(101));
    EXPECT_EQ(replay.enqueue(2, 3, 0), Tick(100));
    EXPECT_EQ(replay.enqueue(3, 1, 500), Tick(600));
}

TEST(ShardMap, QuarantineRehomesAndReadmitRestores)
{
    ShardMap map(4);
    EXPECT_FALSE(map.anyQuarantined());
    EXPECT_EQ(map.ownerOf(1), 1u);
    EXPECT_EQ(map.rehomedPrefixes(), 0u);

    // Quarantine re-homes to the next healthy shard in ring order and
    // counts the prefix range into the cumulative total.
    EXPECT_EQ(map.quarantine(1), 2u);
    EXPECT_TRUE(map.quarantined(1));
    EXPECT_TRUE(map.anyQuarantined());
    EXPECT_EQ(map.ownerOf(1), 2u);
    EXPECT_EQ(map.scanOwnerOf(1), 2u); // frame 1 homes on MC 1
    EXPECT_EQ(map.scanOwnerOf(2), 2u); // healthy shards untouched
    auto [lo, hi] = map.prefixRange(1);
    EXPECT_EQ(map.rehomedPrefixes(), hi - lo);

    // Chained failover: the shard after the hole takes both ranges.
    EXPECT_EQ(map.quarantine(2), 3u);
    EXPECT_EQ(map.ownerOf(1), 3u);
    EXPECT_EQ(map.ownerOf(2), 3u);

    // Re-admission restores ownership, including for shard 1 whose
    // duties now land on the freshly recovered shard 2 again.
    map.readmit(2);
    EXPECT_EQ(map.ownerOf(2), 2u);
    EXPECT_EQ(map.ownerOf(1), 2u);
    map.readmit(1);
    EXPECT_FALSE(map.anyQuarantined());
    EXPECT_EQ(map.ownerOf(1), 1u);
    // The cumulative re-home counter never decrements.
    EXPECT_EQ(map.rehomedPrefixes(),
              (hi - lo) + (map.prefixRange(2).second -
                           map.prefixRange(2).first));
}

TEST(CrossMcRouter, ArmedLinkLosesCorruptsAndSpikes)
{
    // Loss: counted against the source, never accepted by the
    // destination, no accept-port reservation.
    {
        CrossMcRouter router(2, 100);
        Rng rng(7);
        HandoffFaultModel model;
        model.lossProb = 1.0;
        model.rng = &rng;
        router.armFaults(model);
        HandoffDelivery d = router.route(0, 1, 0);
        EXPECT_TRUE(d.lost);
        EXPECT_EQ(router.handoffsLost(), 1u);
        EXPECT_EQ(router.handoffsFrom(0), 1u);
        EXPECT_EQ(router.handoffsTo(1), 0u);
        // The lost message never reserved the accept port: a clean
        // delivery right after still sees the pure hop latency.
        router.armFaults(HandoffFaultModel{});
        EXPECT_EQ(router.enqueue(0, 1, 0), Tick(100));
    }
    // Corruption: delivered on time, flagged, salted for the garble.
    {
        CrossMcRouter router(2, 100);
        Rng rng(7);
        HandoffFaultModel model;
        model.corruptProb = 1.0;
        model.rng = &rng;
        router.armFaults(model);
        HandoffDelivery d = router.route(0, 1, 0);
        EXPECT_FALSE(d.lost);
        EXPECT_TRUE(d.corrupted);
        EXPECT_EQ(d.delivered, Tick(100));
        EXPECT_EQ(router.handoffsCorrupted(), 1u);
        EXPECT_EQ(router.handoffsTo(1), 1u);
    }
    // Latency spike: delivered, hop stretched by the multiplier.
    {
        CrossMcRouter router(2, 100);
        Rng rng(7);
        HandoffFaultModel model;
        model.spikeProb = 1.0;
        model.spikeMult = 16.0;
        model.rng = &rng;
        router.armFaults(model);
        HandoffDelivery d = router.route(0, 1, 0);
        EXPECT_FALSE(d.lost);
        EXPECT_FALSE(d.corrupted);
        EXPECT_EQ(d.delivered, Tick(1600));
        EXPECT_EQ(router.handoffsSpiked(), 1u);
    }
}

TEST(CrossMcRouter, RetryBackoffDoublesAndCaps)
{
    CrossMcRouter router(2);
    HandoffRetryPolicy policy;
    policy.maxRetries = 5;
    policy.timeout = 1000;
    policy.backoffCap = 6000;
    router.setRetryPolicy(policy);
    EXPECT_EQ(router.retryBackoff(0), Tick(1000));
    EXPECT_EQ(router.retryBackoff(1), Tick(2000));
    EXPECT_EQ(router.retryBackoff(2), Tick(4000));
    EXPECT_EQ(router.retryBackoff(3), Tick(6000));  // capped
    EXPECT_EQ(router.retryBackoff(40), Tick(6000)); // shift-safe

    router.recordRetry();
    router.recordRetry();
    router.recordDeadLetter();
    EXPECT_EQ(router.handoffRetries(), 2u);
    EXPECT_EQ(router.handoffDeadLetters(), 1u);
}

TEST(CrossMcRouter, DepthStaysBoundedOverLongCampaigns)
{
    // The in-flight ledger prunes itself as it grows (amortized in
    // route()), so a campaign that never samples depth() still gets a
    // correct answer at the end of a long handoff stream.
    CrossMcRouter router(4, 100);
    Tick now = 0;
    for (unsigned i = 0; i < 10000; ++i) {
        router.enqueue(i % 4, (i + 1) % 4, now);
        now += 10;
    }
    EXPECT_EQ(router.totalHandoffs(), 10000u);
    // Query in time order: prune() drops everything delivered by the
    // query tick, so a later query must come after an earlier one.
    EXPECT_GT(router.depth(now), 0u); // the freshest hops are in flight
    EXPECT_EQ(router.depth(now + 10000), 0u);
}

TEST(Shard, PerShardTreesOwnDisjointKeyPrefixRanges)
{
    System system(tinySystem(4), tinyApp());
    system.deploy();
    system.warmupDedup(10);

    PageForgeDriver *driver = system.pfDriver();
    ASSERT_NE(driver, nullptr);
    ASSERT_EQ(driver->numShards(), 4u);
    ShardMap map(4);

    std::size_t stable_nodes = 0;
    for (unsigned shard = 0; shard < 4; ++shard) {
        driver->stableTree(shard).forEach([&](PageHandle handle) {
            ASSERT_FALSE(isGuestHandle(handle));
            const std::uint8_t *data =
                system.memory().data(handleFrame(handle));
            EXPECT_EQ(map.contentShardOf(data), shard);
            ++stable_nodes;
        });
        driver->unstableTree(shard).forEach([&](PageHandle handle) {
            ASSERT_TRUE(isGuestHandle(handle));
            PageKey key = handleGuest(handle);
            const std::uint8_t *data =
                system.hypervisor().pageData(key.vm, key.gpn);
            if (data)
                EXPECT_EQ(map.contentShardOf(data), shard);
        });
    }
    // Warm-up must actually have populated the stable trees, or the
    // disjointness walk above proved nothing.
    EXPECT_GT(stable_nodes, 0u);
}

TEST(Shard, FourMcDedupMatchesSingleMcOnFixedImage)
{
    std::uint64_t merges[2];
    std::uint64_t frames_used[2];
    std::uint64_t mapped_pages[2];
    unsigned mcs[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        System system(tinySystem(mcs[i]), tinyApp());
        system.deploy();
        system.warmupDedup(10);
        merges[i] = system.hypervisor().merges();
        DupAnalysis dup = system.hypervisor().analyzeDuplication();
        frames_used[i] = dup.framesUsed;
        mapped_pages[i] = dup.mappedPages;

        // Per-shard merge counts sum to the driver's global total.
        PageForgeDriver *driver = system.pfDriver();
        std::uint64_t shard_sum = 0;
        for (unsigned s = 0; s < driver->numShards(); ++s)
            shard_sum += driver->shardMerges(s);
        EXPECT_EQ(shard_sum, driver->mergeStats().merges());
    }

    // Identical contents land in one content shard, so every
    // duplicate set merges exactly once on either machine.
    EXPECT_GT(merges[0], 0u);
    EXPECT_EQ(merges[0], merges[1]);
    EXPECT_EQ(frames_used[0], frames_used[1]);
    EXPECT_EQ(mapped_pages[0], mapped_pages[1]);
}

TEST(Shard, HandoffQueueDeterministicUnderSeededChurn)
{
    auto run = [] {
        SystemConfig config = tinySystem(4);
        config.churn.kind = ChurnKind::Poisson;
        config.churn.arrivalsPerSec = 400.0;
        config.churn.departuresPerSec = 400.0;
        config.seed = 7;
        System system(config, tinyApp());
        system.deploy();
        system.warmupDedup(4);
        system.startLoad();
        system.run(msToTicks(40));

        CrossMcRouter *router = system.crossMcRouter();
        EXPECT_NE(router, nullptr);
        std::vector<std::uint64_t> counts;
        counts.push_back(router->totalHandoffs());
        for (unsigned m = 0; m < 4; ++m) {
            counts.push_back(router->handoffsFrom(m));
            counts.push_back(router->handoffsTo(m));
        }
        counts.push_back(system.hypervisor().merges());
        counts.push_back(system.memory().framesInUse());
        return counts;
    };

    std::vector<std::uint64_t> first = run();
    std::vector<std::uint64_t> second = run();
    EXPECT_EQ(first, second);
}

TEST(Shard, ExperimentReportsPerMcBreakdown)
{
    ExperimentConfig cfg;
    cfg.memScale = 0.04;
    cfg.warmupPasses = 3;
    cfg.settleTime = msToTicks(3);
    cfg.targetQueries = 100;
    cfg.minMeasure = msToTicks(20);
    cfg.maxMeasure = msToTicks(40);

    SystemConfig sys;
    sys.numCores = 4;
    sys.numVms = 4;
    sys.numMcs = 4;
    sys.l1 = CacheConfig{"l1", 4 * 1024, 2, 2, 4};
    sys.l2 = CacheConfig{"l2", 16 * 1024, 4, 6, 8};
    sys.l3 = CacheConfig{"l3", 256 * 1024, 16, 20, 16};
    cfg.scaleCaches = false;

    ExperimentResult result = runExperiment(
        appByName("masstree"), DedupMode::PageForge, cfg, sys);
    EXPECT_EQ(result.numMcs, 4u);
    ASSERT_EQ(result.perMc.size(), 4u);
    std::uint64_t scan_sum = 0;
    for (const McSummary &mc : result.perMc)
        scan_sum += mc.scans;
    EXPECT_GT(scan_sum, 0u);

    // The classic machine reports no per-MC breakdown at all.
    sys.numMcs = 1;
    ExperimentResult classic = runExperiment(
        appByName("masstree"), DedupMode::PageForge, cfg, sys);
    EXPECT_EQ(classic.numMcs, 1u);
    EXPECT_TRUE(classic.perMc.empty());
}

} // namespace
} // namespace pageforge
