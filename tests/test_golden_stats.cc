/**
 * @file
 * Golden statistics of a small 2-core, 2-VM machine: the determinism
 * contract behind the hot-path optimizations.
 *
 * Every change to the event kernel, memory arena, caches or tree
 * search must keep simulated statistics bit-identical for a given
 * seed. Running the same cell twice and requiring field-exact equality
 * (identicalResults: doubles compared bit-wise) catches any
 * nondeterminism within one build.
 *
 * The snapshot tests pin a handful of integer statistics of this
 * machine, which catches changes that are deterministic but move
 * simulated behaviour. pfsim's default machine is pinned whole, as
 * campaign JSON, by the golden corpus in tests/golden/ (ctest
 * GoldenCorpus.*); these cells are the in-process check on a machine
 * with tiny caches, where misses and evictions dominate. If a snapshot
 * fails after an intended model change, re-record its literals in the
 * same commit and say why; after a performance-only change, the change
 * is wrong.
 */

#include <gtest/gtest.h>

#include "system/campaign.hh"
#include "system/experiment.hh"

namespace pageforge
{
namespace
{

/** Machine shape of a golden cell on top of the small fixed system. */
struct GoldenShape
{
    unsigned numMcs = 1;
    bool churn = false; //!< Poisson VM churn during the window
    FaultConfig faults{}; //!< fault injection during the run
};

/** Small fixed cell: full pipeline, sub-second runtime. */
ExperimentResult
runGoldenCell(DedupMode mode, GoldenShape shape = {})
{
    ExperimentConfig cfg;
    cfg.memScale = 0.03;
    cfg.warmupPasses = 2;
    cfg.settleTime = msToTicks(2);
    cfg.targetQueries = 50;
    cfg.minMeasure = msToTicks(10);
    cfg.maxMeasure = msToTicks(20);
    cfg.seed = 42;
    if (shape.churn) {
        // Rates high enough that a 20 ms window sees several clones,
        // boots and shutdowns.
        cfg.churn.kind = ChurnKind::Poisson;
        cfg.churn.arrivalsPerSec = 400.0;
        cfg.churn.departuresPerSec = 400.0;
        cfg.churn.maxDynamicVms = 4;
    }
    cfg.faults = shape.faults;

    SystemConfig sys;
    sys.numCores = 2;
    sys.numVms = 2;
    sys.numMcs = shape.numMcs;
    sys.l1 = CacheConfig{"l1", 4 * 1024, 2, 2, 4};
    sys.l2 = CacheConfig{"l2", 16 * 1024, 4, 6, 8};
    sys.l3 = CacheConfig{"l3", 128 * 1024, 16, 20, 16};

    return runExperiment(appByName("silo"), mode, cfg, sys);
}

TEST(GoldenStats, SameSeedIsBitIdentical)
{
    for (DedupMode mode :
         {DedupMode::None, DedupMode::Ksm, DedupMode::PageForge}) {
        ExperimentResult first = runGoldenCell(mode);
        ExperimentResult second = runGoldenCell(mode);
        EXPECT_TRUE(identicalResults(first, second))
            << "mode " << dedupModeName(mode);
    }
    // The multi-MC machine (sharded trees, cross-MC router) is held
    // to the same contract.
    ExperimentResult first =
        runGoldenCell(DedupMode::PageForge, {.numMcs = 4});
    ExperimentResult second =
        runGoldenCell(DedupMode::PageForge, {.numMcs = 4});
    EXPECT_TRUE(identicalResults(first, second)) << "4-MC PageForge";
}

TEST(GoldenStats, KsmCellMatchesGoldenSnapshot)
{
    ExperimentResult r = runGoldenCell(DedupMode::Ksm);
    EXPECT_EQ(r.queries, 45u);
    EXPECT_EQ(r.merges, 0u);
    EXPECT_EQ(r.cowBreaks, 16u);
    EXPECT_EQ(r.dup.framesUsed, 153u);
    EXPECT_EQ(r.dupWarm.framesUsed, 136u);
    EXPECT_EQ(r.hashStats.jhashMatches, 33u);
    EXPECT_EQ(r.simEvents, 129u);
    EXPECT_EQ(r.pagesScanned, 167u);
}

TEST(GoldenStats, PageForgeCellMatchesGoldenSnapshot)
{
    ExperimentResult r = runGoldenCell(DedupMode::PageForge);
    EXPECT_EQ(r.queries, 56u);
    EXPECT_EQ(r.merges, 0u);
    EXPECT_EQ(r.cowBreaks, 22u);
    EXPECT_EQ(r.dup.framesUsed, 151u);
    EXPECT_EQ(r.pfRefills, 724u);
    EXPECT_EQ(r.pfPagesScanned, 447u);
    EXPECT_EQ(r.simEvents, 3086u);
    EXPECT_EQ(r.pagesScanned, 447u);
}

TEST(GoldenStats, FourMcPageForgeCellMatchesGoldenSnapshot)
{
    ExperimentResult r =
        runGoldenCell(DedupMode::PageForge, {.numMcs = 4});
    ASSERT_EQ(r.perMc.size(), 4u);
    EXPECT_EQ(r.queries, 58u);
    EXPECT_EQ(r.merges, 0u);
    EXPECT_EQ(r.cowBreaks, 112u);
    EXPECT_EQ(r.dup.framesUsed, 152u);
    EXPECT_EQ(r.pfRefills, 2447u);
    EXPECT_EQ(r.pfPagesScanned, 2961u);
    EXPECT_EQ(r.simEvents, 12779u);
    EXPECT_EQ(r.perMc[0].scans, 271u);
    EXPECT_EQ(r.perMc[1].scans, 312u);
    EXPECT_EQ(r.perMc[2].scans, 413u);
    EXPECT_EQ(r.perMc[3].scans, 352u);
    EXPECT_EQ(r.perMc[0].handoffsIn, 332u);
    EXPECT_EQ(r.perMc[1].handoffsIn, 379u);
    EXPECT_EQ(r.perMc[2].handoffsIn, 249u);
    EXPECT_EQ(r.perMc[3].handoffsIn, 175u);
}

TEST(GoldenStats, FourMcChurnCellMatchesGoldenSnapshot)
{
    ExperimentResult r = runGoldenCell(DedupMode::PageForge,
                                       {.numMcs = 4, .churn = true});
    ASSERT_EQ(r.perMc.size(), 4u);
    EXPECT_EQ(r.queries, 59u);
    EXPECT_EQ(r.merges, 76u);
    EXPECT_EQ(r.simEvents, 12394u);
    EXPECT_EQ(r.lifecycle.clones, 2u);
    EXPECT_EQ(r.lifecycle.boots, 2u);
    EXPECT_EQ(r.lifecycle.shutdowns, 3u);
    EXPECT_EQ(r.lifecycle.framesFreed, 135u);
    EXPECT_EQ(r.perMc[0].scans, 332u);
    EXPECT_EQ(r.perMc[1].scans, 298u);
    EXPECT_EQ(r.perMc[2].scans, 366u);
    EXPECT_EQ(r.perMc[3].scans, 401u);
    EXPECT_EQ(r.perMc[0].merges, 32u);
    EXPECT_EQ(r.perMc[1].merges, 14u);
    EXPECT_EQ(r.perMc[2].merges, 19u);
    EXPECT_EQ(r.perMc[3].merges, 11u);
    EXPECT_EQ(r.perMc[0].handoffsIn, 387u);
    EXPECT_EQ(r.perMc[1].handoffsIn, 369u);
    EXPECT_EQ(r.perMc[2].handoffsIn, 269u);
    EXPECT_EQ(r.perMc[3].handoffsIn, 235u);
}

TEST(GoldenStats, FourMcWedgeAndHandoffLossCellMatchesGoldenSnapshot)
{
    // Module wedges plus lost cross-MC handoffs on the 4-MC machine:
    // the watchdog, shard failover/readmission and handoff retry
    // paths. Every wedge is detected and failed over, and every lost
    // handoff is retried.
    FaultConfig faults;
    faults.mcWedgeRate = 300.0;
    faults.handoffLossProb = 0.05;
    faults.seed = 7;
    ExperimentResult r = runGoldenCell(DedupMode::PageForge,
                                       {.numMcs = 4, .faults = faults});
    ASSERT_EQ(r.perMc.size(), 4u);
    EXPECT_EQ(r.queries, 58u);
    EXPECT_EQ(r.merges, 0u);
    EXPECT_EQ(r.simEvents, 13562u);
    EXPECT_EQ(r.pfPagesScanned, 3203u);
    EXPECT_EQ(r.faults.mcWedgesInjected, 4u);
    EXPECT_EQ(r.faults.wedgesDetected, 4u);
    EXPECT_EQ(r.faults.moduleRestarts, 4u);
    EXPECT_EQ(r.faults.failovers, 4u);
    EXPECT_EQ(r.faults.readmissions, 3u);
    EXPECT_EQ(r.faults.rehomedPrefixes, 65536u);
    EXPECT_EQ(r.faults.handoffsLost, 49u);
    EXPECT_EQ(r.faults.handoffRetries, 49u);
    EXPECT_EQ(r.faults.handoffDeadLetters, 0u);
    EXPECT_EQ(r.faults.oracleViolations, 0u);
    EXPECT_EQ(r.perMc[0].scans, 297u);
    EXPECT_EQ(r.perMc[1].scans, 410u);
    EXPECT_EQ(r.perMc[2].scans, 370u);
    EXPECT_EQ(r.perMc[3].scans, 331u);
    EXPECT_EQ(r.perMc[0].wedges, 0u);
    EXPECT_EQ(r.perMc[1].wedges, 0u);
    EXPECT_EQ(r.perMc[2].wedges, 3u);
    EXPECT_EQ(r.perMc[3].wedges, 1u);
}

/**
 * Every fault class at once, with the rates of the pfsim spec
 * "rate=3000,...,brownout=200,brownout_ms=0.2,seed=3" raised so each
 * class fires inside the small cell's 22 ms of simulated time.
 */
FaultConfig
everyFaultClass()
{
    return FaultConfig::parse(
        "rate=2e5,double=0.3,stuck=0.2,minikey=0.3,scantable=3000,"
        "race=0.2,mcwedge=150,handoff_loss=0.05,handoff_corrupt=0.02,"
        "handoff_spike=0.1,brownout=1000,brownout_ms=0.2,seed=3");
}

TEST(GoldenStats, FourMcEveryFaultClassPageForgeCellMatchesGoldenSnapshot)
{
    // Every PageForge fault class on the 4-MC machine: the injector's
    // module, table and channel picks, the watchdog's health edges and
    // all three handoff link faults.
    ExperimentResult r = runGoldenCell(
        DedupMode::PageForge, {.numMcs = 4, .faults = everyFaultClass()});
    ASSERT_EQ(r.perMc.size(), 4u);
    EXPECT_GT(r.faults.flipEvents, 0u);
    EXPECT_GT(r.faults.doubleBitFlips, 0u);
    EXPECT_GT(r.faults.stuckAtFaults, 0u);
    EXPECT_GT(r.faults.minikeyTargeted, 0u);
    EXPECT_GT(r.faults.tableCorruptions, 0u);
    EXPECT_GT(r.faults.raceWrites, 0u);
    EXPECT_GT(r.faults.mcWedgesInjected, 0u);
    EXPECT_GT(r.faults.brownouts, 0u);
    EXPECT_GT(r.faults.handoffsLost, 0u);
    EXPECT_GT(r.faults.handoffsCorrupted, 0u);
    EXPECT_GT(r.faults.handoffsSpiked, 0u);
    EXPECT_EQ(r.faults.oracleViolations, 0u);

    EXPECT_EQ(r.queries, 63u);
    EXPECT_EQ(r.merges, 0u);
    EXPECT_EQ(r.simEvents, 14529u);
    EXPECT_EQ(r.pfPagesScanned, 3198u);
    EXPECT_EQ(r.faults.flipEvents, 72u);
    EXPECT_EQ(r.faults.doubleBitFlips, 19u);
    EXPECT_EQ(r.faults.stuckAtFaults, 15u);
    EXPECT_EQ(r.faults.minikeyTargeted, 22u);
    EXPECT_EQ(r.faults.tableCorruptions, 33u);
    EXPECT_EQ(r.faults.raceWrites, 111u);
    EXPECT_EQ(r.faults.skippedNoTarget, 34u);
    EXPECT_EQ(r.faults.uncorrectableErrors, 12u);
    EXPECT_EQ(r.faults.mcWedgesInjected, 5u);
    EXPECT_EQ(r.faults.wedgesDetected, 4u);
    EXPECT_EQ(r.faults.readmissions, 3u);
    EXPECT_EQ(r.faults.brownouts, 11u);
    EXPECT_EQ(r.faults.healthTransitions, 33u);
    EXPECT_EQ(r.faults.handoffsLost, 42u);
    EXPECT_EQ(r.faults.handoffsCorrupted, 21u);
    EXPECT_EQ(r.faults.handoffsSpiked, 94u);
    EXPECT_EQ(r.faults.handoffRetries, 42u);
    EXPECT_EQ(r.perMc[0].scans, 328u);
    EXPECT_EQ(r.perMc[1].scans, 389u);
    EXPECT_EQ(r.perMc[2].scans, 427u);
    EXPECT_EQ(r.perMc[3].scans, 370u);
    EXPECT_EQ(r.perMc[0].wedges, 0u);
    EXPECT_EQ(r.perMc[1].wedges, 0u);
    EXPECT_EQ(r.perMc[2].wedges, 3u);
    EXPECT_EQ(r.perMc[3].wedges, 1u);
}

} // namespace
} // namespace pageforge
