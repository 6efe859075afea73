/**
 * @file
 * Golden-statistics regression test: the determinism contract behind
 * the hot-path optimizations.
 *
 * Every performance change to the event kernel, memory arena, caches
 * or tree search must keep simulated statistics bit-identical for a
 * given seed. Two layers enforce that here:
 *
 *  1. Run the same cell twice and require field-exact equality
 *     (identicalResults: doubles compared bit-wise) — catches any
 *     nondeterminism within one build.
 *
 *  2. Pin a handful of integer statistics to golden literals —
 *     catches changes that are deterministic but silently alter
 *     simulated behaviour (the failure mode "it still converges, the
 *     numbers just moved"). If one of these fails after an
 *     intentional model change, re-record the literals in the same
 *     commit and say why; if it fails after a performance-only
 *     change, the change is wrong.
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

TEST(GoldenStats, FaultedPageForgeCellMatchesGoldenSnapshot)
{
    // DRAM bit flips plus guest writes racing merge commits on the
    // 1-MC machine: the ECC, poisoning and merge-abort paths, checked
    // by the oracle. Churn keeps merges committing inside the window,
    // so the race class has commits to hit.
    FaultConfig faults;
    faults.flipsPerGBSec = 2e5;
    faults.doubleBitFraction = 0.3;
    faults.mergeRaceProb = 0.2;
    faults.seed = 7;
    ExperimentResult r = runGoldenCell(DedupMode::PageForge,
                                       {.churn = true, .faults = faults});
    EXPECT_EQ(r.queries, 69u);
    EXPECT_EQ(r.merges, 21u);
    EXPECT_EQ(r.cowBreaks, 140u);
    EXPECT_EQ(r.dup.framesUsed, 218u);
    EXPECT_EQ(r.simEvents, 3088u);
    EXPECT_EQ(r.pfPagesScanned, 515u);
    EXPECT_EQ(r.faults.flipEvents, 85u);
    EXPECT_EQ(r.faults.doubleBitFlips, 20u);
    EXPECT_EQ(r.faults.correctedErrors, 26u);
    EXPECT_EQ(r.faults.uncorrectableErrors, 11u);
    EXPECT_EQ(r.faults.poisonedFrames, 10u);
    EXPECT_EQ(r.faults.raceWrites, 2u);
    EXPECT_EQ(r.faults.mergeAborts, 2u);
    EXPECT_EQ(r.faults.oracleChecks, 65u);
    EXPECT_EQ(r.faults.oracleViolations, 0u);
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

} // namespace
} // namespace pageforge
