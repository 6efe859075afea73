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
    // The multi-MC machine runs per-MC table walks on the lane
    // scheduler's shard queues; it is held to the same contract.
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
    EXPECT_EQ(r.queries, 61u);
    EXPECT_EQ(r.merges, 0u);
    EXPECT_EQ(r.cowBreaks, 154u);
    EXPECT_EQ(r.dup.framesUsed, 152u);
    EXPECT_EQ(r.pfRefills, 2223u);
    EXPECT_EQ(r.pfPagesScanned, 2707u);
    EXPECT_EQ(r.simEvents, 16097u);
    EXPECT_EQ(r.perMc[0].scans, 285u);
    EXPECT_EQ(r.perMc[1].scans, 232u);
    EXPECT_EQ(r.perMc[2].scans, 380u);
    EXPECT_EQ(r.perMc[3].scans, 363u);
    EXPECT_EQ(r.perMc[0].handoffsIn, 310u);
    EXPECT_EQ(r.perMc[1].handoffsIn, 334u);
    EXPECT_EQ(r.perMc[2].handoffsIn, 231u);
    EXPECT_EQ(r.perMc[3].handoffsIn, 184u);
}

TEST(GoldenStats, FourMcChurnCellMatchesGoldenSnapshot)
{
    ExperimentResult r = runGoldenCell(DedupMode::PageForge,
                                       {.numMcs = 4, .churn = true});
    ASSERT_EQ(r.perMc.size(), 4u);
    EXPECT_EQ(r.queries, 63u);
    EXPECT_EQ(r.merges, 68u);
    EXPECT_EQ(r.simEvents, 15089u);
    EXPECT_EQ(r.lifecycle.clones, 2u);
    EXPECT_EQ(r.lifecycle.boots, 2u);
    EXPECT_EQ(r.lifecycle.shutdowns, 3u);
    EXPECT_EQ(r.lifecycle.framesFreed, 140u);
    EXPECT_EQ(r.perMc[0].scans, 275u);
    EXPECT_EQ(r.perMc[1].scans, 286u);
    EXPECT_EQ(r.perMc[2].scans, 424u);
    EXPECT_EQ(r.perMc[3].scans, 384u);
    EXPECT_EQ(r.perMc[0].merges, 30u);
    EXPECT_EQ(r.perMc[1].merges, 13u);
    EXPECT_EQ(r.perMc[2].merges, 17u);
    EXPECT_EQ(r.perMc[3].merges, 8u);
    EXPECT_EQ(r.perMc[0].handoffsIn, 367u);
    EXPECT_EQ(r.perMc[1].handoffsIn, 362u);
    EXPECT_EQ(r.perMc[2].handoffsIn, 242u);
    EXPECT_EQ(r.perMc[3].handoffsIn, 231u);
}

} // namespace
} // namespace pageforge
