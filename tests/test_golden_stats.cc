/**
 * @file
 * Same-seed determinism of the small golden machine (golden_small.hh):
 * the same cell run twice in one process must give field-exact equal
 * results (identicalResults: doubles compared bit-wise), which catches
 * nondeterminism within one build. What the cells produce is pinned,
 * every field, by the golden corpus shapes small-* (tests/golden/).
 *
 * The two 1-MC snapshot tests keep a handful of integer statistics of
 * the KSM and PageForge cells as an in-process check that needs no
 * corpus run; their literals equal tests/golden/small-mc1.json. If one
 * fails after an intended model change, regenerate the corpus and
 * re-record the literals in the same commit.
 */

#include <gtest/gtest.h>

#include "golden_small.hh"
#include "system/campaign.hh"

namespace pageforge
{
namespace
{

ExperimentResult
runSmallCell(DedupMode mode, unsigned num_mcs = 1)
{
    return runExperiment(appByName(goldenSmallApp), mode,
                         goldenSmallExperiment(),
                         goldenSmallSystem(num_mcs));
}

TEST(GoldenStats, SameSeedIsBitIdentical)
{
    for (DedupMode mode :
         {DedupMode::None, DedupMode::Ksm, DedupMode::PageForge}) {
        ExperimentResult first = runSmallCell(mode);
        ExperimentResult second = runSmallCell(mode);
        EXPECT_TRUE(identicalResults(first, second))
            << "mode " << dedupModeName(mode);
    }
    // The multi-MC machine (sharded trees, cross-MC router) is held
    // to the same contract.
    ExperimentResult first = runSmallCell(DedupMode::PageForge, 4);
    ExperimentResult second = runSmallCell(DedupMode::PageForge, 4);
    EXPECT_TRUE(identicalResults(first, second)) << "4-MC PageForge";
}

TEST(GoldenStats, KsmCellMatchesGoldenSnapshot)
{
    ExperimentResult r = runSmallCell(DedupMode::Ksm);
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
    ExperimentResult r = runSmallCell(DedupMode::PageForge);
    EXPECT_EQ(r.queries, 56u);
    EXPECT_EQ(r.merges, 0u);
    EXPECT_EQ(r.cowBreaks, 22u);
    EXPECT_EQ(r.dup.framesUsed, 151u);
    EXPECT_EQ(r.pfRefills, 724u);
    EXPECT_EQ(r.pfPagesScanned, 447u);
    EXPECT_EQ(r.simEvents, 3086u);
    EXPECT_EQ(r.pagesScanned, 447u);
}

} // namespace
} // namespace pageforge
