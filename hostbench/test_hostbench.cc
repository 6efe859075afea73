/**
 * @file
 * The benchmark measures the same program the campaign runs, and
 * tracing does not change what it measures.
 */

#include <gtest/gtest.h>

#include "system/campaign.hh"
#include "workload.hh"
#include "workload/app_profile.hh"

using namespace hostbench;

namespace
{

ExperimentConfig
smallExperiment()
{
    ExperimentConfig cfg;
    cfg.memScale = 0.03;
    cfg.targetQueries = 120;
    cfg.settleTime = msToTicks(5);
    cfg.seed = 11;
    return cfg;
}

ExperimentResult
drive(const AppProfile &app, DedupMode mode, const ExperimentConfig &cfg,
      const SystemConfig &sys)
{
    CellDriver driver(app, mode, cfg, sys);
    driver.deploy();
    driver.warmup();
    driver.settle();
    driver.window();
    return driver.collect();
}

void
expectSameAsCampaign(const std::string &app_name, DedupMode mode,
                     const ExperimentConfig &cfg, const SystemConfig &sys)
{
    const AppProfile &app = appByName(app_name);
    ExperimentResult reference = runExperiment(app, mode, cfg, sys);
    ExperimentResult phased = drive(app, mode, cfg, sys);
    EXPECT_TRUE(identicalResults(reference, phased));
    // Fields identicalResults() leaves out but the benchmark reports.
    EXPECT_EQ(reference.lifecycle.clones, phased.lifecycle.clones);
    EXPECT_EQ(reference.lifecycle.shutdowns, phased.lifecycle.shutdowns);
    EXPECT_EQ(reference.lifecycle.framesFreed,
              phased.lifecycle.framesFreed);
    EXPECT_EQ(reference.phases.size(), phased.phases.size());
    EXPECT_GT(phased.queries, 0u);
}

WorkloadSpec
tinyWorkload(unsigned num_mcs, bool churn)
{
    WorkloadSpec spec;
    spec.name = "tiny";
    spec.apps = {"masstree"};
    spec.modes = {DedupMode::Ksm, DedupMode::PageForge};
    spec.experiment = smallExperiment();
    spec.sysTemplate.numMcs = num_mcs;
    if (churn) {
        spec.modes = {DedupMode::PageForge};
        spec.experiment.churn.kind = ChurnKind::Poisson;
    }
    return spec;
}

} // namespace

TEST(CellDriver, MatchesRunExperimentAtOneMc)
{
    expectSameAsCampaign("masstree", DedupMode::Ksm, smallExperiment(), {});
    expectSameAsCampaign("silo", DedupMode::PageForge, smallExperiment(),
                         {});
}

TEST(CellDriver, MatchesRunExperimentAtFourMcsWithChurn)
{
    ExperimentConfig cfg = smallExperiment();
    cfg.churn.kind = ChurnKind::Poisson;
    SystemConfig sys;
    sys.numMcs = 4;
    expectSameAsCampaign("masstree", DedupMode::PageForge, cfg, sys);
}

TEST(Repetition, TracedRunSimulatesTheSameMachine)
{
    for (bool churn : {false, true}) {
        WorkloadSpec spec = tinyWorkload(churn ? 4 : 1, churn);
        RepResult plain = runRepetition(spec, false);
        RepResult traced = runRepetition(spec, true);
        EXPECT_EQ(plain.failures(), 0u);
        EXPECT_EQ(traced.failures(), 0u);
        EXPECT_EQ(simDigest(plain), simDigest(traced)) << "churn=" << churn;
        EXPECT_TRUE(checkAgainstCampaign(spec, plain).empty());
        EXPECT_FALSE(prof::enabled());
        EXPECT_FALSE(traced.profile.empty());
        for (const CellRecord &cell : traced.cells) {
            EXPECT_FALSE(cell.probes.accessNs.empty());
            EXPECT_FALSE(cell.probes.readLineNs.empty());
        }
    }
}

TEST(Repetition, DigestSeesSimulatedChanges)
{
    WorkloadSpec spec = tinyWorkload(1, false);
    RepResult a = runRepetition(spec, false);
    spec.experiment.seed += 1;
    RepResult b = runRepetition(spec, false);
    EXPECT_NE(simDigest(a), simDigest(b));
}

TEST(Repetition, SpansCoverEachCellExactly)
{
    RepResult rep = runRepetition(tinyWorkload(4, true), true);
    ASSERT_FALSE(rep.cells.empty());
    for (unsigned idx = 0; idx < rep.cells.size(); ++idx) {
        std::vector<Span> spans;
        for (const Span &span : rep.spans)
            if (span.cell == idx)
                spans.push_back(span);
        ASSERT_EQ(spans.size(), numPhases);
        EXPECT_EQ(spans.front().phase, Phase::Construct);
        EXPECT_EQ(spans.back().phase, Phase::Teardown);
        double in_wall = 0.0, outside = 0.0;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            if (i) {
                EXPECT_EQ(spans[i].startNs, spans[i - 1].endNs);
            }
            EXPECT_LE(spans[i].startNs, spans[i].endNs);
            (phaseInWall(spans[i].phase) ? in_wall : outside) +=
                spans[i].seconds();
        }
        const double covered =
            (spans.back().endNs - spans.front().startNs) * 1e-9;
        EXPECT_DOUBLE_EQ(rep.cells[idx].wallSeconds, in_wall);
        EXPECT_NEAR(in_wall + outside, covered, 1e-9);
    }
}
