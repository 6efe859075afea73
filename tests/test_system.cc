/**
 * @file
 * End-to-end tests over the assembled System and the experiment
 * runner: the three configurations produce the qualitative results
 * the paper reports, at test scale.
 */

#include <gtest/gtest.h>

#include "system/experiment.hh"
#include "system/system.hh"

namespace pageforge
{
namespace
{

SystemConfig
tinySystem()
{
    SystemConfig config;
    config.numCores = 4;
    config.numVms = 4;
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

TEST(System, DeploysVmsAndBuildsImages)
{
    SystemConfig config = tinySystem();
    config.memScale = 0.05;
    System system(config, tinyApp());
    system.deploy();

    EXPECT_EQ(system.numApps(), 4u);
    DupAnalysis analysis = system.hypervisor().analyzeDuplication();
    EXPECT_GT(analysis.mappedPages, 0u);
    EXPECT_EQ(analysis.framesUsed, analysis.mappedPages); // unmerged
}

TEST(System, WarmupConvergesAndSavesMemory)
{
    SystemConfig config = tinySystem();
    config.memScale = 0.05;
    config.mode = DedupMode::Ksm;
    System system(config, tinyApp());
    system.deploy();

    std::size_t before = system.memory().framesInUse();
    unsigned passes = system.warmupDedup(10);
    EXPECT_GE(passes, 2u);
    EXPECT_LE(passes, 10u);
    EXPECT_LT(system.memory().framesInUse(), before);
}

TEST(System, KsmAndPageForgeConvergeToSameFootprint)
{
    std::size_t footprints[2];
    DedupMode modes[2] = {DedupMode::Ksm, DedupMode::PageForge};
    for (int i = 0; i < 2; ++i) {
        SystemConfig config = tinySystem();
        config.memScale = 0.05;
        config.mode = modes[i];
        System system(config, tinyApp());
        system.deploy();
        system.warmupDedup(10);
        footprints[i] =
            system.hypervisor().analyzeDuplication().framesUsed;
    }
    EXPECT_EQ(footprints[0], footprints[1]);
}

TEST(System, KsmWithFullStickinessWarmsUp)
{
    // validate() accepts ksmStickiness in [0, 1]; the scheduler must
    // accept the whole range too.
    SystemConfig config = tinySystem();
    config.memScale = 0.05;
    config.mode = DedupMode::Ksm;
    config.ksmStickiness = 1.0;
    config.validate();
    System system(config, tinyApp());
    system.deploy();
    EXPECT_GE(system.warmupDedup(1), 1u);
}

TEST(System, BaselineHasNoDaemon)
{
    SystemConfig config = tinySystem();
    config.memScale = 0.05;
    System system(config, tinyApp());
    EXPECT_EQ(system.ksmd(), nullptr);
    EXPECT_EQ(system.pfDriver(), nullptr);
    EXPECT_EQ(system.mergeStats().merges(), 0u);
}

TEST(Experiment, WindowScalesWithLoad)
{
    ExperimentConfig cfg;
    cfg.targetQueries = 1000;
    AppProfile fast = appByName("silo");    // 2000 QPS
    AppProfile slow = appByName("sphinx");  // 1 QPS
    Tick fast_window = cfg.measureWindow(fast, 10);
    Tick slow_window = cfg.measureWindow(slow, 10);
    EXPECT_LT(fast_window, slow_window);
    EXPECT_GE(fast_window, cfg.minMeasure);
    EXPECT_LE(slow_window, cfg.maxMeasure);
}

class ExperimentRun : public ::testing::Test
{
  protected:
    static ExperimentResult
    run(DedupMode mode)
    {
        ExperimentConfig cfg;
        cfg.memScale = 0.04;
        cfg.warmupPasses = 5;
        cfg.settleTime = msToTicks(5);
        cfg.targetQueries = 400;
        cfg.minMeasure = msToTicks(40);
        cfg.maxMeasure = msToTicks(60);

        AppProfile app = tinyApp();
        return runExperiment(app, mode, cfg, tinySystem());
    }
};

TEST_F(ExperimentRun, BaselineCompletesQueries)
{
    ExperimentResult result = run(DedupMode::None);
    EXPECT_GT(result.queries, 50u);
    EXPECT_GT(result.meanSojournMs, 0.0);
    EXPECT_GE(result.p95SojournMs, result.meanSojournMs);
    EXPECT_EQ(result.merges, 0u);
}

TEST_F(ExperimentRun, KsmSavesMemoryButCostsLatency)
{
    ExperimentResult baseline = run(DedupMode::None);
    ExperimentResult ksm = run(DedupMode::Ksm);

    // Memory savings.
    EXPECT_LT(ksm.dup.framesUsed, baseline.dup.framesUsed);
    // Latency overhead: KSM slower than baseline.
    EXPECT_GT(ksm.meanSojournMs, baseline.meanSojournMs);
    // The daemon consumed core cycles.
    EXPECT_GT(ksm.ksmCycleFracAvg, 0.0);
    EXPECT_GE(ksm.ksmCycleFracMax, ksm.ksmCycleFracAvg);
}

TEST_F(ExperimentRun, PageForgeSavesMemoryWithLowOverhead)
{
    ExperimentResult baseline = run(DedupMode::None);
    ExperimentResult ksm = run(DedupMode::Ksm);
    ExperimentResult pf = run(DedupMode::PageForge);

    // Same savings as KSM. Under live churn the instantaneous count
    // of broken merges differs between runs (the daemons interleave
    // with writes differently), so allow a small tolerance here; the
    // exact-equality claim at steady state is checked in
    // System.KsmAndPageForgeConvergeToSameFootprint.
    double ratio = static_cast<double>(pf.dup.framesUsed) /
        static_cast<double>(ksm.dup.framesUsed);
    EXPECT_NEAR(ratio, 1.0, 0.05);

    // The headline result: PageForge's latency overhead is far below
    // KSM's at equal savings.
    double ksm_overhead = ksm.meanSojournMs / baseline.meanSojournMs;
    double pf_overhead = pf.meanSojournMs / baseline.meanSojournMs;
    EXPECT_LT(pf_overhead, ksm_overhead);

    // And PageForge took no core cycles for scanning.
    EXPECT_EQ(pf.ksmCycleFracAvg, 0.0);
    EXPECT_GT(pf.pfOsChecks, 0u);
}

} // namespace
} // namespace pageforge
