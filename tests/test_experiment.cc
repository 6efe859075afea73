/**
 * @file
 * Tests for the experiment runner plumbing: measurement-window
 * sizing, cache scaling rules, and result-field coverage.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "golden_small.hh"
#include "system/experiment.hh"

namespace pageforge
{
namespace
{

TEST(ExperimentConfigTest, WindowRespectsBounds)
{
    ExperimentConfig cfg;
    cfg.targetQueries = 1000;
    cfg.minMeasure = msToTicks(100);
    cfg.maxMeasure = msToTicks(1000);

    AppProfile app = appByName("silo"); // 2000 QPS x 10 VMs
    // 1000 / 20000 = 50 ms -> clamped up to 100 ms.
    EXPECT_EQ(cfg.measureWindow(app, 10), msToTicks(100));

    AppProfile slow = appByName("sphinx"); // 1 QPS x 10 VMs
    // 1000 / 10 = 100 s -> clamped down to 1 s.
    EXPECT_EQ(cfg.measureWindow(slow, 10), msToTicks(1000));
}

TEST(ExperimentConfigTest, WindowScalesWithVmCount)
{
    ExperimentConfig cfg;
    cfg.targetQueries = 10000;
    cfg.minMeasure = 1;
    cfg.maxMeasure = maxTick;
    AppProfile app = appByName("moses"); // 100 QPS
    Tick w10 = cfg.measureWindow(app, 10);
    Tick w5 = cfg.measureWindow(app, 5);
    EXPECT_NEAR(static_cast<double>(w5),
                2.0 * static_cast<double>(w10),
                static_cast<double>(w10) * 0.01);
}

TEST(ExperimentRunTest, CacheScalingAppliesOnlyToDefaults)
{
    ExperimentConfig cfg;
    cfg.memScale = 0.2;

    // The Table 2 template shrinks with the image: L2 by 2x the scale,
    // L3 by half of it, each above a floor.
    const SystemConfig defaults;
    SystemConfig scaled =
        experimentSystemConfig(DedupMode::PageForge, cfg, defaults);
    EXPECT_EQ(defaults.l2.sizeBytes, 256u * 1024);
    EXPECT_EQ(defaults.l3.sizeBytes, 32u * 1024 * 1024);
    EXPECT_EQ(scaled.l2.sizeBytes,
              std::max<std::uint32_t>(
                  64 * 1024,
                  static_cast<std::uint32_t>(256 * 1024 * 0.4)));
    EXPECT_EQ(scaled.l3.sizeBytes,
              std::max<std::uint32_t>(
                  1024 * 1024,
                  static_cast<std::uint32_t>(32 * 1024 * 1024 * 0.1)));
    EXPECT_EQ(scaled.mode, DedupMode::PageForge);
    EXPECT_EQ(scaled.memScale, 0.2);

    auto unchanged = [](const SystemConfig &in, const SystemConfig &out) {
        EXPECT_EQ(out.l2.sizeBytes, in.l2.sizeBytes);
        EXPECT_EQ(out.l3.sizeBytes, in.l3.sizeBytes);
    };

    // Custom cache sizes in the template stay as given.
    SystemConfig custom;
    custom.l2 = CacheConfig{"l2", 16 * 1024, 4, 6, 8};
    custom.l3 = CacheConfig{"l3", 128 * 1024, 16, 20, 16};
    unchanged(custom, experimentSystemConfig(DedupMode::None, cfg, custom));

    // Full-size images keep the full-size caches.
    ExperimentConfig full = cfg;
    full.memScale = 1.0;
    unchanged(defaults,
              experimentSystemConfig(DedupMode::None, full, defaults));
    full.memScale = 2.0;
    unchanged(defaults,
              experimentSystemConfig(DedupMode::None, full, defaults));

    // Scaling can be switched off.
    ExperimentConfig off = cfg;
    off.scaleCaches = false;
    unchanged(defaults,
              experimentSystemConfig(DedupMode::None, off, defaults));
}

TEST(ExperimentRunTest, ResultCarriesModeSpecificFields)
{
    ExperimentConfig cfg;
    cfg.memScale = 0.03;
    cfg.warmupPasses = 3;
    cfg.settleTime = msToTicks(2);
    cfg.targetQueries = 50;
    cfg.minMeasure = msToTicks(15);
    cfg.maxMeasure = msToTicks(30);

    SystemConfig tiny;
    tiny.numCores = 2;
    tiny.numVms = 2;
    tiny.l1 = CacheConfig{"l1", 4 * 1024, 2, 2, 4};
    tiny.l2 = CacheConfig{"l2", 16 * 1024, 4, 6, 8};
    tiny.l3 = CacheConfig{"l3", 128 * 1024, 16, 20, 16};

    AppProfile app = appByName("masstree");
    app.qps = 500;

    ExperimentResult pf =
        runExperiment(app, DedupMode::PageForge, cfg, tiny);
    EXPECT_GT(pf.pfOsChecks, 0u);
    EXPECT_GT(pf.pfPagesScanned, 0u);
    EXPECT_EQ(pf.ksmCycleFracAvg, 0.0);

    ExperimentResult ksm = runExperiment(app, DedupMode::Ksm, cfg, tiny);
    EXPECT_GT(ksm.ksmCycleFracAvg, 0.0);
    EXPECT_EQ(ksm.pfOsChecks, 0u);
    EXPECT_GT(ksm.hashStats.comparisons(), 0u);

    // Both dedup modes saved memory relative to the unmerged image.
    EXPECT_LT(pf.dup.framesUsed, pf.dup.mappedPages);
    EXPECT_LT(ksm.dup.framesUsed, ksm.dup.mappedPages);
}

TEST(ExperimentRunTest, AppOnlyMissRateIsPopulated)
{
    ExperimentResult result =
        runExperiment(appByName(goldenSmallApp), DedupMode::None,
                      goldenSmallExperiment(), goldenSmallSystem());
    EXPECT_GT(result.l3AppMissRate, 0.0);
    EXPECT_LE(result.l3AppMissRate, 1.0);
}

} // namespace
} // namespace pageforge
