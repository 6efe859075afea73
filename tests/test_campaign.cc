/**
 * @file
 * Tests for the parallel campaign runner: matrix enumeration, the
 * serial/parallel determinism contract, per-cell failure isolation,
 * report lookup, and the JSON serialization.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>

#include "system/campaign.hh"

namespace pageforge
{
namespace
{

/** Tiny, fast experiment setup shared by the real-simulation tests. */
ExperimentConfig
tinyConfig()
{
    ExperimentConfig cfg;
    cfg.memScale = 0.03;
    cfg.warmupPasses = 2;
    cfg.settleTime = msToTicks(2);
    cfg.targetQueries = 50;
    cfg.minMeasure = msToTicks(10);
    cfg.maxMeasure = msToTicks(20);
    return cfg;
}

SystemConfig
tinySystem()
{
    SystemConfig sys;
    sys.numCores = 2;
    sys.numVms = 2;
    sys.l1 = CacheConfig{"l1", 4 * 1024, 2, 2, 4};
    sys.l2 = CacheConfig{"l2", 16 * 1024, 4, 6, 8};
    sys.l3 = CacheConfig{"l3", 128 * 1024, 16, 20, 16};
    return sys;
}

/** Cheap fake runner: deterministic result derived from the cell. */
ExperimentResult
fakeResult(const CampaignCell &cell)
{
    ExperimentResult result;
    result.app = cell.app;
    result.mode = cell.mode;
    result.queries = cell.seed * 10;
    result.meanSojournMs = static_cast<double>(cell.seed) * 0.5;
    return result;
}

TEST(CampaignSpecTest, CellsEnumerateTheFullMatrixInStableOrder)
{
    CampaignSpec spec;
    spec.apps = {"masstree", "silo"};
    spec.modes = {DedupMode::None, DedupMode::Ksm};
    spec.numSeeds = 3;
    spec.experiment.seed = 100;

    std::vector<CampaignCell> cells = spec.cells();
    ASSERT_EQ(cells.size(), 2u * 2u * 3u);

    // App-major, then mode, then seed.
    EXPECT_EQ(cells[0].app, "masstree");
    EXPECT_EQ(cells[0].mode, DedupMode::None);
    EXPECT_EQ(cells[0].seed, 100u);
    EXPECT_EQ(cells[1].seed, 101u);
    EXPECT_EQ(cells[2].seed, 102u);
    EXPECT_EQ(cells[3].mode, DedupMode::Ksm);
    EXPECT_EQ(cells[6].app, "silo");
}

TEST(CampaignSpecTest, EmptyAppsAndModesMeanTheWholePaperMatrix)
{
    CampaignSpec spec;
    // 5 TailBench apps x 3 modes x 1 seed.
    EXPECT_EQ(spec.cells().size(), 15u);
}

TEST(CampaignRunTest, ParallelMatchesSerialBitForBit)
{
    CampaignSpec spec;
    spec.apps = {"masstree", "silo"};
    spec.experiment = tinyConfig();
    spec.sysTemplate = tinySystem();
    spec.numSeeds = 1;

    spec.jobs = 1;
    CampaignReport serial = runCampaign(spec);
    spec.jobs = 8;
    CampaignReport parallel = runCampaign(spec);

    ASSERT_EQ(serial.cells.size(), 6u); // 2 apps x 3 modes
    ASSERT_EQ(parallel.cells.size(), serial.cells.size());
    EXPECT_EQ(serial.failures(), 0u);
    EXPECT_EQ(parallel.failures(), 0u);
    EXPECT_EQ(parallel.jobs, 6u); // clamped to the cell count

    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        // Same stable report order regardless of scheduling...
        EXPECT_EQ(serial.cells[i].cell.app, parallel.cells[i].cell.app);
        EXPECT_EQ(serial.cells[i].cell.mode,
                  parallel.cells[i].cell.mode);
        EXPECT_EQ(serial.cells[i].cell.seed,
                  parallel.cells[i].cell.seed);
        // ...and bit-identical results in every cell.
        EXPECT_TRUE(identicalResults(serial.cells[i].result,
                                     parallel.cells[i].result))
            << serial.cells[i].cell.app << " / "
            << dedupModeName(serial.cells[i].cell.mode);
    }
}

TEST(CampaignRunTest, SeedsProduceDistinctIndependentCells)
{
    CampaignSpec spec;
    spec.apps = {"masstree"};
    spec.modes = {DedupMode::PageForge};
    spec.numSeeds = 2;
    spec.experiment = tinyConfig();
    spec.sysTemplate = tinySystem();
    spec.jobs = 2;

    CampaignReport report = runCampaign(spec);
    ASSERT_EQ(report.cells.size(), 2u);
    EXPECT_EQ(report.failures(), 0u);

    const CellOutcome *first =
        report.find("masstree", DedupMode::PageForge,
                    spec.experiment.seed);
    const CellOutcome *second =
        report.find("masstree", DedupMode::PageForge,
                    spec.experiment.seed + 1);
    ASSERT_NE(first, nullptr);
    ASSERT_NE(second, nullptr);
    EXPECT_TRUE(first->ok);
    EXPECT_TRUE(second->ok);
    // Different seeds must actually perturb the simulation.
    EXPECT_FALSE(identicalResults(first->result, second->result));
}

TEST(CampaignRunTest, ThrowingCellIsCapturedWithoutKillingTheOthers)
{
    CampaignSpec spec;
    spec.apps = {"a", "b", "c"};
    spec.modes = {DedupMode::None};
    spec.jobs = 4;
    spec.runner = [](const CampaignCell &cell) {
        if (cell.app == "b")
            throw std::runtime_error("cell b exploded");
        return fakeResult(cell);
    };

    CampaignReport report = runCampaign(spec);
    ASSERT_EQ(report.cells.size(), 3u);
    EXPECT_EQ(report.failures(), 1u);

    const CellOutcome *bad = report.find("b", DedupMode::None, 42);
    ASSERT_NE(bad, nullptr);
    EXPECT_FALSE(bad->ok);
    EXPECT_EQ(bad->error, "cell b exploded");

    for (const char *app : {"a", "c"}) {
        const CellOutcome *good = report.find(app, DedupMode::None, 42);
        ASSERT_NE(good, nullptr);
        EXPECT_TRUE(good->ok) << app;
        EXPECT_EQ(good->result.app, app);
    }
}

TEST(CampaignRunTest, NonStdExceptionIsCapturedToo)
{
    CampaignSpec spec;
    spec.apps = {"only"};
    spec.modes = {DedupMode::None};
    spec.jobs = 1;
    spec.runner = [](const CampaignCell &) -> ExperimentResult {
        throw 17; // not derived from std::exception
    };

    CampaignReport report = runCampaign(spec);
    ASSERT_EQ(report.cells.size(), 1u);
    EXPECT_EQ(report.failures(), 1u);
    EXPECT_EQ(report.cells[0].error, "unknown exception");
}

TEST(CampaignRunTest, ProgressSeesEveryCellExactlyOnce)
{
    CampaignSpec spec;
    spec.apps = {"a", "b", "c", "d"};
    spec.modes = {DedupMode::None, DedupMode::Ksm};
    spec.jobs = 3;
    spec.runner = fakeResult;

    std::atomic<std::size_t> calls{0};
    std::size_t max_done = 0;
    spec.progress = [&](const CellOutcome &outcome, std::size_t done,
                        std::size_t total) {
        ++calls;
        EXPECT_TRUE(outcome.ok);
        EXPECT_EQ(total, 8u);
        // Serialized by the runner, so plain reads/writes are safe.
        max_done = std::max(max_done, done);
    };

    CampaignReport report = runCampaign(spec);
    EXPECT_EQ(report.cells.size(), 8u);
    EXPECT_EQ(calls.load(), 8u);
    EXPECT_EQ(max_done, 8u);
}

TEST(CampaignReportTest, AtLooksUpBySeedIndex)
{
    CampaignSpec spec;
    spec.apps = {"x"};
    spec.modes = {DedupMode::Ksm};
    spec.numSeeds = 2;
    spec.experiment.seed = 7;
    spec.jobs = 1;
    spec.runner = fakeResult;

    CampaignReport report = runCampaign(spec);
    EXPECT_EQ(report.at("x", DedupMode::Ksm, 0).queries, 70u);
    EXPECT_EQ(report.at("x", DedupMode::Ksm, 1).queries, 80u);
    EXPECT_EQ(report.find("x", DedupMode::None, 7), nullptr);
}

TEST(CampaignJsonTest, ReportSerializesEveryCellAndEscapesErrors)
{
    CampaignSpec spec;
    spec.apps = {"good", "bad"};
    spec.modes = {DedupMode::PageForge};
    spec.jobs = 1;
    spec.runner = [](const CampaignCell &cell) {
        if (cell.app == "bad")
            throw std::runtime_error("quote \" and\nnewline");
        return fakeResult(cell);
    };

    CampaignReport report = runCampaign(spec);
    std::ostringstream os;
    writeCampaignJson(report, os);
    std::string json = os.str();

    EXPECT_NE(json.find("\"schema\":\"pageforge-campaign-v2\""),
              std::string::npos);
    EXPECT_NE(json.find("\"sim_events\":"), std::string::npos);
    EXPECT_NE(json.find("\"pages_scanned\":"), std::string::npos);
    EXPECT_NE(json.find("\"app\":\"good\""), std::string::npos);
    EXPECT_NE(json.find("\"mode\":\"PageForge\""), std::string::npos);
    EXPECT_NE(json.find("\"failures\":1"), std::string::npos);
    EXPECT_NE(json.find("\"error\":\"quote \\\" and\\nnewline\""),
              std::string::npos);
    // Raw control characters must never reach the output.
    EXPECT_EQ(json.find('\n'), json.size() - 1);
}

TEST(CampaignIdenticalTest, DetectsAnyFieldDifference)
{
    ExperimentResult a = fakeResult({"app", DedupMode::Ksm, 3});
    ExperimentResult b = a;
    EXPECT_TRUE(identicalResults(a, b));

    b.meanSojournMs = a.meanSojournMs + 1e-12;
    EXPECT_FALSE(identicalResults(a, b));

    b = a;
    b.hashStats.eccMatches += 1;
    EXPECT_FALSE(identicalResults(a, b));

    b = a;
    b.dupWarm.framesUsed += 1;
    EXPECT_FALSE(identicalResults(a, b));

    b = a;
    b.simEvents += 1;
    EXPECT_FALSE(identicalResults(a, b));

    b = a;
    b.pagesScanned += 1;
    EXPECT_FALSE(identicalResults(a, b));

    // Host wall-clock differs between any two runs; it must never
    // break the determinism contract.
    b = a;
    b.hostSeconds = a.hostSeconds + 1.0;
    EXPECT_TRUE(identicalResults(a, b));
}

TEST(CampaignPerfReportTest, PerfReportHasRatesAndSpeedup)
{
    CampaignSpec spec;
    spec.apps = {"good", "bad"};
    spec.modes = {DedupMode::Ksm};
    spec.jobs = 1;
    spec.runner = [](const CampaignCell &cell) -> ExperimentResult {
        if (cell.app == "bad")
            throw std::runtime_error("boom");
        ExperimentResult result = fakeResult(cell);
        result.simEvents = 1000;
        result.pagesScanned = 200;
        result.hostSeconds = 0.5;
        return result;
    };

    CampaignReport report = runCampaign(spec);
    report.wallSeconds = 2.0; // pin for a deterministic speedup field

    std::ostringstream os;
    writePerfReport(report, os, /*baseline_seconds=*/4.0);
    std::string json = os.str();

    EXPECT_NE(json.find("\"schema\":\"pageforge-simspeed-v3\""),
              std::string::npos);
    EXPECT_NE(json.find("\"jobs\":1"), std::string::npos);
    EXPECT_NE(json.find("\"num_mcs\":1"), std::string::npos);
    EXPECT_EQ(json.find("\"lanes\""), std::string::npos);
    EXPECT_NE(json.find("\"baseline_wall_seconds\":4"),
              std::string::npos);
    EXPECT_NE(json.find("\"speedup\":2"), std::string::npos);
    EXPECT_NE(json.find("\"total_sim_events\":1000"),
              std::string::npos);
    EXPECT_NE(json.find("\"events_per_sec\":2000"), std::string::npos);
    EXPECT_NE(json.find("\"pages_scanned_per_sec\":400"),
              std::string::npos);
    EXPECT_NE(json.find("\"error\":\"boom\""), std::string::npos);

    // Without a baseline the comparison fields are omitted entirely.
    std::ostringstream plain;
    writePerfReport(report, plain);
    EXPECT_EQ(plain.str().find("speedup"), std::string::npos);
    EXPECT_EQ(plain.str().find("baseline"), std::string::npos);
}

} // namespace
} // namespace pageforge
