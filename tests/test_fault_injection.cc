/**
 * @file
 * Tests for the fault-injection & resilience subsystem: config
 * parsing, stuck-at vs transient DRAM faults, the minikey attack on
 * the ECC hash-key path, frame poisoning/quarantine, the injected
 * merge race, the merge oracle, determinism under faults, and the
 * campaign's invariant-violation capture.
 */

#include <set>
#include <stdexcept>

#include "golden_small.hh"
#include "sim_fixture.hh"

#include "core/module_watchdog.hh"
#include "ecc/ecc_hash_key.hh"
#include "fault/fault_config.hh"
#include "fault/fault_injector.hh"
#include "fault/mc_health.hh"
#include "fault/merge_oracle.hh"
#include "shard/shard_map.hh"
#include "sim/logging.hh"
#include "system/campaign.hh"
#include "system/experiment.hh"
#include "system/system.hh"

namespace pageforge
{
namespace
{

using FaultInjectionTest = SmallMachine;

// ---------------------------------------------------------------
// FaultConfig parsing and validation
// ---------------------------------------------------------------

TEST(FaultConfigTest, ParseFullSpec)
{
    FaultConfig cfg = FaultConfig::parse(
        "rate=2e4,double=0.3,stuck=0.2,minikey=0.4,scantable=50,"
        "race=0.05,seed=9");
    EXPECT_DOUBLE_EQ(cfg.flipsPerGBSec, 2e4);
    EXPECT_DOUBLE_EQ(cfg.doubleBitFraction, 0.3);
    EXPECT_DOUBLE_EQ(cfg.stuckAtFraction, 0.2);
    EXPECT_DOUBLE_EQ(cfg.minikeyBias, 0.4);
    EXPECT_DOUBLE_EQ(cfg.scanTableRate, 50.0);
    EXPECT_DOUBLE_EQ(cfg.mergeRaceProb, 0.05);
    EXPECT_EQ(cfg.seed, 9u);
    EXPECT_TRUE(cfg.enabled());
    EXPECT_TRUE(cfg.problem().empty());
}

TEST(FaultConfigTest, DefaultIsDisabledAndValid)
{
    FaultConfig cfg;
    EXPECT_FALSE(cfg.enabled());
    EXPECT_TRUE(cfg.problem().empty());
}

TEST(FaultConfigTest, ParseMcFaultSpec)
{
    FaultConfig cfg = FaultConfig::parse(
        "mcwedge=40,handoff_loss=0.05,handoff_corrupt=0.02,"
        "handoff_spike=0.1,spike_mult=8,brownout=25,brownout_ms=0.4,"
        "brownout_mult=6,seed=11");
    EXPECT_DOUBLE_EQ(cfg.mcWedgeRate, 40.0);
    EXPECT_DOUBLE_EQ(cfg.handoffLossProb, 0.05);
    EXPECT_DOUBLE_EQ(cfg.handoffCorruptProb, 0.02);
    EXPECT_DOUBLE_EQ(cfg.handoffSpikeProb, 0.1);
    EXPECT_DOUBLE_EQ(cfg.handoffSpikeMult, 8.0);
    EXPECT_DOUBLE_EQ(cfg.brownoutRate, 25.0);
    EXPECT_DOUBLE_EQ(cfg.brownoutMs, 0.4);
    EXPECT_DOUBLE_EQ(cfg.brownoutMult, 6.0);
    EXPECT_EQ(cfg.seed, 11u);
    EXPECT_TRUE(cfg.mcFaultsEnabled());
    EXPECT_TRUE(cfg.handoffFaultsEnabled());
    EXPECT_TRUE(cfg.enabled());
    EXPECT_TRUE(cfg.problem().empty());

    // Line-level faults alone arm neither MC-scale helper.
    FaultConfig flips = FaultConfig::parse("rate=1e4");
    EXPECT_FALSE(flips.mcFaultsEnabled());
    EXPECT_FALSE(flips.handoffFaultsEnabled());
    EXPECT_TRUE(flips.enabled());
}

TEST(FaultConfigTest, ParseRejectsBadTokens)
{
    EXPECT_THROW(FaultConfig::parse("bogus=1"), std::invalid_argument);
    EXPECT_THROW(FaultConfig::parse("rate"), std::invalid_argument);
    EXPECT_THROW(FaultConfig::parse("rate=abc"), std::invalid_argument);
}

TEST(FaultConfigTest, ParseRejectsBadMcTokens)
{
    // Malformed tokens: key without value, non-numeric or empty value,
    // near-miss key.
    EXPECT_THROW(FaultConfig::parse("mcwedge"), std::invalid_argument);
    EXPECT_THROW(FaultConfig::parse("mcwedge=abc"),
                 std::invalid_argument);
    EXPECT_THROW(FaultConfig::parse("handoff_loss="),
                 std::invalid_argument);
    EXPECT_THROW(FaultConfig::parse("handoff_losss=0.1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultConfig::parse("brownout_ms=0.5ms"),
                 std::invalid_argument);

    // Well-formed but out of range: parse() runs problem() and throws.
    EXPECT_THROW(FaultConfig::parse("mcwedge=-1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultConfig::parse("handoff_loss=1.5"),
                 std::invalid_argument);
    EXPECT_THROW(FaultConfig::parse("handoff_corrupt=-0.2"),
                 std::invalid_argument);
    EXPECT_THROW(FaultConfig::parse("handoff_spike=2"),
                 std::invalid_argument);
    EXPECT_THROW(FaultConfig::parse("spike_mult=0.5"),
                 std::invalid_argument);
    EXPECT_THROW(FaultConfig::parse("brownout=-3"),
                 std::invalid_argument);
    EXPECT_THROW(FaultConfig::parse("brownout_ms=0"),
                 std::invalid_argument);
    EXPECT_THROW(FaultConfig::parse("brownout_mult=0.9"),
                 std::invalid_argument);

    // Empty tokens (leading/trailing/doubled commas) are tolerated.
    FaultConfig cfg = FaultConfig::parse(",mcwedge=10,,brownout=5,");
    EXPECT_DOUBLE_EQ(cfg.mcWedgeRate, 10.0);
    EXPECT_DOUBLE_EQ(cfg.brownoutRate, 5.0);
}

TEST(FaultConfigTest, ProblemCatchesNonsense)
{
    FaultConfig cfg;
    cfg.flipsPerGBSec = -1.0;
    EXPECT_FALSE(cfg.problem().empty());
    cfg = FaultConfig{};
    cfg.doubleBitFraction = 1.5;
    EXPECT_FALSE(cfg.problem().empty());
    cfg = FaultConfig{};
    cfg.mergeRaceProb = -0.1;
    EXPECT_FALSE(cfg.problem().empty());
}

TEST(FaultConfigTest, ProblemCatchesMcNonsense)
{
    FaultConfig cfg;
    cfg.mcWedgeRate = -0.5;
    EXPECT_FALSE(cfg.problem().empty());
    cfg = FaultConfig{};
    cfg.handoffLossProb = 2.0;
    EXPECT_FALSE(cfg.problem().empty());
    cfg = FaultConfig{};
    cfg.handoffSpikeMult = 0.0;
    EXPECT_FALSE(cfg.problem().empty());
    cfg = FaultConfig{};
    cfg.brownoutMs = -1.0;
    EXPECT_FALSE(cfg.problem().empty());
    cfg = FaultConfig{};
    cfg.brownoutMult = 0.0;
    EXPECT_FALSE(cfg.problem().empty());
}

// ---------------------------------------------------------------
// Stuck-at (persistent) vs transient DRAM faults
// ---------------------------------------------------------------

TEST_F(FaultInjectionTest, PersistentFaultSurvivesWriteback)
{
    VmId vm = makeVm(1);
    fillSeeded(vm, 0, 11);
    Addr addr = lineAddr(hyper.frameOf(vm, 0), 0);

    mc.injectBitFlip(addr, 100, /*persistent=*/true);
    mc.readLine(addr, 0, Requester::App);
    EXPECT_EQ(mc.correctedErrors(), 1u);

    // A stuck-at cell reasserts itself after the line is written back.
    mc.writeLine(addr, 0, Requester::App);
    mc.readLine(addr, 0, Requester::App);
    EXPECT_EQ(mc.correctedErrors(), 2u);

    // ...and after a plain re-read (the scrub does not clear it).
    mc.readLine(addr, 0, Requester::App);
    EXPECT_EQ(mc.correctedErrors(), 3u);
    EXPECT_EQ(mc.uncorrectableErrors(), 0u);
}

TEST_F(FaultInjectionTest, TransientFaultClearedByWriteback)
{
    VmId vm = makeVm(1);
    fillSeeded(vm, 0, 12);
    Addr addr = lineAddr(hyper.frameOf(vm, 0), 0);

    mc.injectBitFlip(addr, 42); // transient (default)
    mc.writeLine(addr, 0, Requester::App);
    mc.readLine(addr, 0, Requester::App);
    EXPECT_EQ(mc.correctedErrors(), 0u);
}

// ---------------------------------------------------------------
// Minikey attack on the ECC hash-key path
// ---------------------------------------------------------------

TEST_F(FaultInjectionTest, SingleBitMinikeyFaultIsCorrectedKeyUnchanged)
{
    VmId vm = makeVm(1);
    fillSeeded(vm, 0, 7);
    FrameId frame = hyper.frameOf(vm, 0);

    EccOffsets offsets = EccOffsets::defaults();
    Addr addr = lineAddr(frame, offsets.lineIndex(0));
    McReadResult pristine =
        mc.readLine(addr, 0, Requester::PageForge, /*want_ecc=*/true);

    mc.injectBitFlip(addr, 13);
    McReadResult faulty =
        mc.readLine(addr, 0, Requester::PageForge, /*want_ecc=*/true);

    // SECDED corrects the read, and the delivered code — the one the
    // hash-key snatcher consumes — matches the pristine line, so the
    // page's hash key is unchanged.
    EXPECT_EQ(mc.correctedErrors(), 1u);
    EXPECT_EQ(mc.uncorrectableErrors(), 0u);
    EXPECT_EQ(faulty.ecc, pristine.ecc);
    EXPECT_EQ(LineEcc::minikey(faulty.ecc),
              LineEcc::minikey(pristine.ecc));
    EXPECT_FALSE(mem.isPoisoned(frame));
}

TEST_F(FaultInjectionTest, DoubleBitMinikeyFaultChangesKeyAndPoisons)
{
    VmId vm = makeVm(1);
    fillSeeded(vm, 0, 7);
    FrameId frame = hyper.frameOf(vm, 0);

    EccOffsets offsets = EccOffsets::defaults();
    Addr addr = lineAddr(frame, offsets.lineIndex(0));
    McReadResult pristine =
        mc.readLine(addr, 0, Requester::PageForge, /*want_ecc=*/true);

    // Two bits of word 0: detected, uncorrectable, and word 0 is the
    // source of the delivered minikey.
    mc.injectBitFlip(addr, 3);
    mc.injectBitFlip(addr, 60);
    McReadResult garbled =
        mc.readLine(addr, 0, Requester::PageForge, /*want_ecc=*/true);

    EXPECT_EQ(mc.uncorrectableErrors(), 1u);
    EXPECT_NE(LineEcc::minikey(garbled.ecc),
              LineEcc::minikey(pristine.ecc));
    // The frame is quarantined on the spot.
    EXPECT_TRUE(mem.isPoisoned(frame));
    EXPECT_EQ(mem.poisonedFrames(), 1u);
}

// ---------------------------------------------------------------
// Frame poisoning and quarantine
// ---------------------------------------------------------------

TEST(PoisonTest, PoisonedFrameIsNeverReallocated)
{
    PhysicalMemory mem(8);
    FrameId victim = mem.allocFrame();
    EXPECT_TRUE(mem.poisonFrame(victim));
    EXPECT_FALSE(mem.poisonFrame(victim)); // idempotent
    EXPECT_EQ(mem.poisonedFrames(), 1u);
    EXPECT_EQ(mem.quarantinedFrames(), 0u); // still mapped

    // Releasing the last reference quarantines instead of freeing.
    EXPECT_TRUE(mem.decRef(victim));
    EXPECT_EQ(mem.quarantinedFrames(), 1u);

    std::set<FrameId> handed_out;
    for (unsigned i = 0; i < 7; ++i)
        handed_out.insert(mem.allocFrame());
    EXPECT_EQ(handed_out.size(), 7u);
    EXPECT_EQ(handed_out.count(victim), 0u);
}

TEST(PoisonTest, PoisoningAFreeFrameQuarantinesImmediately)
{
    PhysicalMemory mem(8);
    FrameId frame = mem.allocFrame();
    mem.decRef(frame); // back on the free list
    EXPECT_TRUE(mem.poisonFrame(frame));
    EXPECT_EQ(mem.quarantinedFrames(), 1u);

    std::set<FrameId> handed_out;
    for (unsigned i = 0; i < 7; ++i)
        handed_out.insert(mem.allocFrame());
    EXPECT_EQ(handed_out.count(frame), 0u);
}

TEST_F(FaultInjectionTest, GuestWriteMigratesOffPoisonedFrame)
{
    VmId vm = makeVm(1);
    fillPage(vm, 0, 0x55);
    FrameId frame = hyper.frameOf(vm, 0);
    mem.poisonFrame(frame);

    std::uint8_t byte = 0xAB;
    hyper.writeToPage(vm, 0, 0, &byte, 1);

    FrameId moved = hyper.frameOf(vm, 0);
    EXPECT_NE(moved, frame);
    EXPECT_FALSE(mem.isPoisoned(moved));
    // The old frame drained to quarantine; the copy carried the data.
    EXPECT_EQ(mem.quarantinedFrames(), 1u);
    EXPECT_EQ(hyper.pageData(vm, 0)[0], 0xAB);
    EXPECT_EQ(hyper.pageData(vm, 0)[1], 0x55);
}

// ---------------------------------------------------------------
// Injected merge race
// ---------------------------------------------------------------

TEST_F(FaultInjectionTest, MergeRaceWriteDivergesTheCandidate)
{
    VmId vm = makeVm(1);
    fillPage(vm, 0, 0x55);

    FaultConfig cfg;
    cfg.mergeRaceProb = 1.0;
    FaultInjector inj("inj", eq, {&mc}, hyper, cfg, 99);
    inj.start();

    std::uint32_t version_before = hyper.vm(vm).page(0).writeVersion;
    EXPECT_TRUE(inj.maybeInjectMergeRace(PageKey{vm, 0}));
    EXPECT_EQ(inj.stats().raceWrites, 1u);
    EXPECT_GT(hyper.vm(vm).page(0).writeVersion, version_before);

    // Exactly one byte diverged (the racing guest write).
    const std::uint8_t *data = hyper.pageData(vm, 0);
    unsigned diffs = 0;
    for (unsigned i = 0; i < pageSize; ++i)
        diffs += data[i] != 0x55;
    EXPECT_EQ(diffs, 1u);

    // A stopped injector never writes.
    inj.stop();
    EXPECT_FALSE(inj.maybeInjectMergeRace(PageKey{vm, 0}));
    EXPECT_EQ(inj.stats().raceWrites, 1u);
}

// ---------------------------------------------------------------
// Merge oracle
// ---------------------------------------------------------------

TEST(MergeOracleTest, CountsChecksAndViolations)
{
    std::uint8_t a[pageSize];
    std::uint8_t b[pageSize];
    std::memset(a, 0x11, pageSize);
    std::memset(b, 0x11, pageSize);

    MergeOracle oracle;
    EXPECT_TRUE(oracle.check(a, b));
    EXPECT_EQ(oracle.checks(), 1u);
    EXPECT_EQ(oracle.violations(), 0u);

    b[pageSize - 1] ^= 1;
    EXPECT_FALSE(oracle.check(a, b));
    EXPECT_EQ(oracle.checks(), 2u);
    EXPECT_EQ(oracle.violations(), 1u);
}

// ---------------------------------------------------------------
// Whole-system behaviour under injected faults
// ---------------------------------------------------------------

AppProfile
tinyApp()
{
    AppProfile app = appByName("masstree");
    app.qps = 500;
    return app;
}

TEST(FaultExperimentTest, IdenticalRunsStayIdenticalUnderFaults)
{
    ExperimentConfig cfg = goldenSmallExperiment();
    cfg.faults = FaultConfig::parse(
        "rate=2e5,double=0.3,stuck=0.3,minikey=0.4,scantable=40,"
        "race=0.1,seed=5");

    ExperimentResult a = runExperiment(tinyApp(), DedupMode::PageForge,
                                       cfg, goldenSmallSystem());
    ExperimentResult b = runExperiment(tinyApp(), DedupMode::PageForge,
                                       cfg, goldenSmallSystem());

    EXPECT_TRUE(identicalResults(a, b));
    EXPECT_TRUE(a.faults.enabled);
    EXPECT_GT(a.faults.flipEvents, 0u);
    EXPECT_EQ(a.faults.oracleViolations, 0u);
    EXPECT_GT(a.faults.oracleChecks, 0u);
}

TEST(FaultExperimentTest, KsmSurvivesUncorrectableErrors)
{
    ExperimentConfig cfg = goldenSmallExperiment();
    cfg.faults.flipsPerGBSec = 2e5;
    cfg.faults.doubleBitFraction = 1.0; // every flip is uncorrectable
    cfg.faults.seed = 3;

    ExperimentResult r = runExperiment(tinyApp(), DedupMode::Ksm, cfg,
                                       goldenSmallSystem());

    EXPECT_GT(r.faults.flipEvents, 0u);
    // Counters reconcile: every poisoning traces to an uncorrectable
    // error, and quarantine only drains from the poisoned pool.
    EXPECT_LE(r.faults.poisonedFrames, r.faults.uncorrectableErrors);
    EXPECT_LE(r.faults.quarantinedFrames, r.faults.poisonedFrames);
    EXPECT_EQ(r.faults.oracleViolations, 0u);
}

TEST(FaultExperimentTest, FaultSummaryDisabledOnCleanRuns)
{
    ExperimentConfig cfg = goldenSmallExperiment();
    cfg.auditInterval = msToTicks(3); // audits pass on a healthy system

    ExperimentResult r = runExperiment(tinyApp(), DedupMode::Ksm, cfg,
                                       goldenSmallSystem());
    EXPECT_FALSE(r.faults.enabled);
    EXPECT_EQ(r.faults.flipEvents, 0u);
    EXPECT_GT(r.queries, 0u);
}

// ---------------------------------------------------------------
// MC fault domains: wedge detection, failover, re-admission
// ---------------------------------------------------------------

SystemConfig
mcFleetSystem(unsigned num_mcs)
{
    SystemConfig sys = goldenSmallSystem();
    sys.numMcs = num_mcs;
    // Fast watchdog so detect -> quarantine -> restart -> re-admit
    // cycles many times inside the tiny measurement window.
    sys.watchdog.heartbeatInterval = usToTicks(50);
    sys.watchdog.wedgeThreshold = 2;
    sys.watchdog.recoveryDelay = usToTicks(100);
    sys.watchdog.readmitDelay = usToTicks(100);
    return sys;
}

TEST(FaultExperimentTest, WedgeDrivesFailoverAndReadmission)
{
    ExperimentConfig cfg = goldenSmallExperiment();
    cfg.faults =
        FaultConfig::parse("mcwedge=400,handoff_loss=0.1,seed=21");

    ExperimentResult r = runExperiment(tinyApp(), DedupMode::PageForge,
                                       cfg, mcFleetSystem(4));

    // Wedges landed and were detected; every detection restarted the
    // module and failed its ranges over to a survivor.
    EXPECT_TRUE(r.faults.enabled);
    EXPECT_GT(r.faults.mcWedgesInjected, 0u);
    EXPECT_GT(r.faults.wedgesDetected, 0u);
    EXPECT_LE(r.faults.wedgesDetected, r.faults.mcWedgesInjected);
    EXPECT_EQ(r.faults.moduleRestarts, r.faults.wedgesDetected);
    EXPECT_EQ(r.faults.failovers, r.faults.wedgesDetected);
    EXPECT_GT(r.faults.readmissions, 0u);
    EXPECT_LE(r.faults.readmissions, r.faults.failovers);
    EXPECT_GT(r.faults.rehomedPrefixes, 0u);

    // Lost handoffs were retried by the sender-side recovery loop.
    EXPECT_GT(r.faults.handoffsLost, 0u);
    EXPECT_GT(r.faults.handoffRetries, 0u);

    // The failover machinery never merged wrong pages.
    EXPECT_GT(r.faults.oracleChecks, 0u);
    EXPECT_EQ(r.faults.oracleViolations, 0u);

    // Per-MC health is populated and reconciles with the watchdog.
    ASSERT_EQ(r.perMc.size(), 4u);
    std::uint64_t wedges = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t transitions = 0;
    for (const McSummary &mc : r.perMc) {
        EXPECT_FALSE(mc.health.empty());
        wedges += mc.wedges;
        quarantines += mc.quarantines;
        transitions += mc.healthTransitions;
    }
    EXPECT_EQ(wedges, r.faults.wedgesDetected);
    EXPECT_EQ(quarantines, r.faults.wedgesDetected);
    EXPECT_EQ(transitions, r.faults.healthTransitions);
    EXPECT_GT(r.faults.healthTransitions, 0u);
}

TEST(FaultExperimentTest, McFaultRunsAreDeterministic)
{
    ExperimentConfig cfg = goldenSmallExperiment();
    cfg.faults = FaultConfig::parse(
        "mcwedge=400,handoff_loss=0.08,handoff_corrupt=0.05,"
        "handoff_spike=0.2,brownout=200,brownout_ms=0.2,seed=13");

    ExperimentResult a = runExperiment(tinyApp(), DedupMode::PageForge,
                                       cfg, mcFleetSystem(4));
    ExperimentResult b = runExperiment(tinyApp(), DedupMode::PageForge,
                                       cfg, mcFleetSystem(4));

    EXPECT_TRUE(identicalResults(a, b));
    EXPECT_GT(a.faults.wedgesDetected + a.faults.handoffsLost +
                  a.faults.brownouts,
              0u);
    EXPECT_EQ(a.faults.oracleViolations, 0u);
}

TEST(FaultExperimentTest, SingleMcWedgeRestartsWithoutFailover)
{
    ExperimentConfig cfg = goldenSmallExperiment();
    cfg.faults = FaultConfig::parse("mcwedge=400,seed=17");

    ExperimentResult r = runExperiment(tinyApp(), DedupMode::PageForge,
                                       cfg, mcFleetSystem(1));

    // No survivor to fail over to: the pipeline pauses through the
    // restart instead, and no prefix range moves.
    EXPECT_GT(r.faults.wedgesDetected, 0u);
    EXPECT_EQ(r.faults.moduleRestarts, r.faults.wedgesDetected);
    EXPECT_EQ(r.faults.failovers, 0u);
    EXPECT_EQ(r.faults.rehomedPrefixes, 0u);
    EXPECT_GT(r.faults.readmissions, 0u);
    EXPECT_EQ(r.faults.oracleViolations, 0u);
    EXPECT_TRUE(r.perMc.empty()); // classic machine: no breakdown
}

TEST(FaultExperimentTest, WholeFleetWedgePausesTheLastShardInPlace)
{
    SystemConfig sys = mcFleetSystem(4);
    sys.mode = DedupMode::PageForge;
    sys.memScale = 0.03;
    // The class arms the watchdog; at this rate no wedge lands on its
    // own, so the only wedges are the four below.
    sys.faults = FaultConfig::parse("mcwedge=0.001,seed=1");
    // Recovery outlasts a scan interval, so every module is detected
    // while the others are still down.
    sys.watchdog.recoveryDelay = msToTicks(20);
    System system(sys, tinyApp());
    system.deploy();
    system.warmupDedup(2);
    system.startLoad();
    for (unsigned mc = 0; mc < 4; ++mc)
        system.pfModule(mc)->wedge();

    // Three shards fail over in turn; the fourth has no unquarantined
    // survivor and pauses in place, like a one-MC machine.
    system.run(msToTicks(15));
    ModuleWatchdog &watchdog = *system.watchdog();
    EXPECT_EQ(watchdog.wedgesDetected(), 4u);
    EXPECT_EQ(watchdog.moduleRestarts(), 4u);
    EXPECT_EQ(watchdog.failovers(), 3u);
    EXPECT_EQ(watchdog.readmissions(), 0u);

    // Every shard comes back, the quarantined and the paused alike.
    system.run(msToTicks(20));
    EXPECT_EQ(watchdog.readmissions(), 4u);
    EXPECT_FALSE(system.shardMap()->anyQuarantined());
    for (unsigned mc = 0; mc < 4; ++mc)
        EXPECT_EQ(system.healthMonitor()->state(mc), McHealth::Healthy);
    EXPECT_EQ(system.mergeOracle()->violations(), 0u);
}

TEST(FaultExperimentTest, BrownoutDegradesAndRecovers)
{
    ExperimentConfig cfg = goldenSmallExperiment();
    cfg.faults = FaultConfig::parse(
        "brownout=400,brownout_ms=0.2,brownout_mult=6,seed=19");

    ExperimentResult r = runExperiment(tinyApp(), DedupMode::PageForge,
                                       cfg, mcFleetSystem(2));

    EXPECT_GT(r.faults.brownouts, 0u);
    EXPECT_EQ(r.faults.mcWedgesInjected, 0u);
    // Every brownout is a Healthy -> Degraded edge; most restore to
    // Healthy before the run ends (one straddling the end may not).
    EXPECT_GE(r.faults.healthTransitions, r.faults.brownouts);
    EXPECT_LE(r.faults.healthTransitions, 2 * r.faults.brownouts);
    EXPECT_EQ(r.faults.oracleViolations, 0u);
    ASSERT_EQ(r.perMc.size(), 2u);
    for (const McSummary &mc : r.perMc) {
        EXPECT_TRUE(mc.health == "healthy" || mc.health == "degraded");
        EXPECT_EQ(mc.wedges, 0u);
        EXPECT_EQ(mc.quarantines, 0u);
    }
}

// ---------------------------------------------------------------
// Campaign failure capture (invariant violations)
// ---------------------------------------------------------------

TEST(CampaignFaultTest, InvariantViolationCarriesComponentAndTick)
{
    CampaignSpec spec;
    spec.apps = {"doomed"};
    spec.modes = {DedupMode::None};
    spec.jobs = 1;
    spec.runner = [](const CampaignCell &) -> ExperimentResult {
        panicAt("test-widget", 777, "forced violation %d", 42);
    };

    CampaignReport report = runCampaign(spec);
    ASSERT_EQ(report.cells.size(), 1u);
    EXPECT_EQ(report.failures(), 1u);
    const CellOutcome &outcome = report.cells[0];
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.failComponent, "test-widget");
    EXPECT_EQ(outcome.failTick, 777u);
    EXPECT_NE(outcome.error.find("forced violation 42"),
              std::string::npos);
}

} // namespace
} // namespace pageforge
