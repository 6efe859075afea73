/**
 * @file
 * Tests for the VM lifecycle subsystem: clone/boot/shutdown/balloon
 * transitions, safe frame reclamation through the destroy-listener
 * chain (daemon trees and Scan Table batches must drop dead-VM
 * entries), and deterministic churn at system level.
 */

#include "sim_fixture.hh"

#include "core/pageforge_driver.hh"
#include "ksm/ksmd.hh"
#include "lifecycle/vm_lifecycle.hh"
#include "system/experiment.hh"
#include "system/system.hh"

namespace pageforge
{
namespace
{

// ---------------------------------------------------------------------
// Hypervisor-level clone / destroy semantics.
// ---------------------------------------------------------------------

class LifecycleHyperTest : public SmallMachine
{
};

TEST_F(LifecycleHyperTest, CloneSharesEveryFrameCopyOnWrite)
{
    VmId src = makeVm(8);
    for (GuestPageNum gpn = 0; gpn < 8; ++gpn)
        fillSeeded(src, gpn, 1000 + gpn);
    std::size_t before = mem.framesInUse();

    VmId clone = hyper.cloneVm("clone", src);
    EXPECT_EQ(mem.framesInUse(), before); // no copies yet
    for (GuestPageNum gpn = 0; gpn < 8; ++gpn) {
        EXPECT_EQ(hyper.frameOf(clone, gpn), hyper.frameOf(src, gpn));
        EXPECT_EQ(mem.refCount(hyper.frameOf(src, gpn)), 2u);
    }

    // A write to the clone breaks CoW without touching the source.
    FrameId shared = hyper.frameOf(clone, 3);
    fillPage(clone, 3, 0xAB);
    EXPECT_NE(hyper.frameOf(clone, 3), shared);
    EXPECT_EQ(hyper.frameOf(src, 3), shared);
    EXPECT_EQ(mem.framesInUse(), before + 1);
}

TEST_F(LifecycleHyperTest, DestroyReclaimsSharedAndPrivateFrames)
{
    VmId src = makeVm(6);
    for (GuestPageNum gpn = 0; gpn < 6; ++gpn)
        fillSeeded(src, gpn, 50 + gpn);
    std::size_t before = mem.framesInUse();

    VmId clone = hyper.cloneVm("clone", src);
    fillPage(clone, 0, 0xCD); // one private frame
    ReclaimOutcome out = hyper.destroyVm(clone);

    EXPECT_EQ(out.pagesUnmapped, 6u);
    EXPECT_EQ(out.framesFreed, 1u);      // the CoW copy
    EXPECT_EQ(out.sharedUnshared, 5u);   // still-shared template pages
    EXPECT_EQ(mem.framesInUse(), before);
    EXPECT_FALSE(hyper.vmAlive(clone));
    EXPECT_TRUE(hyper.vmAlive(src));

    FrameAuditReport audit = hyper.auditFrames();
    EXPECT_TRUE(audit.ok) << audit.problem;
}

TEST_F(LifecycleHyperTest, MappedPageCountIgnoresDeadVms)
{
    VmId a = makeVm(4);
    VmId b = makeVm(3);
    EXPECT_EQ(hyper.mappedPageCount(), 7u);
    hyper.destroyVm(b);
    EXPECT_EQ(hyper.mappedPageCount(), 4u);
    EXPECT_EQ(hyper.vmDestroys(), 1u);
    (void)a;
}

// ---------------------------------------------------------------------
// Daemon invalidation: dead-VM entries must leave the content trees
// and the frames they pinned must come back.
// ---------------------------------------------------------------------

class LifecycleKsmdTest : public SmallMachine
{
  protected:
    LifecycleKsmdTest()
        : sched("sched", eq, numCores, KsmPlacement::RoundRobin, 0.0,
                Rng(1)),
          ksmd("ksmd", eq, hyper, hier, corePtrs(), sched, KsmConfig{})
    {
    }

    KsmScheduler sched;
    Ksmd ksmd;
};

TEST_F(LifecycleKsmdTest, CloneMergeTeardownLeaksNothing)
{
    VmId src = makeVm(8);
    for (GuestPageNum gpn = 0; gpn < 8; ++gpn)
        fillSeeded(src, gpn, 7 + gpn);
    std::size_t baseline = mem.framesInUse();

    VmId clone = hyper.cloneVm("clone", src);
    hyper.markMergeable(clone, 0, 8);
    // Break CoW everywhere by rewriting identical bytes into the
    // clone, then let ksmd re-merge the twins.
    for (GuestPageNum gpn = 0; gpn < 8; ++gpn)
        fillSeeded(clone, gpn, 7 + gpn);
    EXPECT_EQ(mem.framesInUse(), baseline + 8);
    for (int pass = 0; pass < 4; ++pass)
        ksmd.runOnePassNow();
    EXPECT_GE(hyper.merges(), 8u);
    EXPECT_EQ(mem.framesInUse(), baseline);
    EXPECT_GT(ksmd.stableTree().size(), 0u);

    // Teardown: every clone mapping goes away, stable-tree entries
    // whose frames the clone shared stay valid via the surviving
    // source mappings; no frame and no tree node dangles.
    hyper.destroyVm(clone);
    EXPECT_EQ(mem.framesInUse(), baseline);
    ksmd.stableTree().forEach([&](PageHandle handle) {
        ASSERT_FALSE(isGuestHandle(handle));
        ASSERT_TRUE(mem.isAllocated(handleFrame(handle)));
    });
    ksmd.unstableTree().forEach([&](PageHandle handle) {
        if (isGuestHandle(handle)) {
            ASSERT_NE(handleGuest(handle).vm, clone);
        }
    });
    FrameAuditReport audit = hyper.auditFrames();
    EXPECT_TRUE(audit.ok) << audit.problem;
}

TEST_F(LifecycleKsmdTest, DestroyingAllVmsEmptiesTheStableTree)
{
    VmId a = makeVm(6);
    VmId b = makeVm(6);
    for (GuestPageNum gpn = 0; gpn < 6; ++gpn) {
        fillSeeded(a, gpn, 90 + gpn);
        fillSeeded(b, gpn, 90 + gpn);
    }
    for (int pass = 0; pass < 4; ++pass)
        ksmd.runOnePassNow();
    EXPECT_GT(ksmd.stableTree().size(), 0u);

    hyper.destroyVm(a);
    hyper.destroyVm(b);
    // With no guest mappings left every stable node was tree-only and
    // must have been pruned, releasing its pin.
    EXPECT_EQ(ksmd.stableTree().size(), 0u);
    EXPECT_EQ(mem.framesInUse(), 0u);
    FrameAuditReport audit = hyper.auditFrames();
    EXPECT_TRUE(audit.ok) << audit.problem;
}

class LifecycleDriverTest : public SmallMachine
{
  protected:
    LifecycleDriverTest()
        : module("pf", eq, mc, hier, PageForgeConfig{}), api(module),
          driver("pfd", eq, hyper, {&api}, shards, router, corePtrs(),
                 PageForgeDriverConfig{})
    {
    }

    PageForgeModule module;
    PageForgeApi api;
    PageForgeDriver driver;
};

TEST_F(LifecycleDriverTest, SynchronousPurgeDropsDeadVmEntries)
{
    VmId a = makeVm(6);
    VmId b = makeVm(6);
    for (GuestPageNum gpn = 0; gpn < 6; ++gpn) {
        fillSeeded(a, gpn, 400 + gpn);
        fillSeeded(b, gpn, 400 + gpn);
    }
    for (int pass = 0; pass < 4; ++pass)
        driver.runOnePassNow();
    EXPECT_GT(driver.stableTree(0).size(), 0u);
    std::size_t merged = mem.framesInUse();

    hyper.destroyVm(b);
    EXPECT_LE(mem.framesInUse(), merged);
    driver.stableTree(0).forEach([&](PageHandle handle) {
        ASSERT_TRUE(mem.isAllocated(handleFrame(handle)));
    });
    driver.unstableTree(0).forEach([&](PageHandle handle) {
        if (isGuestHandle(handle)) {
            ASSERT_NE(handleGuest(handle).vm, b);
        }
    });
    FrameAuditReport audit = hyper.auditFrames();
    EXPECT_TRUE(audit.ok) << audit.problem;
}

TEST_F(LifecycleDriverTest, MidFlightDestroyAbortsTheBatchSafely)
{
    VmId a = makeVm(8);
    VmId b = makeVm(8);
    for (GuestPageNum gpn = 0; gpn < 8; ++gpn) {
        fillSeeded(a, gpn, 800 + gpn);
        fillSeeded(b, gpn, 800 + gpn);
    }
    // Seed the trees so the event-mode scan has batches in flight.
    driver.runOnePassNow();
    driver.start();

    // Destroy VM b while the async state machine is mid-candidate;
    // the driver must defer the purge and flush the poisoned batch
    // instead of letting the hardware chase freed tree nodes.
    eq.scheduleIn(usToTicks(40), [&] { hyper.destroyVm(b); });
    eq.runUntil(eq.curTick() + msToTicks(5));

    EXPECT_FALSE(hyper.vmAlive(b));
    driver.unstableTree(0).forEach([&](PageHandle handle) {
        if (isGuestHandle(handle)) {
            ASSERT_NE(handleGuest(handle).vm, b);
        }
    });
    driver.stableTree(0).forEach([&](PageHandle handle) {
        ASSERT_TRUE(mem.isAllocated(handleFrame(handle)));
    });
    // Source VM keeps serving merges afterwards.
    EXPECT_TRUE(hyper.vmAlive(a));
    FrameAuditReport audit = hyper.auditFrames();
    EXPECT_TRUE(audit.ok) << audit.problem;
}

// ---------------------------------------------------------------------
// LifecycleManager state machine (stub host, no query load).
// ---------------------------------------------------------------------

class StubHost : public VmHost
{
  public:
    TailBenchApp *
    attachApp(const VmLayout &, const AppProfile &) override
    {
        ++attached;
        return nullptr;
    }

    void
    detachApp(VmId) override
    {
        ++detached;
    }

    unsigned attached = 0;
    unsigned detached = 0;
};

class LifecycleManagerTest : public SmallMachine
{
  protected:
    LifecycleManagerTest() : content(hyper, 99)
    {
        profile.name = "tiny";
        profile.footprintPages = 32;
        profile.workingSetPages = 16;
        profile.qps = 1000.0;
    }

    LifecycleManager
    makeManager(ChurnConfig churn, LifecycleConfig config = {})
    {
        return LifecycleManager("lifecycle", eq, hyper, content, host,
                                profile, churn, config, Rng(5));
    }

    ContentGenerator content;
    StubHost host;
    AppProfile profile;
};

TEST_F(LifecycleManagerTest, CloneBootShutdownWalkTheStateMachine)
{
    ChurnConfig churn;
    churn.kind = ChurnKind::Burst;
    LifecycleConfig config;

    LifecycleManager mgr = makeManager(churn, config);
    mgr.setTemplate(content.deployVm(profile, 0));
    std::size_t baseline = mem.framesInUse();

    VmId clone = mgr.cloneInstance();
    EXPECT_EQ(mgr.state(clone), VmState::Cloning);
    EXPECT_EQ(mem.framesInUse(), baseline); // clone shares everything

    VmId boot = mgr.bootInstance();
    EXPECT_EQ(mgr.state(boot), VmState::Cloning);
    EXPECT_GT(mem.framesInUse(), baseline); // fresh image owns frames

    eq.runUntil(eq.curTick() + config.bootLatency + 1);
    EXPECT_EQ(mgr.state(clone), VmState::Running);
    EXPECT_EQ(mgr.state(boot), VmState::Running);
    EXPECT_EQ(host.attached, 2u);
    EXPECT_EQ(mgr.liveDynamicVms(), 2u);

    mgr.shutdownInstance(clone);
    mgr.shutdownInstance(boot);
    EXPECT_EQ(mgr.state(clone), VmState::Draining);
    EXPECT_EQ(host.detached, 2u);

    eq.runUntil(eq.curTick() + config.drainDelay + 1);
    EXPECT_EQ(mgr.state(clone), VmState::Dead);
    EXPECT_EQ(mgr.state(boot), VmState::Dead);
    EXPECT_EQ(mgr.liveDynamicVms(), 0u);
    EXPECT_EQ(mem.framesInUse(), baseline); // zero leaked frames
    EXPECT_EQ(mgr.stats().clones, 1u);
    EXPECT_EQ(mgr.stats().boots, 1u);
    EXPECT_EQ(mgr.stats().shutdowns, 2u);

    FrameAuditReport audit = hyper.auditFrames();
    EXPECT_TRUE(audit.ok) << audit.problem;
}

TEST_F(LifecycleManagerTest, BalloonShrinksAndRegrowsResidentPages)
{
    ChurnConfig churn;
    churn.kind = ChurnKind::Poisson;
    churn.balloonFraction = 0.5;

    LifecycleManager mgr = makeManager(churn);
    mgr.setTemplate(content.deployVm(profile, 0));

    VmId vm = mgr.bootInstance();
    LifecycleConfig config;
    eq.runUntil(eq.curTick() + config.bootLatency + 1);
    ASSERT_EQ(mgr.state(vm), VmState::Running);
    std::size_t resident = hyper.mappedPageCount();

    mgr.balloonInstance(vm);
    EXPECT_EQ(mgr.state(vm), VmState::Ballooning);
    EXPECT_LT(hyper.mappedPageCount(), resident);
    EXPECT_EQ(mgr.stats().balloonShrinks, 1u);

    mgr.balloonInstance(vm);
    EXPECT_EQ(mgr.state(vm), VmState::Running);
    EXPECT_EQ(hyper.mappedPageCount(), resident);
    EXPECT_EQ(mgr.stats().balloonGrows, 1u);

    FrameAuditReport audit = hyper.auditFrames();
    EXPECT_TRUE(audit.ok) << audit.problem;
}

TEST_F(LifecycleManagerTest, ArrivalsAreCappedAtMaxDynamicVms)
{
    ChurnConfig churn;
    churn.kind = ChurnKind::Poisson;
    churn.maxDynamicVms = 2;
    churn.cloneFraction = 1.0;

    LifecycleManager mgr = makeManager(churn);
    mgr.setTemplate(content.deployVm(profile, 0));

    VmId first = mgr.admitInstance();
    VmId second = mgr.admitInstance();
    EXPECT_LT(first, hyper.numVms());
    EXPECT_LT(second, hyper.numVms());

    VmId rejected = mgr.admitInstance();
    EXPECT_GE(rejected, hyper.numVms());
    EXPECT_EQ(mgr.stats().skippedArrivals, 1u);
    EXPECT_EQ(mgr.liveDynamicVms(), 2u);
}

// ---------------------------------------------------------------------
// Full system under churn: smoke + determinism.
// ---------------------------------------------------------------------

SystemConfig
churnSystemConfig(DedupMode mode)
{
    SystemConfig config;
    config.mode = mode;
    config.numCores = 4;
    config.numVms = 4;
    config.memScale = 0.05;
    config.churn.kind = ChurnKind::Burst;
    config.churn.burstSize = 2;
    config.churn.burstInterval = msToTicks(8);
    config.churn.meanLifetime = msToTicks(10);
    config.churn.maxDynamicVms = 4;
    return config;
}

TEST(LifecycleSystemTest, BurstChurnRunsCleanUnderInvariantChecks)
{
    SystemConfig config = churnSystemConfig(DedupMode::PageForge);
    System system(config, appByName("img_dnn"));
    system.hypervisor().setInvariantChecking(true);
    system.deploy();
    system.warmupDedup(4);
    system.startLoad();
    system.run(msToTicks(60));

    ASSERT_NE(system.lifecycle(), nullptr);
    const LifecycleStats &stats = system.lifecycle()->stats();
    EXPECT_GT(stats.clones + stats.boots, 0u);
    EXPECT_GT(stats.shutdowns, 0u);

    FrameAuditReport audit = system.hypervisor().auditFrames();
    EXPECT_TRUE(audit.ok) << audit.problem;
}

TEST(LifecycleSystemTest, ChurnRunsAreDeterministic)
{
    auto run = [] {
        SystemConfig config = churnSystemConfig(DedupMode::Ksm);
        System system(config, appByName("silo"));
        system.deploy();
        system.warmupDedup(4);
        system.startLoad();
        system.run(msToTicks(50));
        const LifecycleStats &stats = system.lifecycle()->stats();
        return std::tuple(stats.clones, stats.boots, stats.shutdowns,
                          stats.pagesReclaimed, stats.framesFreed,
                          system.hypervisor().merges(),
                          system.hypervisor().cowBreaks(),
                          system.memory().framesInUse(),
                          system.latency().aggregate().count());
    };
    EXPECT_EQ(run(), run());
}

TEST(LifecycleSystemTest, ExperimentReportsLifecycleSummary)
{
    ExperimentConfig cfg;
    cfg.memScale = 0.05;
    cfg.targetQueries = 200;
    cfg.minMeasure = msToTicks(40);
    cfg.maxMeasure = msToTicks(80);
    cfg.settleTime = msToTicks(5);
    cfg.churn.kind = ChurnKind::Rotate;
    cfg.churn.rotateInterval = msToTicks(6);
    cfg.churn.maxDynamicVms = 3;

    SystemConfig sys_template;
    sys_template.numCores = 4;
    sys_template.numVms = 4;
    ExperimentResult result = runExperiment(
        appByName("silo"), DedupMode::PageForge, cfg, sys_template);

    EXPECT_TRUE(result.lifecycle.enabled);
    EXPECT_GT(result.lifecycle.clones + result.lifecycle.boots, 0u);
    EXPECT_EQ(result.phases.size(), 8u);
    for (const PhaseSnapshot &snap : result.phases) {
        EXPECT_GT(snap.framesUsed, 0u);
        EXPECT_GE(snap.liveVms, 4u);
    }
}

// ---------------------------------------------------------------------
// Config validation (satellite: reject nonsensical values).
// ---------------------------------------------------------------------

TEST(ConfigValidationTest, AcceptsDefaults)
{
    SystemConfig config;
    EXPECT_NO_THROW(config.validate());
}

TEST(ConfigValidationTest, RejectsZeroVms)
{
    SystemConfig config;
    config.numVms = 0;
    EXPECT_THROW(config.validate(), ConfigError);
}

TEST(ConfigValidationTest, RejectsZeroCores)
{
    SystemConfig config;
    config.numCores = 0;
    EXPECT_THROW(config.validate(), ConfigError);
}

TEST(ConfigValidationTest, CapsCoresAtTheResidencyByte)
{
    // A line's cache-residency byte counts 2 per L2 holder plus 1 for
    // the L3: 127 cores top out at 255, 128 would wrap.
    SystemConfig config;
    config.numCores = 127;
    EXPECT_NO_THROW(config.validate());
    config.numCores = 128;
    try {
        config.validate();
        ADD_FAILURE() << "128 cores accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("127"), std::string::npos)
            << e.what();
    }
}

TEST(ConfigValidationTest, RejectsMoreVmsThanCores)
{
    SystemConfig config;
    config.numVms = config.numCores + 1;
    EXPECT_THROW(config.validate(), ConfigError);
}

TEST(ConfigValidationTest, RejectsNonPositiveMemScale)
{
    SystemConfig config;
    config.memScale = 0.0;
    EXPECT_THROW(config.validate(), ConfigError);
    config.memScale = -1.5;
    EXPECT_THROW(config.validate(), ConfigError);
}

TEST(ConfigValidationTest, RejectsBadChurnValues)
{
    SystemConfig config;
    config.churn.kind = ChurnKind::Poisson;
    config.churn.arrivalsPerSec = -3.0;
    EXPECT_THROW(config.validate(), ConfigError);

    config.churn.arrivalsPerSec = 20.0;
    config.churn.maxDynamicVms = 0;
    EXPECT_THROW(config.validate(), ConfigError);

    config.churn.maxDynamicVms = 4;
    config.churn.balloonsPerSec = 1.0;
    config.churn.balloonFraction = 1.5;
    EXPECT_THROW(config.validate(), ConfigError);
}

TEST(ConfigValidationTest, IgnoresChurnKnobsWhenDisabled)
{
    // kind == None: churn values are inert and must not reject.
    SystemConfig config;
    config.churn.kind = ChurnKind::None;
    config.churn.arrivalsPerSec = -1.0;
    EXPECT_NO_THROW(config.validate());
}

TEST(ConfigValidationTest, RejectsBadLifecycleValues)
{
    SystemConfig config;
    config.lifecycle.recoveryThreshold = 0.0;
    EXPECT_THROW(config.validate(), ConfigError);
    config.lifecycle.recoveryThreshold = 0.9;
    config.lifecycle.recoveryPollInterval = 0;
    EXPECT_THROW(config.validate(), ConfigError);
}

TEST(ConfigValidationTest, ExperimentRejectsEmptyAppName)
{
    ExperimentConfig cfg;
    AppProfile app;
    app.name = "";
    EXPECT_THROW(cfg.validate(app), ConfigError);
}

TEST(ConfigValidationTest, ExperimentRejectsZeroFootprint)
{
    ExperimentConfig cfg;
    AppProfile app;
    app.name = "x";
    app.footprintPages = 0;
    EXPECT_THROW(cfg.validate(app), ConfigError);
}

TEST(ConfigValidationTest, ExperimentRejectsBadWindowBounds)
{
    ExperimentConfig cfg;
    cfg.minMeasure = msToTicks(100);
    cfg.maxMeasure = msToTicks(10);
    AppProfile app;
    app.name = "x";
    EXPECT_THROW(cfg.validate(app), ConfigError);
}

TEST(ConfigValidationTest, ErrorMessagesNameTheKnob)
{
    SystemConfig config;
    config.numVms = 0;
    try {
        config.validate();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &err) {
        EXPECT_NE(std::string(err.what()).find("numVms"),
                  std::string::npos);
    }
}

} // namespace
} // namespace pageforge
