#include "cell_driver.hh"

#include <algorithm>

#include "fault/fault_injector.hh"
#include "fault/merge_oracle.hh"
#include "prof/profiler.hh"
#include "shard/cross_mc_router.hh"
#include "shard/shard_map.hh"

namespace hostbench
{

LayerCounters
LayerCounters::read(System &sys)
{
    LayerCounters c;
    Hierarchy &h = sys.hierarchy();
    for (unsigned core = 0; core < h.numCores(); ++core) {
        c.l1Hits += h.l1(core).hits();
        c.l1Misses += h.l1(core).misses();
        c.l2Hits += h.l2(core).hits();
        c.l2Misses += h.l2(core).misses();
    }
    c.l3Hits = h.l3().hits();
    c.l3Misses = h.l3().misses();
    c.l3AppAccesses = h.l3Accesses(Requester::App);
    c.l3AppMisses = h.l3Misses(Requester::App);

    for (unsigned m = 0; m < sys.numMcs(); ++m) {
        MemController &mc = sys.memController(m);
        c.dramReads += mc.dram().reads();
        c.dramWrites += mc.dram().writes();
        c.rowHits += mc.dram().rowHits();
        c.rowMisses += mc.dram().rowMisses();
        c.coalescedReads += mc.coalescedReads();
        c.eccEncodes += mc.eccEncodes();
        if (PageForgeModule *module = sys.pfModule(m)) {
            c.pfBatches += module->batchesProcessed();
            c.pfComparisons += module->comparisons();
            c.pfDuplicates += module->duplicatesFound();
            c.pfLinesFetched += module->linesFetched();
            c.pfSnoopHits += module->snoopHits();
        }
    }
    c.softFaults = sys.hypervisor().softFaults();
    if (Ksmd *ksmd = sys.ksmd()) {
        c.ksmPagesScanned = ksmd->mergeStats().pagesScanned;
        c.ksmMerges = ksmd->mergeStats().merges();
    }
    if (PageForgeDriver *driver = sys.pfDriver())
        c.pfPagesScanned = driver->mergeStats().pagesScanned;
    if (CrossMcRouter *router = sys.crossMcRouter())
        c.handoffs = router->totalHandoffs();
    return c;
}

void
LayerCounters::subtractCumulative(const LayerCounters &start)
{
    dramReads -= start.dramReads;
    dramWrites -= start.dramWrites;
    rowHits -= start.rowHits;
    rowMisses -= start.rowMisses;
    coalescedReads -= start.coalescedReads;
    eccEncodes -= start.eccEncodes;
    softFaults -= start.softFaults;
    handoffs -= start.handoffs;
}

LayerCounters &
LayerCounters::operator+=(const LayerCounters &o)
{
    l1Hits += o.l1Hits;
    l1Misses += o.l1Misses;
    l2Hits += o.l2Hits;
    l2Misses += o.l2Misses;
    l3Hits += o.l3Hits;
    l3Misses += o.l3Misses;
    l3AppAccesses += o.l3AppAccesses;
    l3AppMisses += o.l3AppMisses;
    dramReads += o.dramReads;
    dramWrites += o.dramWrites;
    rowHits += o.rowHits;
    rowMisses += o.rowMisses;
    coalescedReads += o.coalescedReads;
    eccEncodes += o.eccEncodes;
    softFaults += o.softFaults;
    ksmPagesScanned += o.ksmPagesScanned;
    ksmMerges += o.ksmMerges;
    pfPagesScanned += o.pfPagesScanned;
    pfBatches += o.pfBatches;
    pfComparisons += o.pfComparisons;
    pfDuplicates += o.pfDuplicates;
    pfLinesFetched += o.pfLinesFetched;
    pfSnoopHits += o.pfSnoopHits;
    handoffs += o.handoffs;
    return *this;
}

// The steps below follow runExperiment() (src/system/experiment.cc)
// call for call; any change there must be mirrored here, and the
// equivalence test fails until it is.

CellDriver::CellDriver(const AppProfile &app, DedupMode mode,
                       const ExperimentConfig &cfg,
                       const SystemConfig &sys_template)
    : _app(app), _mode(mode), _cfg(cfg), _sysCfg(sys_template)
{
    _cfg.validate(app);

    _sysCfg.mode = mode;
    _sysCfg.memScale = cfg.memScale;
    _sysCfg.seed = cfg.seed;
    _sysCfg.churn = cfg.churn;
    _sysCfg.lifecycle = cfg.lifecycle;
    _sysCfg.traceSink = cfg.traceSink;
    _sysCfg.metricsInterval = cfg.metricsInterval;
    _sysCfg.faults = cfg.faults;
    _sysCfg.auditInterval = cfg.auditInterval;

    SystemConfig defaults;
    if (cfg.scaleCaches && cfg.memScale < 1.0 &&
        _sysCfg.l3.sizeBytes == defaults.l3.sizeBytes &&
        _sysCfg.l2.sizeBytes == defaults.l2.sizeBytes) {
        auto scaled = [](std::uint32_t base, double factor,
                         std::uint32_t floor_bytes) {
            auto bytes = static_cast<std::uint32_t>(base * factor);
            return std::max(bytes, floor_bytes);
        };
        _sysCfg.l2.sizeBytes =
            scaled(defaults.l2.sizeBytes, cfg.memScale * 2.0, 64 * 1024);
        _sysCfg.l3.sizeBytes = scaled(defaults.l3.sizeBytes,
                                      cfg.memScale / 2.0, 1024 * 1024);
    }

    _system = std::make_unique<System>(_sysCfg, app);
}

void
CellDriver::deploy()
{
    _system->deploy();
    _dupBefore = _system->hypervisor().analyzeDuplication();
}

unsigned
CellDriver::warmup()
{
    unsigned passes = 0;
    if (_mode != DedupMode::None)
        passes = _system->warmupDedup(_cfg.warmupPasses);
    _dupWarm = _system->hypervisor().analyzeDuplication();
    return passes;
}

void
CellDriver::settle()
{
    _system->startLoad();
    _system->run(_cfg.settleTime);
}

void
CellDriver::window()
{
    System &system = *_system;
    system.resetMeasurement();
    _mergesBefore = system.hypervisor().merges();
    _cowBefore = system.hypervisor().cowBreaks();
    _atWindowStart = LayerCounters::read(system);

    Tick window = _cfg.measureWindow(system.profile(), _sysCfg.numVms);
    _windowStart = system.eventq().curTick();

    if (system.lifecycle()) {
        constexpr unsigned slices = 8;
        for (unsigned s = 0; s < slices; ++s) {
            system.run(window / slices);
            _phases.push_back(PhaseSnapshot{
                system.eventq().curTick(),
                system.memory().framesInUse(),
                system.hypervisor().mappedPageCount(),
                _sysCfg.numVms + system.lifecycle()->liveDynamicVms()});
        }
        system.run(window - (window / slices) * slices);
    } else {
        system.run(window);
    }
    _windowEnd = system.eventq().curTick();
}

ExperimentResult
CellDriver::collect()
{
    System &system = *_system;
    const DedupMode mode = _mode;

    ExperimentResult result;
    result.app = _app.name;
    result.mode = mode;
    result.phases = _phases;

    LatencyStats &lat = system.latency();
    result.meanSojournMs = ticksToMs(
        static_cast<Tick>(lat.geoMeanOfMeans()));
    result.p95SojournMs = ticksToMs(
        static_cast<Tick>(lat.geoMeanOfP95s()));
    result.queries = lat.queries();

    result.dup = system.hypervisor().analyzeDuplication();
    result.dupBefore = _dupBefore;
    result.dupWarm = _dupWarm;
    result.l3MissRate = system.hierarchy().l3MissRate();
    std::uint64_t app_acc = system.hierarchy().l3Accesses(Requester::App);
    std::uint64_t app_miss = system.hierarchy().l3Misses(Requester::App);
    result.l3AppMissRate = app_acc
        ? static_cast<double>(app_miss) / static_cast<double>(app_acc)
        : 0.0;

    Tick window_ticks = _windowEnd - _windowStart;
    if (mode == DedupMode::Ksm && window_ticks > 0) {
        double sum = 0.0;
        double max_frac = 0.0;
        for (unsigned c = 0; c < system.numCores(); ++c) {
            double frac =
                static_cast<double>(
                    system.core(c).busyTicks(Requester::Ksm)) /
                static_cast<double>(window_ticks);
            sum += frac;
            max_frac = std::max(max_frac, frac);
        }
        result.ksmCycleFracAvg = sum / system.numCores();
        result.ksmCycleFracMax = max_frac;

        const DaemonCycleStats &cycles = system.ksmd()->cycleStats();
        result.ksmCompareFrac = cycles.fraction(cycles.compareCycles);
        result.ksmHashFrac = cycles.fraction(cycles.hashCycles);
    }

    result.hashStats = system.hashStats();

    for (unsigned m = 0; m < system.numMcs(); ++m) {
        const BandwidthTracker &bw =
            system.memController(m).dram().bandwidth();
        result.baselinePhaseBwGBps +=
            bw.meanGBps(_windowStart, _windowEnd);
        double peak = 0.0;
        switch (mode) {
          case DedupMode::None:
            peak = bw.peakGBps();
            break;
          case DedupMode::Ksm:
            peak = bw.peakGBpsWhenActive(Requester::Ksm);
            break;
          case DedupMode::PageForge:
            peak = bw.peakGBpsWhenActive(Requester::PageForge);
            break;
        }
        result.dedupPhaseBwGBps =
            std::max(result.dedupPhaseBwGBps, peak);
    }

    if (mode == DedupMode::PageForge) {
        const Sampler &batches = system.pfModule()->tableProcessCycles();
        result.pfBatchCyclesAvg = batches.mean();
        result.pfBatchCyclesStddev = batches.stddev();
        result.pfRefills = system.pfDriver()->refills();
        result.pfOsChecks = system.pfDriver()->osChecks();
        result.pfPagesScanned =
            system.pfDriver()->mergeStats().pagesScanned;
    }

    result.merges = system.hypervisor().merges() - _mergesBefore;
    result.cowBreaks = system.hypervisor().cowBreaks() - _cowBefore;

    if (LifecycleManager *lc = system.lifecycle()) {
        const LifecycleStats &ls = lc->stats();
        result.lifecycle.enabled = true;
        result.lifecycle.clones = ls.clones;
        result.lifecycle.boots = ls.boots;
        result.lifecycle.shutdowns = ls.shutdowns;
        result.lifecycle.skippedArrivals = ls.skippedArrivals;
        result.lifecycle.framesFreed = ls.framesFreed;
        result.lifecycle.meanUnmergeStorm = ls.unmergeStorm.mean();
        result.lifecycle.meanReclaimUs = ls.reclaimLatencyUs.mean();
        result.lifecycle.meanRecoveryMs = ls.mergeRecoveryMs.mean();
        result.lifecycle.p95RecoveryMs = ls.mergeRecoveryMs.p95();
        result.lifecycle.recoveryTimeouts = ls.recoveryTimeouts;
    }

    if (FaultInjector *inj = system.faultInjector()) {
        const FaultInjectStats &fs = inj->stats();
        FaultSummary &sum = result.faults;
        sum.enabled = true;
        sum.flipEvents = fs.flipEvents;
        sum.singleBitFlips = fs.singleBitFlips;
        sum.doubleBitFlips = fs.doubleBitFlips;
        sum.stuckAtFaults = fs.stuckAtFaults;
        sum.minikeyTargeted = fs.minikeyTargeted;
        sum.tableCorruptions = fs.tableCorruptions;
        sum.raceWrites = fs.raceWrites;
        sum.skippedNoTarget = fs.skippedNoTarget;
        for (unsigned m = 0; m < system.numMcs(); ++m) {
            sum.correctedErrors +=
                system.memController(m).correctedErrors();
            sum.uncorrectableErrors +=
                system.memController(m).uncorrectableErrors();
        }
        sum.poisonedFrames = system.memory().poisonedFrames();
        sum.quarantinedFrames = system.memory().quarantinedFrames();
        if (mode == DedupMode::PageForge) {
            PageForgeDriver *driver = system.pfDriver();
            sum.falseKeyMatches = driver->falseKeyMatches();
            sum.offsetRotations = driver->offsetRotations();
            sum.mergeAborts = driver->mergeAborts();
            sum.mergeRetries = driver->mergeRetries();
            sum.hwHashRaces = driver->hwHashRaces();
        }
        if (MergeOracle *oracle = system.mergeOracle()) {
            sum.oracleChecks = oracle->checks();
            sum.crossMcChecks = oracle->crossMcChecks();
            sum.oracleViolations = oracle->violations();
        }
        sum.mcWedgesInjected = fs.mcWedges;
        sum.brownouts = fs.brownouts;
        if (CrossMcRouter *router = system.crossMcRouter()) {
            sum.handoffsLost = router->handoffsLost();
            sum.handoffsCorrupted = router->handoffsCorrupted();
            sum.handoffsSpiked = router->handoffsSpiked();
            sum.handoffRetries = router->handoffRetries();
            sum.handoffDeadLetters = router->handoffDeadLetters();
        }
        if (ModuleWatchdog *dog = system.watchdog()) {
            sum.wedgesDetected = dog->wedgesDetected();
            sum.moduleRestarts = dog->moduleRestarts();
            sum.failovers = dog->failovers();
            sum.readmissions = dog->readmissions();
        }
        if (ShardMap *shards = system.shardMap())
            sum.rehomedPrefixes = shards->rehomedPrefixes();
        if (McHealthMonitor *health = system.healthMonitor())
            sum.healthTransitions = health->totalTransitions();
    }

    result.numMcs = system.numMcs();
    if (system.numMcs() > 1) {
        CrossMcRouter *router = system.crossMcRouter();
        for (unsigned m = 0; m < system.numMcs(); ++m) {
            McSummary mc;
            if (PageForgeDriver *driver = system.pfDriver()) {
                mc.scans = driver->shardScans(m);
                mc.merges = driver->shardMerges(m);
            }
            if (router) {
                mc.handoffsIn = router->handoffsTo(m);
                mc.handoffsOut = router->handoffsFrom(m);
                const Histogram &hist = router->latencyTo(m);
                mc.handoffLatCount = hist.count();
                if (hist.count()) {
                    mc.handoffLatMeanTicks = hist.mean();
                    mc.handoffLatMinTicks = hist.minSample();
                    mc.handoffLatMaxTicks = hist.maxSample();
                    mc.handoffLatP50Ticks = hist.quantile(0.50);
                    mc.handoffLatP95Ticks = hist.quantile(0.95);
                }
            }
            if (PageForgeModule *module = system.pfModule(m))
                mc.tableOccupancy = module->table().validOthers();
            if (McHealthMonitor *health = system.healthMonitor()) {
                mc.health = mcHealthName(health->state(m));
                mc.healthTransitions = health->transitionsOf(m);
                mc.quarantines =
                    health->entries(m, McHealth::Quarantined);
                mc.readmissions = health->entries(m, McHealth::Healthy);
            }
            if (ModuleWatchdog *dog = system.watchdog())
                mc.wedges = dog->wedgesOn(m);
            result.perMc.push_back(mc);
        }
    }

    if (const LaneScheduler *sched = system.laneScheduler()) {
        const ExecTelemetry &tel = sched->telemetry();
        if (prof::enabled() && tel.quanta > 0) {
            result.exec.enabled = true;
            result.exec.quanta = tel.quanta;
            result.exec.phase1Ns = tel.phase1Ns;
            result.exec.drainNs = tel.drainNs;
            result.exec.phase2Ns = tel.phase2Ns;
            result.exec.mailboxHwm = tel.mailboxHwm;
            result.exec.phase2Efficiency = tel.phase2Efficiency();
            result.exec.lanes = tel.lanes;
            result.exec.workerBusyNs = tel.workerBusyNs;
        }
    }

    system.finishObservability();
    if (system.metrics())
        result.metrics = system.metrics()->series();

    result.simEvents = system.eventsDispatched();
    switch (mode) {
      case DedupMode::Ksm:
        result.pagesScanned = system.ksmd()->mergeStats().pagesScanned;
        break;
      case DedupMode::PageForge:
        result.pagesScanned =
            system.pfDriver()->mergeStats().pagesScanned;
        break;
      case DedupMode::None:
        break;
    }

    _counters = LayerCounters::read(system);
    _counters.subtractCumulative(_atWindowStart);
    return result;
}

} // namespace hostbench
