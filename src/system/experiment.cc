#include "system/experiment.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "fault/fault_injector.hh"
#include "fault/merge_oracle.hh"
#include "shard/cross_mc_router.hh"
#include "shard/shard_map.hh"
#include "sim/logging.hh"

namespace pageforge
{

Tick
ExperimentConfig::measureWindow(const AppProfile &app,
                                unsigned num_vms) const
{
    double total_qps = app.qps * num_vms;
    double secs = static_cast<double>(targetQueries) / total_qps;
    Tick window = static_cast<Tick>(secs * ticksPerSec);
    return std::clamp(window, minMeasure, maxMeasure);
}

void
ExperimentConfig::validate(const AppProfile &app) const
{
    if (app.name.empty())
        throw ConfigError("application profile has an empty name");
    if (app.footprintPages == 0)
        throw ConfigError("app '" + app.name +
                          "' has a zero-page footprint");
    if (!(app.qps > 0.0))
        throw ConfigError("app '" + app.name +
                          "' must have positive QPS");
    if (!std::isfinite(memScale) || memScale <= 0.0)
        throw ConfigError("memScale must be positive and finite");
    if (targetQueries == 0)
        throw ConfigError("targetQueries must be at least 1");
    if (minMeasure > maxMeasure)
        throw ConfigError("minMeasure exceeds maxMeasure");
    std::string churn_problem = churn.problem();
    if (!churn_problem.empty())
        throw ConfigError(churn_problem);
    std::string lifecycle_problem = lifecycle.problem();
    if (!lifecycle_problem.empty())
        throw ConfigError(lifecycle_problem);
    std::string fault_problem = faults.problem();
    if (!fault_problem.empty())
        throw ConfigError(fault_problem);
}

ExperimentResult
runExperiment(const AppProfile &app, DedupMode mode,
              const ExperimentConfig &cfg,
              const SystemConfig &sys_template)
{
    cfg.validate(app);

    auto host_start = std::chrono::steady_clock::now();

    SystemConfig sys_cfg = sys_template;
    sys_cfg.mode = mode;
    sys_cfg.memScale = cfg.memScale;
    sys_cfg.seed = cfg.seed;
    sys_cfg.churn = cfg.churn;
    sys_cfg.lifecycle = cfg.lifecycle;
    sys_cfg.traceSink = cfg.traceSink;
    sys_cfg.metricsInterval = cfg.metricsInterval;
    sys_cfg.faults = cfg.faults;
    sys_cfg.auditInterval = cfg.auditInterval;

    // Keep the footprint-to-cache ratio in the paper's regime (see
    // ExperimentConfig::scaleCaches). Only applied to untouched
    // Table 2 defaults so custom cache setups stay as given.
    SystemConfig defaults;
    if (cfg.scaleCaches && cfg.memScale < 1.0 &&
        sys_cfg.l3.sizeBytes == defaults.l3.sizeBytes &&
        sys_cfg.l2.sizeBytes == defaults.l2.sizeBytes) {
        auto scaled = [](std::uint32_t base, double factor,
                         std::uint32_t floor_bytes) {
            auto bytes = static_cast<std::uint32_t>(base * factor);
            return std::max(bytes, floor_bytes);
        };
        sys_cfg.l2.sizeBytes =
            scaled(defaults.l2.sizeBytes, cfg.memScale * 2.0, 64 * 1024);
        sys_cfg.l3.sizeBytes = scaled(defaults.l3.sizeBytes,
                                      cfg.memScale / 2.0, 1024 * 1024);
    }

    System system(sys_cfg, app);
    system.deploy();
    DupAnalysis dup_before = system.hypervisor().analyzeDuplication();

    // ---- steady-state warm-up ----
    if (mode != DedupMode::None)
        system.warmupDedup(cfg.warmupPasses);
    DupAnalysis dup_warm = system.hypervisor().analyzeDuplication();

    system.startLoad();
    system.run(cfg.settleTime);

    // ---- measurement window ----
    system.resetMeasurement();
    std::uint64_t merges_before = system.hypervisor().merges();
    std::uint64_t cow_before = system.hypervisor().cowBreaks();

    Tick window = cfg.measureWindow(system.profile(), sys_cfg.numVms);
    Tick window_start = system.eventq().curTick();

    // ---- collect ----
    ExperimentResult result;
    result.app = app.name;
    result.mode = mode;

    if (system.lifecycle()) {
        // Under churn, memory state moves during the window; sample a
        // few cheap snapshots so results show the trajectory, not just
        // the endpoint.
        constexpr unsigned slices = 8;
        for (unsigned s = 0; s < slices; ++s) {
            system.run(window / slices);
            result.phases.push_back(PhaseSnapshot{
                system.eventq().curTick(),
                system.memory().framesInUse(),
                system.hypervisor().mappedPageCount(),
                sys_cfg.numVms + system.lifecycle()->liveDynamicVms()});
        }
        system.run(window - (window / slices) * slices);
    } else {
        system.run(window);
    }
    Tick window_end = system.eventq().curTick();

    LatencyStats &lat = system.latency();
    result.meanSojournMs = ticksToMs(
        static_cast<Tick>(lat.geoMeanOfMeans()));
    result.p95SojournMs = ticksToMs(
        static_cast<Tick>(lat.geoMeanOfP95s()));
    result.queries = lat.queries();

    result.dup = system.hypervisor().analyzeDuplication();
    result.dupBefore = dup_before;
    result.dupWarm = dup_warm;
    result.l3MissRate = system.hierarchy().l3MissRate();
    std::uint64_t app_acc = system.hierarchy().l3Accesses(Requester::App);
    std::uint64_t app_miss = system.hierarchy().l3Misses(Requester::App);
    result.l3AppMissRate = app_acc
        ? static_cast<double>(app_miss) / static_cast<double>(app_acc)
        : 0.0;

    Tick window_ticks = window_end - window_start;
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

    // Mean bandwidth sums across channels; the dedup-phase peak is
    // the busiest single channel. At numMcs == 1 both reduce to the
    // classic single-controller numbers, bit for bit.
    for (unsigned m = 0; m < system.numMcs(); ++m) {
        const BandwidthTracker &bw =
            system.memController(m).dram().bandwidth();
        result.baselinePhaseBwGBps +=
            bw.meanGBps(window_start, window_end);
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

    result.merges = system.hypervisor().merges() - merges_before;
    result.cowBreaks = system.hypervisor().cowBreaks() - cow_before;

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
                const Histogram &lat = router->latencyTo(m);
                mc.handoffLatCount = lat.count();
                if (lat.count()) {
                    mc.handoffLatMeanTicks = lat.mean();
                    mc.handoffLatMinTicks = lat.minSample();
                    mc.handoffLatMaxTicks = lat.maxSample();
                    mc.handoffLatP50Ticks = lat.quantile(0.50);
                    mc.handoffLatP95Ticks = lat.quantile(0.95);
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

    // Capture the final partial metrics epoch before reading the
    // series: without this, a run shorter than the sampling interval
    // (or any window tail) records nothing past the last whole epoch.
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
    result.hostSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      host_start)
            .count();
    return result;
}

} // namespace pageforge
