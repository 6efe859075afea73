/**
 * @file
 * Experiment runner: one (application, configuration) measurement,
 * following the paper's methodology (Section 5.3): deploy 10 VMs of
 * the same application, let merging reach steady state, then measure
 * a window and report sojourn latency, memory savings, hash-key
 * behaviour, bandwidth, and daemon characterization.
 */

#ifndef PF_SYSTEM_EXPERIMENT_HH
#define PF_SYSTEM_EXPERIMENT_HH

#include <string>

#include "system/system.hh"

namespace pageforge
{

/** Knobs of a measurement run. */
struct ExperimentConfig
{
    /** Memory-image scale (1.0 = profile defaults). */
    double memScale = 1.0;

    /**
     * Scale the L2/L3 capacities along with the memory image (only
     * when the system template still carries the Table 2 defaults).
     * The paper's regime has VM memory vastly exceeding the caches
     * (5 GB active vs 32 MB L3); without this, a scaled-down image
     * fits in the L3 and deduplication stops generating the DRAM
     * traffic and pollution the evaluation measures.
     */
    bool scaleCaches = true;

    /** Functional dedup passes before timing begins. */
    unsigned warmupPasses = 6;

    /** Event-mode settling time before the window. */
    Tick settleTime = msToTicks(30);

    /** Queries to aim for in the window (sets its length). */
    std::uint64_t targetQueries = 3000;

    /** Bounds on the measurement window. */
    Tick minMeasure = msToTicks(200);
    Tick maxMeasure = msToTicks(8000);

    std::uint64_t seed = 42;

    /** VM churn during the run (lifecycle subsystem); None = static. */
    ChurnConfig churn{};

    /** Lifecycle latencies and recovery measurement knobs. */
    LifecycleConfig lifecycle{};

    /** Fault injection (see SystemConfig::faults); default = off. */
    FaultConfig faults{};

    /** Periodic frame-audit period in ticks; 0 = off. */
    Tick auditInterval = 0;

    /**
     * Observability passthrough (see SystemConfig): optional trace
     * sink and metrics sampling period. Off by default — neither may
     * perturb simulated outcomes (sampling adds events, so only
     * simEvents differs).
     */
    TraceSink *traceSink = nullptr;
    Tick metricsInterval = 0;

    /** Compute the window length for an application's load. */
    Tick measureWindow(const AppProfile &app, unsigned num_vms) const;

    /**
     * Throw ConfigError on nonsensical values (including the
     * application profile the experiment will run). The churn,
     * lifecycle and fault knobs are checked by SystemConfig::validate()
     * on experimentSystemConfig()'s output.
     */
    void validate(const AppProfile &app) const;
};

/** Coarse memory state sampled at one point of the window. */
struct PhaseSnapshot
{
    Tick tick = 0;                  //!< absolute simulated time
    std::uint64_t framesUsed = 0;   //!< physical frames allocated
    std::uint64_t mappedPages = 0;  //!< guest pages mapped (live VMs)
    unsigned liveVms = 0;           //!< static fleet + live dynamic
};

/** Lifecycle activity over the measurement window (churn runs). */
struct LifecycleSummary
{
    bool enabled = false;
    std::uint64_t clones = 0;
    std::uint64_t boots = 0;
    std::uint64_t shutdowns = 0;
    std::uint64_t skippedArrivals = 0;
    std::uint64_t framesFreed = 0;
    double meanUnmergeStorm = 0.0;   //!< shared pages unshared/shutdown
    double meanReclaimUs = 0.0;      //!< modelled teardown reclaim cost
    double meanRecoveryMs = 0.0;     //!< clone/boot to merged steady state
    double p95RecoveryMs = 0.0;
    std::uint64_t recoveryTimeouts = 0;
};

/**
 * Fault activity and resilience outcome of one run (faults enabled).
 * Inputs (what the injector did) and outcomes (how the system degraded
 * and defended) side by side, so reconciliation is one glance:
 * poisoned <= uncorrectable, quarantined <= poisoned, and
 * oracleViolations must be zero.
 */
struct FaultSummary
{
    bool enabled = false;

    // Injected inputs.
    std::uint64_t flipEvents = 0;
    std::uint64_t singleBitFlips = 0;
    std::uint64_t doubleBitFlips = 0;
    std::uint64_t stuckAtFaults = 0;
    std::uint64_t minikeyTargeted = 0;
    std::uint64_t tableCorruptions = 0;
    std::uint64_t raceWrites = 0;
    std::uint64_t skippedNoTarget = 0;

    // ECC pipeline outcomes.
    std::uint64_t correctedErrors = 0;
    std::uint64_t uncorrectableErrors = 0;

    // Frame degradation.
    std::uint64_t poisonedFrames = 0;
    std::uint64_t quarantinedFrames = 0;

    // Driver degradation paths (PageForge mode).
    std::uint64_t falseKeyMatches = 0;
    std::uint64_t offsetRotations = 0;
    std::uint64_t mergeAborts = 0;
    std::uint64_t mergeRetries = 0;
    std::uint64_t hwHashRaces = 0;

    // Merge oracle (shadow memcmp at every merge commit).
    std::uint64_t oracleChecks = 0;
    std::uint64_t crossMcChecks = 0; //!< checks of cross-MC commits
    std::uint64_t oracleViolations = 0;

    // MC-scale injected inputs (module wedges, channel brownouts,
    // handoff link faults).
    std::uint64_t mcWedgesInjected = 0;
    std::uint64_t brownouts = 0;
    std::uint64_t handoffsLost = 0;
    std::uint64_t handoffsCorrupted = 0;
    std::uint64_t handoffsSpiked = 0;

    // MC-scale recovery outcomes (watchdog + failover machinery).
    std::uint64_t handoffRetries = 0;
    std::uint64_t handoffDeadLetters = 0;
    std::uint64_t wedgesDetected = 0;
    std::uint64_t moduleRestarts = 0;
    std::uint64_t failovers = 0;
    std::uint64_t readmissions = 0;
    std::uint64_t rehomedPrefixes = 0;   //!< prefix values re-homed
    std::uint64_t healthTransitions = 0; //!< fleet-wide health edges
};

/**
 * Per-memory-controller activity of a multi-MC run (PageForge mode):
 * how evenly the interleave spread the scan work, where the merges
 * landed, and how much content-key traffic crossed channels.
 */
struct McSummary
{
    std::uint64_t scans = 0;       //!< candidates homed on this MC
    std::uint64_t merges = 0;      //!< merges committed by this shard
    std::uint64_t handoffsIn = 0;  //!< candidates received from peers
    std::uint64_t handoffsOut = 0; //!< candidates forwarded to peers
    std::uint64_t tableOccupancy = 0; //!< valid Scan Table entries at end

    // Handoff-latency distribution (enqueue to delivery, simulated
    // ticks) of candidates accepted by this MC. Deterministic, so the
    // identity checks compare it like every other simulated quantity.
    std::uint64_t handoffLatCount = 0;
    double handoffLatMeanTicks = 0.0;
    double handoffLatMinTicks = 0.0;
    double handoffLatMaxTicks = 0.0;
    double handoffLatP50Ticks = 0.0;
    double handoffLatP95Ticks = 0.0;

    // Fault-domain outcome of this MC (fault campaigns only; an empty
    // health string means no health machinery was built).
    std::string health;                  //!< final state name
    std::uint64_t healthTransitions = 0; //!< edges this MC took
    std::uint64_t wedges = 0;            //!< wedges detected here
    std::uint64_t quarantines = 0;       //!< times quarantined
    std::uint64_t readmissions = 0;      //!< times re-admitted
};

/**
 * Lane-executor telemetry; nothing fills it any more. Kept only for
 * hostbench/; delete with its reads in a benchmark-archetype PR.
 */
struct ExecSummary
{
    bool enabled = false;
    std::uint64_t quanta = 0;
    std::uint64_t phase1Ns = 0;
    std::uint64_t drainNs = 0;
    std::uint64_t phase2Ns = 0;
    std::uint64_t mailboxHwm = 0;
    double phase2Efficiency = 0.0;
    std::vector<LaneExecStats> lanes;
    std::vector<std::uint64_t> workerBusyNs;
};

/** Everything a bench needs to print its table/figure rows. */
struct ExperimentResult
{
    std::string app;
    DedupMode mode = DedupMode::None;

    // Latency (Figures 9 and 10).
    double meanSojournMs = 0.0; //!< geomean across VMs of per-VM mean
    double p95SojournMs = 0.0;  //!< geomean across VMs of per-VM p95
    std::uint64_t queries = 0;

    // Memory (Figure 7).
    DupAnalysis dup;       //!< at the end of the measurement window
    DupAnalysis dupBefore; //!< right after deployment (pre-merge)
    DupAnalysis dupWarm;   //!< after warm-up merging, before the load

    // Cache behaviour (Table 4).
    double l3MissRate = 0.0;    //!< all requesters

    /**
     * L3 miss rate of application accesses only. In the scaled-down
     * system ksmd's own accesses often hit (its tree-path lines stay
     * resident), dragging the overall rate down even while it evicts
     * application lines; the app-only rate isolates the pollution the
     * paper's Table 4 is about.
     */
    double l3AppMissRate = 0.0;

    // Daemon cycles (Table 4): fraction of core cycles in ksmd.
    double ksmCycleFracAvg = 0.0;
    double ksmCycleFracMax = 0.0;
    double ksmCompareFrac = 0.0; //!< page compare share of ksmd cycles
    double ksmHashFrac = 0.0;    //!< hash keygen share of ksmd cycles

    // Hash keys (Figure 8).
    HashKeyStats hashStats;

    // Bandwidth (Figure 11), GB/s.
    double baselinePhaseBwGBps = 0.0; //!< mean over the window
    double dedupPhaseBwGBps = 0.0;    //!< peak while dedup active

    // PageForge characterization (Table 5).
    double pfBatchCyclesAvg = 0.0;
    double pfBatchCyclesStddev = 0.0;
    std::uint64_t pfRefills = 0;
    std::uint64_t pfOsChecks = 0;
    std::uint64_t pfPagesScanned = 0;

    std::uint64_t merges = 0;
    std::uint64_t cowBreaks = 0;

    // Simulation-speed accounting (BENCH_simspeed / --perf-report).
    // simEvents and pagesScanned are simulated quantities (stable for
    // a given seed); hostSeconds is host wall-clock and must never
    // enter any result-identity comparison.
    std::uint64_t simEvents = 0;    //!< events dispatched over the run
    std::uint64_t pagesScanned = 0; //!< daemon pages scanned (mode-dependent)
    double hostSeconds = 0.0;       //!< host wall-clock of the whole run

    // Churn runs: memory state across the window + lifecycle activity.
    std::vector<PhaseSnapshot> phases;
    LifecycleSummary lifecycle;

    // Fault runs: injected inputs and resilience outcomes.
    FaultSummary faults;

    // Multi-MC runs: channel count and per-controller breakdown
    // (empty at numMcs == 1, keeping classic results untouched).
    unsigned numMcs = 1;
    std::vector<McSummary> perMc;

    // Always empty; kept only for hostbench/ (see ExecSummary).
    ExecSummary exec;

    /**
     * Sampled metric trajectory (empty unless metricsInterval was
     * set). Excluded from identicalResults(): the same cell with and
     * without sampling must agree on everything else.
     */
    MetricsSeries metrics;
};

/**
 * The SystemConfig an experiment runs on: @p sys_template with the
 * mode, scale, seed, churn, lifecycle, fault, audit and observability
 * fields taken from @p cfg, and the L2/L3 capacities scaled with the
 * memory image (see ExperimentConfig::scaleCaches).
 */
SystemConfig experimentSystemConfig(DedupMode mode,
                                    const ExperimentConfig &cfg,
                                    const SystemConfig &sys_template = {});

/**
 * Run one full experiment: validate, build the System from
 * experimentSystemConfig(), run it, and time the whole run
 * (hostSeconds).
 *
 * @param app application profile (one VM per core, all identical)
 * @param mode Baseline / KSM / PageForge
 * @param cfg measurement knobs
 * @param sys_template system configuration to start from; mode and
 *        scale fields are overwritten
 */
ExperimentResult runExperiment(const AppProfile &app, DedupMode mode,
                               const ExperimentConfig &cfg,
                               const SystemConfig &sys_template = {});

/**
 * Run the measurement phases on a freshly built @p system: deploy,
 * warm-up, settle, window, collect. The caller validates @p cfg and
 * keeps the System, so it can inspect the machine afterwards
 * (pfsim's --dump-stats). hostSeconds is left at zero.
 */
ExperimentResult runExperiment(System &system, const ExperimentConfig &cfg);

} // namespace pageforge

#endif // PF_SYSTEM_EXPERIMENT_HH
