/**
 * @file
 * The assembled machine: Figure 5's multicore with VMs, hypervisor,
 * a merging configuration, and the TailBench-like load.
 *
 * This is the top-level object benchmarks and examples construct. It
 * wires the event queue, physical memory, memory controller (with the
 * PageForge module when enabled), cache hierarchy, cores, hypervisor,
 * the dedup daemon of the chosen mode, and one application instance
 * per VM.
 */

#ifndef PF_SYSTEM_SYSTEM_HH
#define PF_SYSTEM_SYSTEM_HH

#include <memory>
#include <vector>

#include "lifecycle/vm_lifecycle.hh"
#include "sim/lane_scheduler.hh"
#include "system/config.hh"
#include "system/mc_health.hh"
#include "trace/metrics_sampler.hh"
#include "workload/content_gen.hh"
#include "workload/query_gen.hh"

namespace pageforge
{

class FaultInjector;
class MergeOracle;
class ShardMap;
class CrossMcRouter;

/** The whole simulated machine. */
class System : public VmHost
{
  public:
    /**
     * Build the machine for one homogeneous application (the paper's
     * cloud scenario: 10 VMs running the same app, one per core).
     */
    System(const SystemConfig &config, const AppProfile &app);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Deploy the VMs and write their memory images. */
    void deploy();

    /**
     * Functionally fast-forward same-page merging to steady state by
     * running synchronous scan passes (no core occupancy). Passes stop
     * early once a pass produces no new merges.
     * @return passes actually run
     */
    unsigned warmupDedup(unsigned max_passes);

    /** Start query generation, churn, and the dedup daemon. */
    void startLoad();

    /** Advance simulated time. */
    void run(Tick duration);

    /** Events dispatched so far (every component runs on eventq()). */
    std::uint64_t eventsDispatched() const
    {
        return _eq.eventsDispatched();
    }

    /** Reset all measurement statistics (start of the window). */
    void resetMeasurement();

    // ---- component access ----
    EventQueue &eventq() { return _eq; }
    PhysicalMemory &memory() { return *_mem; }
    MemController &memController() { return *_mcs[0]; }
    MemController &memController(unsigned mc) { return *_mcs[mc]; }
    unsigned numMcs() const
    {
        return static_cast<unsigned>(_mcs.size());
    }
    Hierarchy &hierarchy() { return *_hierarchy; }
    Hypervisor &hypervisor() { return *_hyper; }
    Core &core(CoreId id) { return *_cores[id]; }
    unsigned numCores() const { return _config.numCores; }
    LatencyStats &latency() { return *_latency; }
    TailBenchApp &app(unsigned idx) { return *_apps[idx]; }
    unsigned numApps() const { return static_cast<unsigned>(_apps.size()); }
    const AppProfile &profile() const { return _app; }
    const SystemConfig &config() const { return _config; }

    /** Null unless a churn policy is configured. */
    LifecycleManager *lifecycle() { return _lifecycle.get(); }

    /** Every component probe; a sink can be attached at any time. */
    ProbeRegistry &probes() { return _probes; }

    /** Null unless metrics sampling is configured (see SystemConfig). */
    MetricsSampler *metrics() { return _metrics.get(); }

    /**
     * End-of-run observability wrap-up: capture the sampler's final
     * partial epoch (see MetricsSampler::finish). Idempotent; call
     * after the last run() and before reading the series or finishing
     * a sink.
     */
    void finishObservability();

    // ---- VmHost (called by the lifecycle manager) ----
    TailBenchApp *attachApp(const VmLayout &layout,
                            const AppProfile &profile) override;
    void detachApp(VmId vm) override;

    /** Null unless mode == Ksm. */
    Ksmd *ksmd() { return _ksmd.get(); }

    /** Null unless mode == PageForge. */
    PageForgeDriver *pfDriver() { return _pfDriver.get(); }
    PageForgeModule *pfModule()
    {
        return _pfModules.empty() ? nullptr : _pfModules[0].get();
    }
    PageForgeModule *pfModule(unsigned mc)
    {
        return mc < _pfModules.size() ? _pfModules[mc].get() : nullptr;
    }

    /** Null unless numMcs > 1 (a single-MC machine has no sharding). */
    ShardMap *shardMap() { return _shardMap.get(); }
    CrossMcRouter *crossMcRouter() { return _router.get(); }

    /**
     * Always null: every machine shape runs on eventq(). Kept only
     * for hostbench/; delete with its reads in a benchmark-archetype
     * PR.
     */
    LaneScheduler *laneScheduler() { return nullptr; }

    /** Null unless fault injection is configured. */
    FaultInjector *faultInjector() { return _faults.get(); }

    /** Null unless fault injection is configured. */
    MergeOracle *mergeOracle() { return _oracle.get(); }

    /**
     * Null unless a fault campaign enables the `mcwedge` class in
     * PageForge mode (see ModuleWatchdog).
     */
    ModuleWatchdog *watchdog() { return _watchdog.get(); }

    /** Null unless a fault campaign enables an MC-scale fault class. */
    McHealthMonitor *healthMonitor() { return _health.get(); }

    /** Merge statistics of whichever daemon is active (or empty). */
    const MergeStats &mergeStats() const;
    const HashKeyStats &hashStats() const;

    const std::vector<VmLayout> &layouts() const { return _layouts; }

  private:
    SystemConfig _config;
    AppProfile _app;

    EventQueue _eq;
    Rng _rng;

    std::unique_ptr<PhysicalMemory> _mem;
    std::vector<std::unique_ptr<MemController>> _mcs;
    std::unique_ptr<ShardMap> _shardMap;
    std::unique_ptr<CrossMcRouter> _router;
    std::unique_ptr<Hierarchy> _hierarchy;
    std::vector<std::unique_ptr<Core>> _cores;
    std::unique_ptr<Hypervisor> _hyper;
    std::unique_ptr<ContentGenerator> _content;
    std::unique_ptr<LatencyStats> _latency;

    std::unique_ptr<LifecycleManager> _lifecycle;
    std::unique_ptr<KsmScheduler> _ksmSched;
    std::unique_ptr<Ksmd> _ksmd;
    std::vector<std::unique_ptr<PageForgeModule>> _pfModules;
    std::vector<std::unique_ptr<PageForgeApi>> _pfApis;
    std::unique_ptr<PageForgeDriver> _pfDriver;

    std::unique_ptr<MergeOracle> _oracle;
    std::unique_ptr<FaultInjector> _faults;
    std::unique_ptr<ModuleWatchdog> _watchdog;
    std::unique_ptr<McHealthMonitor> _health;
    std::unique_ptr<Rng> _handoffRng; //!< link-fault stream (armed runs)

    ProbeRegistry _probes;
    std::unique_ptr<MetricsSampler> _metrics;

    std::vector<VmLayout> _layouts;
    std::vector<std::unique_ptr<TailBenchApp>> _apps;

    bool _deployed = false;
    bool _started = false;

    /** Clear timing debris left by synchronous warm-up passes. */
    void finishWarmup();

    /** Enroll component probes and build the metrics sampler. */
    void setupObservability();

    /** Self-rescheduling frame-invariant audit (--audit-interval). */
    void scheduleAudit();

    static const MergeStats emptyMergeStats;
    static const HashKeyStats emptyHashStats;
};

} // namespace pageforge

#endif // PF_SYSTEM_SYSTEM_HH
