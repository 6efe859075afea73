/**
 * @file
 * Full-system configuration (Table 2 defaults).
 */

#ifndef PF_SYSTEM_CONFIG_HH
#define PF_SYSTEM_CONFIG_HH

#include <stdexcept>
#include <string>

#include "cache/bus.hh"
#include "cache/cache.hh"
#include "core/module_watchdog.hh"
#include "core/pageforge_driver.hh"
#include "core/pageforge_module.hh"
#include "cpu/scheduler.hh"
#include "fault/fault_config.hh"
#include "ksm/ksmd.hh"
#include "lifecycle/churn_policy.hh"
#include "mem/dram_model.hh"

namespace pageforge
{

class TraceSink;

/**
 * Thrown for nonsensical configuration values (0 VMs, negative
 * scales, empty app names, ...). A distinct exception type so tests
 * and the campaign runner can tell user errors from simulator bugs.
 */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Which same-page-merging configuration the system runs. */
enum class DedupMode
{
    None,      //!< Baseline: merging disabled
    Ksm,       //!< RedHat's KSM in software on the cores
    PageForge, //!< the proposed near-memory hardware
};

/** Short label of a dedup mode. */
const char *dedupModeName(DedupMode mode);

/** All the knobs of the modelled machine. */
struct SystemConfig
{
    unsigned numCores = 10; //!< Table 2: 10 cores, one VM each
    unsigned numVms = 10;

    /**
     * Memory controllers (src/shard). Physical frames interleave
     * across channels (frame % numMcs) and, in PageForge mode, each
     * controller hosts its own module, Scan Table, and content-tree
     * shard; candidates whose content key homes on a remote shard pay
     * a CrossMcRouter handoff. 1 (the default, the paper's machine)
     * builds a one-shard machine whose router never carries a handoff;
     * its results are bit-identical to the classic single-MC system.
     */
    unsigned numMcs = 1;

    CacheConfig l1{"l1", 32 * 1024, 8, 2, 16};
    CacheConfig l2{"l2", 256 * 1024, 8, 6, 16};
    CacheConfig l3{"l3", 32 * 1024 * 1024, 20, 20, 24};
    BusConfig bus{};
    DramConfig dram{};

    /**
     * Physical memory size in frames. Zero means "auto": sized from
     * the deployed VM footprints with headroom. (The paper models
     * 16 GB; experiments scale the image down, so auto keeps the
     * allocator dense and fast.)
     */
    std::size_t memFrames = 0;

    DedupMode mode = DedupMode::None;
    KsmConfig ksm{};
    PageForgeConfig pfModule{};
    PageForgeDriverConfig pfDriver{};

    KsmPlacement ksmPlacement = KsmPlacement::Sticky;
    double ksmStickiness = 0.6;

    std::uint64_t seed = 42;

    /** Scale factor on per-VM footprint/working set (1.0 = default). */
    double memScale = 1.0;

    /** VM churn policy (lifecycle subsystem); None = static fleet. */
    ChurnConfig churn{};

    /** Lifecycle transition costs and recovery measurement knobs. */
    LifecycleConfig lifecycle{};

    /**
     * Fault injection (src/fault): DRAM flips, Scan Table upsets,
     * merge-time races. All-zero rates (the default) build no injector
     * and schedule nothing — fault-free runs stay bit-identical.
     */
    FaultConfig faults{};

    /**
     * Module watchdog pacing: wedge-detection heartbeat and the
     * recovery/re-admission delays (src/core/module_watchdog.hh).
     * Only consulted when a fault campaign enables the `mcwedge`
     * class in PageForge mode; fault-free runs build no watchdog.
     */
    WatchdogConfig watchdog{};

    /**
     * Period of the opt-in frame-invariant audit in ticks; 0 (the
     * default) disables it. When set, Hypervisor::auditFrames() runs
     * every period once the load starts and the run fails fast with a
     * readable report on the first violated invariant.
     */
    Tick auditInterval = 0;

    /**
     * Observability (src/trace). A non-null sink attaches every
     * component probe when the load starts; null (the default) keeps
     * probes inactive — a pointer-null check per fire site, verified
     * bit-identical by the golden-stats suite. Non-owning, and only
     * valid for a single-run System: campaign workers must not share
     * one sink.
     */
    TraceSink *traceSink = nullptr;

    /**
     * Metrics sampling period in ticks; 0 disables the sampler unless
     * a trace sink is attached, in which case it defaults to 1 ms of
     * simulated time so counter tracks always appear in the trace.
     */
    Tick metricsInterval = 0;

    /** Throw ConfigError on nonsensical values. */
    void validate() const;
};

} // namespace pageforge

#endif // PF_SYSTEM_CONFIG_HH
