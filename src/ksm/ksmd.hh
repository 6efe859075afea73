/**
 * @file
 * RedHat's Kernel Same-page Merging daemon, run in software on the
 * simulated cores — the paper's baseline configuration (Algorithm 1).
 *
 * ksmd wakes every sleep_millisecs, is placed on a core by the OS
 * scheduler, and scans pages_to_scan candidate pages: stable-tree
 * search, jhash check, unstable-tree search, merge. Every line it
 * touches is driven through that core's cache hierarchy, consuming
 * core cycles and polluting the caches — the overhead PageForge
 * eliminates.
 */

#ifndef PF_KSM_KSMD_HH
#define PF_KSM_KSMD_HH

#include <vector>

#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "cpu/scheduler.hh"
#include "ecc/ecc_hash_key.hh"
#include "hyper/hypervisor.hh"
#include "ksm/accessors.hh"
#include "ksm/content_tree.hh"
#include "ksm/cost_model.hh"

namespace pageforge
{

/** Tunables of the merging daemon (Table 2 defaults). */
struct KsmConfig
{
    Tick sleepInterval = msToTicks(5); //!< sleep_millisecs = 5 ms
    unsigned pagesToScan = 400;        //!< pages_to_scan = 400
    KsmCostModel cost;

    /**
     * CFS-style timeslicing: within a work interval, ksmd runs for at
     * most a timeslice, then yields the core for a timeslice so the
     * vCPU sharing it makes progress (two runnable tasks split the
     * scheduling period). Without this, a multi-millisecond chunk
     * would block the VM's queries outright, which the Linux
     * scheduler does not allow.
     */
    Tick timeslice = msToTicks(3);

    /**
     * Section 4.3 alternative: perform ksmd's page reads with
     * cache-bypassing (uncacheable) accesses straight at the memory
     * controller. Removes the pollution but keeps all the CPU cycles,
     * and every read pays full memory latency.
     */
    bool bypassCaches = false;

    /** Offsets for the shadow ECC keys recorded for Figure 8. */
    EccOffsets eccOffsets = EccOffsets::defaults();
};

/** The ksmd kernel thread. */
class Ksmd : public SimObject
{
  public:
    Ksmd(std::string name, EventQueue &eq, Hypervisor &hyper,
         Hierarchy &hierarchy, std::vector<Core *> cores,
         KsmScheduler &scheduler, const KsmConfig &config);
    ~Ksmd() override;

    /** Begin periodic scanning. */
    void start();

    /** Stop after the current work interval. */
    void stop() { _running = false; }

    bool running() const { return _running; }

    /**
     * Run one full scan pass synchronously at the current tick,
     * without core occupancy or pacing. Used by tests and by the
     * warm-up phase of experiments.
     * @return virtual duration of the pass in ticks
     */
    Tick runOnePassNow();

    const MergeStats &mergeStats() const { return _mergeStats; }
    const DaemonCycleStats &cycleStats() const { return _cycleStats; }
    const HashKeyStats &hashStats() const { return _hashStats; }

    ContentTree &stableTree() { return _stable; }
    ContentTree &unstableTree() { return _unstable; }

    const KsmConfig &config() const { return _config; }

    void resetStats();

  private:
    Hypervisor &_hyper;
    Hierarchy &_hierarchy;
    std::vector<Core *> _cores;
    KsmScheduler &_scheduler;
    KsmConfig _config;

    StableAccessor _stableAcc;
    GuestAccessor _guestAcc;
    ContentTree _stable;
    ContentTree _unstable;

    ScanList _scanList;
    bool _running = false;

    int _destroyToken = -1;
    int _pinToken = -1;

    MergeStats _mergeStats;
    DaemonCycleStats _cycleStats;
    HashKeyStats _hashStats;

    /** Pages left to scan in the current work interval. */
    unsigned _intervalPagesLeft = 0;

    /** Schedule the next wakeup event. */
    void scheduleWakeup(Tick when);

    /** Wakeup: pick a core and start the interval's first timeslice. */
    void wakeup();

    /** Queue one ksmd timeslice on @p core. */
    void runSlice(CoreId core);

    /** Scan pages for up to one timeslice; returns the duration. */
    Tick scanSlice(CoreId core, Tick start);

    /** Scan one candidate page; returns the updated local time. */
    Tick scanOne(CoreId core, const PageKey &key, Tick now);

    /** Fetch @p lines lines of @p frame through the core's caches. */
    Tick fetchLines(CoreId core, FrameId frame, std::uint32_t lines,
                    Tick now);

    /** Begin a new pass: reset the unstable tree, resnapshot pages. */
    void startPass();

    /** Purge scan list and tree entries of a destroyed VM. */
    void onVmDestroyed(VmId vm_id);
};

} // namespace pageforge

#endif // PF_KSM_KSMD_HH
