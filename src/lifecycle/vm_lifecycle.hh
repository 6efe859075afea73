/**
 * @file
 * The VM lifecycle manager: clone / boot / shutdown / balloon driven
 * from the event queue.
 *
 * State machine of a dynamic VM:
 *
 *   Template --> Cloning --> Running <--> Ballooning
 *                               |
 *                               v
 *                           Draining --> Dead
 *
 * A ChurnPolicy (Poisson, Burst, Rotate) schedules the transitions
 * deterministically from a forked Rng. Arrivals either *clone* the
 * template VM (pages start shared copy-on-write, instantly mergeable)
 * or *boot* a fresh image with its own content seed. Shutdown drains
 * the instance's query generator, then destroys the VM through
 * Hypervisor::destroyVm — decrementing shared-frame refcounts,
 * returning sole-owner frames to the pool, and notifying the merging
 * daemons to drop stale tree and Scan Table entries.
 *
 * After every arrival the manager polls the new VM's mergeable image
 * until the configured fraction of it is backed by shared frames,
 * recording the merge-recovery time that bench_churn_recovery
 * compares between KSM and PageForge.
 */

#ifndef PF_LIFECYCLE_VM_LIFECYCLE_HH
#define PF_LIFECYCLE_VM_LIFECYCLE_HH

#include <vector>

#include "hyper/hypervisor.hh"
#include "lifecycle/churn_policy.hh"
#include "lifecycle/lifecycle_stats.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"
#include "workload/content_gen.hh"

namespace pageforge
{

class TailBenchApp;

/** Lifecycle phase of a dynamic VM. */
enum class VmState
{
    Template,   //!< the image arrivals are cloned from
    Cloning,    //!< arrival in progress (clone or boot)
    Running,    //!< serving queries
    Ballooning, //!< running with part of its pages reclaimed
    Draining,   //!< shutdown requested, queries stopping
    Dead,       //!< destroyed; frames reclaimed
};

/** Name of a lifecycle state. */
const char *vmStateName(VmState state);

/**
 * What the lifecycle manager needs from its environment: a query
 * generator attached per arriving VM and detached at shutdown. The
 * System implements this; tests can stub it out.
 */
class VmHost
{
  public:
    virtual ~VmHost() = default;

    /**
     * Create (or reuse) a query generator for a freshly arrived VM.
     * @return the app, not yet started; nullptr when the host does
     *         not drive load (bare lifecycle tests)
     */
    virtual TailBenchApp *attachApp(const VmLayout &layout,
                                    const AppProfile &profile) = 0;

    /** Stop driving load to a VM entering Draining. */
    virtual void detachApp(VmId vm_id) = 0;
};

/** Drives VM arrivals, departures, and ballooning. */
class LifecycleManager : public SimObject
{
  public:
    LifecycleManager(std::string name, EventQueue &eq,
                     Hypervisor &hyper, ContentGenerator &content,
                     VmHost &host, AppProfile profile,
                     const ChurnConfig &churn,
                     const LifecycleConfig &config, Rng rng);

    /** Register the template image arrivals clone from. */
    void setTemplate(const VmLayout &layout);

    /** Begin scheduling churn per the configured policy. */
    void start();

    /** Stop scheduling new transitions; in-flight ones complete. */
    void stop() { _running = false; }

    bool running() const { return _running; }

    // ---- direct transitions (also used by the policies) ----

    /**
     * Admit one instance (clone or boot per cloneFraction); it starts
     * serving after the clone/boot latency.
     * @return the new VmId, or an invalid id (numVms()) when the
     *         dynamic-VM cap was hit
     */
    VmId admitInstance();

    /** Clone the template. @return the new VmId */
    VmId cloneInstance();

    /** Boot a fresh image. @return the new VmId */
    VmId bootInstance();

    /** Begin draining @p vm_id; the VM is destroyed after the grace. */
    void shutdownInstance(VmId vm_id);

    /** Toggle ballooning: shrink a Running VM or re-grow it. */
    void balloonInstance(VmId vm_id);

    // ---- introspection ----

    /** Lifecycle state of a VM this manager knows about. */
    VmState state(VmId vm_id) const;

    /** Dynamic instances not yet Dead. */
    unsigned liveDynamicVms() const;

    const LifecycleStats &stats() const { return _stats; }
    void resetStats() { _stats.reset(); }

    const LifecycleConfig &config() const { return _config; }

  private:
    struct Instance
    {
        VmId vm = 0;
        VmState state = VmState::Cloning;
        VmLayout layout;
        Tick bornAt = 0;
        unsigned balloonedPages = 0;
        std::uint64_t epoch = 0; //!< invalidates stale poll events
    };

    Hypervisor &_hyper;
    ContentGenerator &_content;
    VmHost &_host;
    AppProfile _profile;
    ChurnConfig _churn;
    LifecycleConfig _config;
    Rng _rng;

    bool _running = false;
    bool _haveTemplate = false;
    VmLayout _template;
    std::vector<Instance> _instances;
    unsigned _arrivalSeq = 0; //!< names clones, seeds boot images

    LifecycleStats _stats;

    Instance *findInstance(VmId vm_id);
    const Instance *findInstance(VmId vm_id) const;

    /** Common post-create path: schedule Running after @p latency. */
    void beginArrival(Instance inst, Tick latency);
    void finishArrival(VmId vm_id, std::uint64_t epoch);
    void finishShutdown(VmId vm_id, std::uint64_t epoch);

    /** Poll the merged fraction of a fresh VM's mergeable image. */
    void trackRecovery(VmId vm_id, std::uint64_t epoch, Tick started);
    double mergedFraction(const Instance &inst) const;

    /** Pick a random instance in @p state; nullptr when none. */
    Instance *pickRandom(VmState state);

    // ---- policy schedulers ----
    void schedulePoissonArrival();
    void schedulePoissonDeparture();
    void scheduleBalloon();
    void scheduleBurst();
    void scheduleRotate();

    Tick expDelay(double per_sec);
};

} // namespace pageforge

#endif // PF_LIFECYCLE_VM_LIFECYCLE_HH
