/**
 * @file
 * The OS-side driver implementing the KSM algorithm on PageForge
 * (Section 3.4).
 *
 * The driver keeps the same stable/unstable red-black trees as ksmd,
 * but performs every page comparison in hardware: it loads the Scan
 * Table with the candidate and a breadth-first batch of tree nodes,
 * encodes the tree topology in the Less/More indices, triggers the
 * module, and polls get_PFE_info every osCheckInterval cycles
 * (Table 5: 12,000). Continuation tokens left in Ptr tell it which
 * subtree to load next; the ECC hash key generated in the background
 * replaces the jhash check.
 *
 * The driver runs one *pipeline* per shard, i.e. per memory
 * controller: each pipeline scans the pages homed on its controller
 * (with its own page budget per interval — N controllers scan N×
 * faster), drives its own module, and owns its shard's trees. A
 * candidate whose content key homes on a remote shard is handed to
 * that shard's pipeline through the CrossMcRouter and processed there,
 * so every Scan Table has exactly one driver. Every pipeline, module
 * and core shares the machine's one event queue. A 1-MC machine is a
 * one-shard machine: one pipeline, and no candidate ever leaves it.
 *
 * CPU cost is limited to the API calls and tree bookkeeping, charged
 * to a rotating core — the "modest hypervisor involvement" of the
 * paper. No page data ever flows through a core or its caches.
 */

#ifndef PF_CORE_PAGEFORGE_DRIVER_HH
#define PF_CORE_PAGEFORGE_DRIVER_HH

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/pageforge_api.hh"
#include "cpu/core.hh"
#include "hyper/hypervisor.hh"
#include "ksm/accessors.hh"
#include "ksm/content_tree.hh"
#include "ksm/cost_model.hh"

namespace pageforge
{

class FaultInjector;
class ShardMap;
class CrossMcRouter;

/** Tunables of the PageForge driver. */
struct PageForgeDriverConfig
{
    Tick sleepInterval = msToTicks(5); //!< same pacing as KSM (Table 2)
    unsigned pagesToScan = 400;        //!< per pipeline per interval
    Tick osCheckInterval = 12000;      //!< Table 5: OS checking period

    EccOffsets eccOffsets = EccOffsets::defaults();

    // OS-work costs, charged to a core.
    Tick mergeCycles = 2500;
    Tick cowProtectCycles = 1200;
    Tick treeUpdateCycles = 200;
    Tick checkOverheadCycles = 80;
    Tick batchBuildCycles = 120;

    // Fault-resilience knobs. Only consulted when a FaultInjector is
    // wired into the driver; fault-free runs never reach these paths.
    unsigned falseMatchRotateThreshold = 3; //!< consecutive false key
                                            //!< matches on one PFE that
                                            //!< trigger update_ECC_offset
    unsigned mergeRetryMax = 4;             //!< retries after a merge abort
    Tick mergeRetryBackoff = 4000;          //!< initial retry backoff
    Tick mergeRetryBackoffCap = 64000;      //!< exponential backoff cap
};

/** The driver. */
class PageForgeDriver : public SimObject
{
  public:
    /**
     * @param apis one module API per memory controller, in shard
     *        order. Each shard gets its own scan pipeline and its own
     *        stable/unstable content trees owning a disjoint key-prefix
     *        range (see ShardMap); every module's ECC offsets are
     *        aligned with the driver's.
     * @param map homing map covering exactly apis.size() shards
     * @param router inter-MC handoff path: a candidate whose content
     *        key homes on a remote shard is handed to the owning
     *        shard's pipeline through it, paying its latency before the
     *        first batch is programmed (event mode)
     */
    PageForgeDriver(std::string name, EventQueue &eq, Hypervisor &hyper,
                    std::vector<PageForgeApi *> apis, const ShardMap &map,
                    CrossMcRouter &router, std::vector<Core *> cores,
                    const PageForgeDriverConfig &config);
    ~PageForgeDriver() override;

    /** Begin periodic scanning (event mode). */
    void start();

    /** Stop after the current candidates complete. */
    void stop() { _running = false; }

    bool running() const { return _running; }

    /**
     * Run one full scan pass synchronously at the current tick,
     * without pacing or core occupancy (hardware traffic is still
     * charged). The pass walks the global scan list in hypervisor
     * order regardless of the pipeline partition, so warm-up results
     * are independent of the MC count. For warm-up fast-forward and
     * tests.
     * @return number of candidates processed
     */
    std::uint64_t runOnePassNow();

    const MergeStats &mergeStats() const { return _mergeStats; }
    const HashKeyStats &hashStats() const { return _hashStats; }

    /** Batches programmed into the hardware. */
    std::uint64_t refills() const { return _refills.value(); }

    /** get_PFE_info polls performed. */
    std::uint64_t osChecks() const { return _osChecks.value(); }

    /**
     * Times the hardware hash key disagreed with the functional key
     * (the candidate was written mid-scan).
     */
    std::uint64_t hwHashRaces() const { return _hwHashRaces.value(); }

    /**
     * Wire the fault injector. Arms the degradation paths: the
     * write-versioning commit check (racing writes abort the merge and
     * retry with backoff), hardware-key trust for the unchanged check,
     * and update_ECC_offset rotation after repeated false key matches.
     */
    void setFaultInjector(FaultInjector *faults) { _faults = faults; }

    /**
     * Hardware matches the full compare refuted — the comparator's
     * last line of defense firing on a corrupted key or table entry.
     */
    std::uint64_t falseKeyMatches() const
    {
        return _falseKeyMatches.value();
    }

    /** update_ECC_offset rotations issued to re-key the hash. */
    std::uint64_t offsetRotations() const
    {
        return _offsetRotations.value();
    }

    /** Merge commits aborted by the write-versioning check. */
    std::uint64_t mergeAborts() const { return _mergeAborts.value(); }

    /** Aborted merges rescheduled with backoff. */
    std::uint64_t mergeRetries() const { return _mergeRetries.value(); }

    // ---- MC fault-domain recovery (watchdog entry points) ----

    /**
     * Park shard @p shard's pipeline (module wedged, shard
     * quarantined): it stops scanning and picking candidates, and its
     * queued work — inbox and merge-retry backlog — is forwarded to
     * the shard's current owner per the ShardMap overlay. Call after
     * ShardMap::quarantine() so the owner is already reassigned.
     */
    void quiesceShard(unsigned shard);

    /**
     * The watchdog force-reset shard @p shard's module. If a batch
     * was in flight its result is gone; the pending check poll
     * flushes the candidate through the same abort-flush guard a
     * VM death uses, instead of interpreting stale table state.
     */
    void onModuleRestarted(unsigned shard);

    /** Re-admit a recovered shard: resume scanning next interval. */
    void resumeShard(unsigned shard);

    /** Per-shard content trees. */
    ContentTree &stableTree(unsigned shard) { return *_stables[shard]; }
    ContentTree &unstableTree(unsigned shard)
    {
        return *_unstables[shard];
    }

    /** Content-tree shards (== memory controllers driven). */
    unsigned
    numShards() const
    {
        return static_cast<unsigned>(_apis.size());
    }

    /** Candidates scanned whose frame homes on MC @p shard. */
    std::uint64_t shardScans(unsigned shard) const
    {
        return _shardScans[shard];
    }

    /** Merges committed in shard @p shard's content trees. */
    std::uint64_t shardMerges(unsigned shard) const
    {
        return _shardMerges[shard];
    }

    const PageForgeDriverConfig &config() const { return _config; }

    void resetStats();

  private:
    enum class Phase { Stable, Unstable };

    /** What the state machine must do next. */
    enum class Action { RunBatch, CandidateDone };

    /** A batch prepared for the hardware. */
    struct PendingBatch
    {
        struct Entry
        {
            FrameId ppn;
            ScanIndex less;
            ScanIndex more;
        };

        std::vector<Entry> entries;
        std::vector<ContentTree::Node *> nodes;
        bool lastRefill = false;
        ScanIndex startPtr = scanIndexNone;
    };

    /** An aborted merge waiting out its backoff before a re-scan. */
    struct MergeRetry
    {
        PageKey key;
        unsigned attempt;
    };

    /**
     * One shard's scan pipeline: the per-candidate state machine plus
     * its slice of the scan list. The driver runs one per shard,
     * interleaved on the event queue so their tree and hypervisor
     * mutations stay serialized and deterministic while their hardware
     * walks overlap in simulated time.
     */
    struct Pipeline
    {
        unsigned shard = 0; //!< home shard this pipeline scans

        ScanList scanList;
        unsigned remaining = 0; //!< interval page budget left

        // Candidates handed over from other pipelines (their content
        // key homes here). Processed ahead of the scan list, outside
        // the page budget — the scanning shard already spent it.
        std::deque<PageKey> inbox;

        // Current candidate.
        PageKey candidate{};
        FrameId candidateFrame = invalidFrame;
        std::uint32_t candidateVersion = 0; //!< writeVersion at pick
        unsigned candidateAttempt = 0;      //!< merge-retry attempt
        unsigned candidateShard = 0;        //!< shard whose api/trees serve it
        bool firstBatch = true;
        Tick batchStart = 0; //!< program time of in-flight batch (trace)
        Phase phase = Phase::Stable;

        // Stable-tree insertion point the hardware found for the
        // candidate (unset when its stable search ended elsewhere).
        std::optional<ContentTree::SearchResult> stableInsert;

        PendingBatch batch;
        std::vector<FrameId> pinnedFrames;
        Tick pendingDriverCycles = 0;

        // A VM died while this pipeline's batch was in the hardware;
        // flush the candidate instead of interpreting the result.
        bool abortCandidate = false;

        // Failover: the shard is quarantined and this pipeline parked.
        bool quiesced = false;

        // The watchdog force-reset the module under an in-flight
        // batch; the next check poll must flush, not interpret.
        bool moduleReset = false;

        bool intervalPending = false; //!< wake-up event armed

        std::vector<MergeRetry> retryQueue; //!< backoffs elapsed, ready

        PageKey falseMatchKey{}; //!< page of the current false-match run
        unsigned falseMatchStreak = 0;
    };

    Hypervisor &_hyper;
    std::vector<PageForgeApi *> _apis; //!< one per shard
    std::vector<Core *> _cores;
    PageForgeDriverConfig _config;

    StableAccessor _stableAcc;
    GuestAccessor _guestAcc;
    std::vector<std::unique_ptr<ContentTree>> _stables;
    std::vector<std::unique_ptr<ContentTree>> _unstables;
    std::vector<std::unique_ptr<Pipeline>> _pipelines;

    const ShardMap &_shardMap;
    CrossMcRouter &_router;
    std::vector<std::uint64_t> _shardScans;
    std::vector<std::uint64_t> _shardMerges;

    bool _running = false;
    bool _synchronous = false;

    unsigned _checkCore = 0;

    // VM-destroy handling: while any candidate is in flight, batches
    // and saved stable insertion points hold raw tree-node pointers,
    // so tree purges are deferred until every pipeline has abandoned
    // its candidate (see advance()).
    std::vector<VmId> _pendingPurges;
    int _destroyToken = -1;
    int _pinToken = -1;

    MergeStats _mergeStats;
    HashKeyStats _hashStats;
    Counter _refills;
    Counter _osChecks;
    Counter _hwHashRaces;

    // Fault-resilience state (inert while _faults is null).
    FaultInjector *_faults = nullptr;

    Counter _falseKeyMatches;
    Counter _offsetRotations;
    Counter _mergeAborts;
    Counter _mergeRetries;

    // ---- pass / candidate selection ----
    void startPass(Pipeline &p);
    bool pickNextCandidate(Pipeline &p, bool &from_inbox);
    bool anyCandidateInFlight() const;

    // ---- pure state-machine steps ----
    Action setupCandidate(Pipeline &p, bool from_inbox);
    Action beginPhase(Pipeline &p);
    Action onBatchComplete(Pipeline &p, const PfeInfo &info);
    Action stableSearchEnded(Pipeline &p, const PfeInfo &info);
    Action unstableSearchEnded(Pipeline &p, const PfeInfo &info);

    /**
     * Commit a hardware Duplicate on @p node through the hypervisor's
     * final compare; on a merge in the unstable phase, move the pair
     * to the stable tree.
     */
    Action commitMatch(Pipeline &p, ContentTree::Node *node);

    // ---- fault degradation paths (no-ops while _faults is null) ----

    /**
     * Detect a guest write that landed since the candidate was picked
     * (including injected races). @return true when the merge must
     * abort — the abort and any retry are already recorded.
     */
    bool mergeRaced(Pipeline &p);

    /** Abort the in-flight merge; schedule a capped-backoff retry. */
    Action abortMergedRace(Pipeline &p);

    /** Record a full-compare refutation of a hardware match. */
    void noteFalseKeyMatch(Pipeline &p);

    /** Issue update_ECC_offset with rotated per-section offsets. */
    void rotateEccOffsets();

    /** Build a BFS batch under @p subtree_root into p.batch. */
    void buildBatch(Pipeline &p, ContentTree::Node *subtree_root);

    /** Build the zero-entry batch that forces hash completion. */
    void buildForcedHashBatch(Pipeline &p);

    /** Program p.batch through the API (and pin the frames). */
    void programBatch(Pipeline &p);

    /** Release the batch pins. */
    void unpinBatch(Pipeline &p);

    void pinCandidate(Pipeline &p);
    void unpinCandidate(Pipeline &p);

    /** Resolve a tree node to its frame, pruning stale nodes. */
    ContentTree *currentTree(Pipeline &p);
    PageAccessor &currentAccessor(Pipeline &p);

    /** API of the shard serving the candidate. */
    PageForgeApi &currentApi(Pipeline &p)
    {
        return *_apis[p.candidateShard];
    }

    /** Shard trees serving the current candidate. */
    ContentTree &stableShardTree(Pipeline &p)
    {
        return *_stables[p.candidateShard];
    }
    ContentTree &unstableShardTree(Pipeline &p)
    {
        return *_unstables[p.candidateShard];
    }

    // ---- event-mode plumbing ----
    void scheduleInterval(Pipeline &p, Tick when);
    void armInterval(Pipeline &p);
    void startInterval(Pipeline &p);
    void advance(Pipeline &p);
    void dispatchProgramTask(Pipeline &p);
    void scheduleCheck(Pipeline &p);
    void onCheckTaskDone(Pipeline &p);
    void flushCandidate(Pipeline &p);

    /**
     * Send (or resend) a handoff through the possibly-faulty router.
     * A lost message retries with the router's capped exponential
     * backoff, re-resolving the destination's owner each attempt (the
     * shard may fail over during the backoff); retries exhausted means
     * a counted dead letter — the candidate is simply rescanned on a
     * later pass, never stranded.
     */
    void sendHandoff(unsigned src, unsigned dst, PageKey key,
                     unsigned attempt);

    /** Arrival of a handed-off candidate at its content shard. */
    void deliverHandoff(unsigned shard, PageKey key);

    Core &nextCheckCore();
    void chargeDriver(Pipeline &p, Tick cycles)
    {
        p.pendingDriverCycles += cycles;
    }

    /** Bill accumulated driver cycles to a core (interrupt context). */
    void chargeCore(Tick cycles);

    /** VM-destroy listener: purge or schedule purge of stale state. */
    void onVmDestroyed(VmId vm_id);

    /** Drop a dead VM's entries from the trees and all scan state. */
    void purgeVm(VmId vm_id);
};

} // namespace pageforge

#endif // PF_CORE_PAGEFORGE_DRIVER_HH
