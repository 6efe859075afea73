/**
 * @file
 * The PageForge hardware module in the memory controller
 * (Sections 3.2, 3.3 and 3.5).
 *
 * A small state machine that, once triggered, walks the Scan Table
 * from the PFE's Ptr: it compares the candidate page with the pointed
 * Other Pages entry line by line in lockstep, follows Less/More on
 * divergence, and stops either on a full match (Duplicate) or when
 * Ptr leaves the table (Scanned).
 *
 * Every line request is issued to the on-chip network first; on a
 * snoop hit the line is supplied by a cache over the bus, otherwise
 * it is read from DRAM through the controller's read request buffer
 * (with coalescing). The module has no cache of its own, never
 * allocates into the hierarchy, and is not a coherence owner.
 *
 * While comparing, the control logic snatches the ECC codes of the
 * candidate's lines as they pass through the controller and assembles
 * the 32-bit ECC hash key in the background; the Last-Refill flag
 * forces completion by fetching any still-missing sampled lines.
 */

#ifndef PF_CORE_PAGEFORGE_MODULE_HH
#define PF_CORE_PAGEFORGE_MODULE_HH

#include "cache/hierarchy.hh"
#include "core/scan_table.hh"
#include "ecc/ecc_hash_key.hh"
#include "mem/mem_controller.hh"
#include "sim/sim_object.hh"
#include "stats/sampler.hh"

namespace pageforge
{

/** Hardware parameters of the module. */
struct PageForgeConfig
{
    unsigned scanTableEntries = 31;   //!< Other Pages entries (Table 2)
    EccOffsets eccOffsets = EccOffsets::defaults();
    Tick compareLineCycles = 2;       //!< wide comparator, 64 B per step
    Tick fsmStepCycles = 6;           //!< per-entry control overhead
    Tick triggerCycles = 20;          //!< trigger-to-first-request
};

/** The near-memory page-merging engine. */
class PageForgeModule : public SimObject
{
  public:
    PageForgeModule(std::string name, EventQueue &eq, MemController &mc,
                    Hierarchy &hierarchy, const PageForgeConfig &config);

    ScanTable &table() { return _table; }
    const PageForgeConfig &config() const { return _config; }

    /**
     * Start processing the Scan Table. Completion is signalled by the
     * Scanned bit; an event applies the results after the modelled
     * processing delay.
     */
    void trigger();

    /**
     * Process the table synchronously at the current tick: results
     * are visible immediately. Used for warm-up fast-forward and
     * deterministic tests; charges the same memory-system traffic.
     * @return the processing duration in ticks
     */
    Tick processNow();

    /** True while a triggered batch is still being processed. */
    bool busy() const { return _busy; }

    /** New candidate loaded: reset the hash accumulator. */
    void beginCandidate();

    /** Reconfigure the sampled offsets (update_ECC_offset). */
    void setEccOffsets(const EccOffsets &offsets);

    /**
     * Fault hook: wedge the module. A wedged module stops making Scan
     * Table progress — a pending batch's completion never applies, a
     * later trigger() raises Busy and then does nothing — until a
     * watchdog force-resets it. Only the event-driven path wedges;
     * processNow() (warm-up, which runs before injection starts)
     * ignores the flag.
     */
    void wedge() { _wedged = true; }
    bool wedged() const { return _wedged; }

    /**
     * Watchdog restart: discard the hung batch (its result, if any
     * was in flight, is lost) and return the FSM to idle. The Scan
     * Table keeps whatever stale state the batch left; the driver
     * flushes and reloads it before the next candidate.
     */
    void
    forceReset()
    {
        _wedged = false;
        _busy = false;
        // Invalidate any still-scheduled completion of the discarded
        // batch: it must not apply a stale result after the restart.
        ++_resetEpoch;
    }

    /** Distribution of batch processing times (Table 5 row 1). */
    const Sampler &tableProcessCycles() const { return _processCycles; }

    std::uint64_t batchesProcessed() const { return _batches.value(); }

    /**
     * Batches whose results actually applied (the watchdog's progress
     * heartbeat). Unlike the work counters — which advance when the
     * walk is computed at trigger time — this only moves when a
     * completion lands, so "busy with no completed batch for several
     * heartbeats" is exactly a wedge, not a long walk in progress.
     */
    std::uint64_t batchesCompleted() const { return _completions; }

    std::uint64_t comparisons() const { return _comparisons.value(); }
    std::uint64_t linesFetched() const { return _linesFetched.value(); }
    std::uint64_t snoopHits() const { return _snoopHits.value(); }
    std::uint64_t dramReads() const { return _dramReads.value(); }
    std::uint64_t duplicatesFound() const { return _duplicates.value(); }

    StatGroup &stats() { return _stats; }
    void resetStats();

  private:
    MemController &_mc;
    Hierarchy &_hierarchy;
    PageForgeConfig _config;
    ScanTable _table;
    EccHashAccumulator _hashAcc;
    bool _busy = false;
    bool _wedged = false;
    std::uint64_t _resetEpoch = 0;
    std::uint64_t _completions = 0; //!< applied batch results

    Sampler _processCycles;
    Counter _comparisons;
    Counter _linesFetched;
    Counter _snoopHits;
    Counter _dramReads;
    Counter _duplicates;
    Counter _batches;
    StatGroup _stats;

    /** Results computed by process(), applied at completion. */
    struct BatchResult
    {
        bool scanned = false;
        bool duplicate = false;
        ScanIndex ptr = scanIndexNone;
        bool hashReady = false;
        std::uint32_t hash = 0;
    };

    /**
     * Walk the table starting at the PFE's Ptr.
     * @param start tick processing begins
     * @param result out: table-visible outcome
     * @return completion tick
     */
    Tick process(Tick start, BatchResult &result);

    /**
     * Fetch one line of a page: on-chip network first, then DRAM.
     * @param snatch_ecc offer the line's ECC code to the accumulator
     * @return tick the line is available at the module
     */
    Tick fetchLine(FrameId frame, std::uint32_t line_idx, Tick now,
                   bool snatch_ecc);

    void applyResult(const BatchResult &result);
};

} // namespace pageforge

#endif // PF_CORE_PAGEFORGE_MODULE_HH
