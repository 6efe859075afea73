/**
 * @file
 * The hypervisor: guest memory management and merge/CoW mechanics.
 *
 * Implements the functional half of Figure 1: zero-filled allocation
 * on first touch, guest-physical to host-physical remapping when pages
 * merge, copy-on-write un-merging when a shared page is written, and
 * the madvise(MADV_MERGEABLE) bookkeeping the merging daemons consume.
 *
 * Timing costs (fault overhead, copy traffic) are charged by the
 * callers — the workload model and the merging daemons — using the
 * outcome flags returned here.
 */

#ifndef PF_HYPER_HYPERVISOR_HH
#define PF_HYPER_HYPERVISOR_HH

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "hyper/vm.hh"
#include "mem/phys_memory.hh"
#include "sim/sim_object.hh"

namespace pageforge
{

class MergeOracle;

/** Result of a guest write. */
struct WriteOutcome
{
    FrameId frame = invalidFrame; //!< frame holding the page afterwards
    bool faulted = false;         //!< first-touch zero-fill fault taken
    bool cowBroken = false;       //!< a CoW copy was made (un-merge)
};

/** Why a merge commit did or did not share the target frame. */
enum class MergeOutcome
{
    Merged,   //!< the candidate now maps the target
    Gone,     //!< candidate unmapped, target free, or already on it
    Diverged, //!< the final compare found different bytes
    Poisoned, //!< the target is poisoned and gains no sharer
};

/** Breakdown of guest pages by mergeability (Figure 7). */
struct DupAnalysis
{
    std::uint64_t mappedPages = 0;     //!< frames if nothing merged
    std::uint64_t unmergeable = 0;     //!< unique non-zero pages
    std::uint64_t mergeableZero = 0;   //!< all-zero pages
    std::uint64_t mergeableNonZero = 0;//!< non-zero pages with a twin
    std::uint64_t framesUsed = 0;      //!< distinct frames backing guests
    std::uint64_t framesIfFullyMerged = 0; //!< lower bound on frames

    /** Fraction of the unmerged footprint still allocated. */
    double
    footprintRatio() const
    {
        return mappedPages
            ? static_cast<double>(framesUsed) /
                static_cast<double>(mappedPages)
            : 0.0;
    }
};

/** What unmapping guest pages gave back (destroyVm / reclaimPage). */
struct ReclaimOutcome
{
    std::uint64_t pagesUnmapped = 0;  //!< guest mappings torn down
    std::uint64_t framesFreed = 0;    //!< frames returned to the pool
    std::uint64_t sharedUnshared = 0; //!< mappings that left a shared
                                      //!< frame behind (refs > 1)
};

/** Result of the frame/mapping invariant audit. */
struct FrameAuditReport
{
    bool ok = true;
    std::string problem;              //!< first violation found
    std::uint64_t framesAudited = 0;
    std::uint64_t mappingsAudited = 0;
};

/** The hypervisor. */
class Hypervisor : public SimObject
{
  public:
    Hypervisor(std::string name, EventQueue &eq, PhysicalMemory &mem);

    /** Deploy a VM with @p num_pages of guest-physical memory. */
    VmId createVm(std::string vm_name, std::size_t num_pages);

    /**
     * Clone a VM from a template: the clone's guest pages share the
     * template's frames copy-on-write, so every mapped page starts out
     * byte-identical (and instantly mergeable where the template page
     * was advised mergeable). A poisoned template frame gains no
     * sharer: the clone gets a private copy of it instead.
     */
    VmId cloneVm(std::string vm_name, VmId source);

    /**
     * Tear a VM down: every mapped page is unmapped, shared-frame
     * refcounts are decremented, and sole-owner frames go back to the
     * free pool. The VM slot stays (ids are stable) but is marked
     * dead; registered destroy listeners (the merging daemons) are
     * notified so they can drop stale tree/Scan-Table entries.
     */
    ReclaimOutcome destroyVm(VmId vm_id);

    /** Unmap a single guest page (ballooning). No-op when unmapped. */
    ReclaimOutcome reclaimPage(VmId vm_id, GuestPageNum gpn);

    /** True for a valid, not-yet-destroyed VM id. */
    bool vmAlive(VmId vm_id) const;

    /** Mapped guest pages across all live VMs. */
    std::uint64_t mappedPageCount() const;

    /**
     * Register a callback run after a VM's pages were unmapped in
     * destroyVm. @return a token for removeVmDestroyListener.
     */
    int addVmDestroyListener(std::function<void(VmId)> fn);
    void removeVmDestroyListener(int token);

    /**
     * Register a source of daemon-held frame pins (stable-tree nodes,
     * in-flight Scan Table batches) so the audit can account for
     * references that have no guest mapping.
     * @return a token for removePinProvider
     */
    int addPinProvider(std::function<std::uint64_t()> fn);
    void removePinProvider(int token);

    /**
     * Check that every allocated frame's refcount equals its guest
     * mappings plus daemon pins, and that every mapping points at an
     * allocated frame.
     */
    FrameAuditReport auditFrames() const;

    /**
     * Debug-level invariant checking: when enabled, auditFrames runs
     * after every merge, CoW break, and reclaim, and panics on a
     * violation. Off by default (it walks all of physical memory).
     */
    void setInvariantChecking(bool on) { _invariantChecks = on; }

    /**
     * Install the merge oracle (fault campaigns): every merge commit
     * is shadow-checked with an independent whole-page memcmp before
     * any mapping changes. Pass nullptr to remove.
     */
    void setMergeOracle(MergeOracle *oracle) { _oracle = oracle; }
    MergeOracle *mergeOracle() { return _oracle; }

    unsigned numVms() const { return static_cast<unsigned>(_vms.size()); }
    VirtualMachine &vm(VmId id);
    const VirtualMachine &vm(VmId id) const;

    PhysicalMemory &memory() { return _mem; }

    /**
     * Ensure a guest page is backed by a frame, zero-filling on first
     * touch (the soft page fault of Section 6.1).
     * @return the backing frame
     */
    FrameId touchPage(VmId vm_id, GuestPageNum gpn);

    /**
     * Guest write of @p len bytes at @p offset within a page. Applies
     * CoW: writing a shared or protected page allocates a private copy
     * first, reverting the mapping as in Figure 1(a).
     */
    WriteOutcome writeToPage(VmId vm_id, GuestPageNum gpn,
                             std::uint32_t offset, const void *src,
                             std::uint32_t len);

    /** Read-only view of a guest page's current data (touches it). */
    const std::uint8_t *pageData(VmId vm_id, GuestPageNum gpn);

    /** Current backing frame of a guest page (invalidFrame if none). */
    FrameId frameOf(VmId vm_id, GuestPageNum gpn) const;

    /** madvise(MADV_MERGEABLE) over a range of guest pages. */
    void markMergeable(VmId vm_id, GuestPageNum first,
                       std::size_t count);

    /** All currently mergeable, mapped pages, in scan order. */
    std::vector<PageKey> mergeablePages() const;

    /**
     * The merging daemons' candidate check: a page is worth a scan
     * when its VM is alive, it is mapped and advised mergeable, and its
     * frame is neither poisoned nor already shared (a shared frame
     * lives in the stable tree).
     *
     * @return the page's state, or nullptr when @p key is no candidate
     */
    PageState *mergeCandidate(const PageKey &key);

    /**
     * Algorithm 1's merge commit (Section 3.5): the final whole-page
     * compare of @p candidate against @p target under write
     * protection, then the remap. Both merging daemons commit through
     * here, so the refusals below hold for both.
     *
     * @return Gone when the candidate is unmapped, the target is free
     *         or the candidate already maps it; Diverged when the bytes
     *         differ; Poisoned (counted) when the target is poisoned;
     *         otherwise Merged, after the oracle check, the remap and
     *         the write protection
     */
    MergeOutcome mergeIntoFrame(const PageKey &candidate, FrameId target);

    /**
     * Merge two unshared guest pages with equal contents: @p keeper 's
     * frame becomes the shared, write-protected frame and @p candidate
     * is remapped onto it via mergeIntoFrame(). A refused keeper is
     * left untouched; a poisoned candidate may still drain onto a
     * healthy keeper.
     *
     * @return Gone for an unmapped keeper, else mergeIntoFrame()'s
     *         outcome
     */
    MergeOutcome mergePair(const PageKey &candidate, const PageKey &keeper);

    /** Total merge operations performed. */
    std::uint64_t merges() const { return _merges.value(); }

    /** Merges refused because the target frame was poisoned. */
    std::uint64_t poisonedMergeRefusals() const
    {
        return _poisonedMergeRefusals.value();
    }

    /** Total CoW breaks (un-merges) performed. */
    std::uint64_t cowBreaks() const { return _cowBreaks.value(); }

    /** Total first-touch zero-fill faults. */
    std::uint64_t softFaults() const { return _softFaults.value(); }

    /** Total VM destroys performed. */
    std::uint64_t vmDestroys() const { return _vmDestroys.value(); }

    /** Classify every guest page for the Figure 7 breakdown. */
    DupAnalysis analyzeDuplication() const;

    StatGroup &stats() { return _stats; }

  private:
    /** A fresh frame holding a copy of @p source's bytes. */
    FrameId copyFrame(FrameId source);

    PhysicalMemory &_mem;
    std::vector<std::unique_ptr<VirtualMachine>> _vms;

    std::vector<std::pair<int, std::function<void(VmId)>>>
        _destroyListeners;
    std::vector<std::pair<int, std::function<std::uint64_t()>>>
        _pinProviders;
    int _nextToken = 0;
    bool _invariantChecks = false;
    MergeOracle *_oracle = nullptr;

    Counter _softFaults;
    Counter _cowBreaks;
    Counter _merges;
    Counter _poisonedMergeRefusals;
    Counter _vmClones;
    Counter _vmDestroys;
    Counter _framesReclaimed;
    StatGroup _stats;

    PageState &stateOf(VmId vm_id, GuestPageNum gpn);

    /** Unmap one mapped page into @p outcome (no audit, no listeners). */
    void unmapPage(PageState &page, ReclaimOutcome &outcome);

    /** Run the audit and panic on violation (when checking is on). */
    void maybeAudit(const char *where);
};

} // namespace pageforge

#endif // PF_HYPER_HYPERVISOR_HH
