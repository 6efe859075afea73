/**
 * @file
 * Virtual machine state: the guest-physical address space.
 *
 * Each VM owns a table of guest pages mapping guest page numbers to
 * host frames, plus the per-page bookkeeping that same-page merging
 * needs (mergeable advice, CoW protection, and the hash keys from the
 * previous scan pass).
 */

#ifndef PF_HYPER_VM_HH
#define PF_HYPER_VM_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace pageforge
{

/** Identity of one guest page: the unit same-page merging works on. */
struct PageKey
{
    VmId vm = 0;
    GuestPageNum gpn = 0;

    bool
    operator==(const PageKey &other) const
    {
        return vm == other.vm && gpn == other.gpn;
    }
};

/** Per-guest-page state. */
struct PageState
{
    FrameId frame = invalidFrame;
    bool mapped = false;

    /** Advised MADV_MERGEABLE: eligible for same-page merging. */
    bool mergeable = false;

    /** Write-protected because the frame is (or was) shared. */
    bool cow = false;

    /**
     * Bumped on every guest write to the page. The PageForge driver
     * snapshots it when a candidate is loaded and re-checks it at
     * merge commit: a mismatch means a write raced the in-flight
     * batch and the merge must abort (fault campaigns inject exactly
     * this race).
     */
    std::uint32_t writeVersion = 0;

    // --- merging-daemon bookkeeping (valid for mergeable pages) ---

    /** jhash-based key from the previous scan pass (KSM). */
    std::uint32_t lastJhash = 0;
    bool jhashValid = false;

    /** ECC-based key from the previous scan pass (PageForge). */
    std::uint32_t lastEccKey = 0;
    bool eccKeyValid = false;

    /** Whole-page fingerprint for ground-truth change detection. */
    std::uint64_t lastStrongHash = 0;
    bool strongHashValid = false;

    // --- host-side acceleration state (no modelled semantics) -------
    //
    // The hash-skip cache only lets the simulator skip re-hashing a
    // page whose content is provably unchanged; every modelled
    // statistic behaves as if it did not exist. Page compares keep no
    // such state: every one runs over the whole page from byte 0.

    /**
     * Hash-skip cache: the scan-time hash keys above (lastJhash /
     * lastEccKey / lastStrongHash) were computed from frame hashFrame
     * at write generation hashGen with the ECC offsets packed into
     * hashOffsetsKey. When all three still match, a re-scan recomputes
     * the exact same keys, so the daemons reuse them and charge the
     * identical modelled costs.
     */
    FrameId hashFrame = invalidFrame;
    std::uint64_t hashGen = 0;
    std::uint32_t hashOffsetsKey = 0;

    /** Drop the hash-skip cache (keys changed by a non-scan path). */
    void invalidateHashCache() { hashFrame = invalidFrame; }
};

/** One virtual machine's guest-physical address space. */
class VirtualMachine
{
  public:
    VirtualMachine(VmId id, std::string name, std::size_t num_pages);

    VmId id() const { return _id; }
    const std::string &name() const { return _name; }
    std::size_t numPages() const { return _pages.size(); }

    /** False once the VM has been destroyed; its slot stays around. */
    bool alive() const { return _alive; }
    void setAlive(bool alive) { _alive = alive; }

    PageState &page(GuestPageNum gpn);
    const PageState &page(GuestPageNum gpn) const;

    /** Count of currently mapped guest pages. */
    std::size_t mappedPages() const;

  private:
    VmId _id;
    std::string _name;
    std::vector<PageState> _pages;
    bool _alive = true;
};

} // namespace pageforge

/** Hash support so PageKey can key unordered containers. */
template <>
struct std::hash<pageforge::PageKey>
{
    std::size_t
    operator()(const pageforge::PageKey &key) const noexcept
    {
        return (static_cast<std::size_t>(key.vm) << 32) ^ key.gpn;
    }
};

#endif // PF_HYPER_VM_HH
