/**
 * @file
 * Page handles, accessors and the scan list shared by the merging
 * daemons.
 *
 * The stable tree references merged frames directly (they are
 * write-protected, so their contents — the tree key — cannot change).
 * The unstable tree references guest pages, whose contents may change
 * under it; that inconsistency is tolerated by design and the tree is
 * rebuilt every pass (Section 2.1).
 */

#ifndef PF_KSM_ACCESSORS_HH
#define PF_KSM_ACCESSORS_HH

#include <vector>

#include "hyper/hypervisor.hh"
#include "ksm/content_tree.hh"

namespace pageforge
{

/** Tag bit distinguishing guest-page handles from frame handles. */
constexpr PageHandle guestHandleTag = PageHandle(1) << 63;

/** Encode a frame as a tree handle (stable tree). */
constexpr PageHandle
frameHandle(FrameId frame)
{
    return frame;
}

/** Encode a guest page as a tree handle (unstable tree). */
constexpr PageHandle
guestHandle(const PageKey &key)
{
    return guestHandleTag | (static_cast<PageHandle>(key.vm) << 32) |
        key.gpn;
}

/** Decode a frame handle. */
constexpr FrameId
handleFrame(PageHandle handle)
{
    return static_cast<FrameId>(handle & 0xffffffffULL);
}

/** Decode a guest-page handle. */
constexpr PageKey
handleGuest(PageHandle handle)
{
    return PageKey{static_cast<VmId>((handle >> 32) & 0x7fffffffULL),
                   static_cast<GuestPageNum>(handle & 0xffffffffULL)};
}

/** True when the handle refers to a guest page. */
constexpr bool
isGuestHandle(PageHandle handle)
{
    return (handle & guestHandleTag) != 0;
}

/**
 * Accessor for stable-tree nodes (frame handles).
 *
 * The tree holds a reference on every frame it contains, taken when
 * the node is linked and dropped when it leaves, so the frame stays
 * allocated while the node exists. A frame whose only remaining
 * reference is the tree's (refcount 1) backs no guest page any more:
 * the node is stale and gets pruned. A poisoned (quarantined) frame
 * resolves the same way: the walkers treat it as a prune, dropping
 * the tree's pin, so no future candidate ever merges into it.
 */
class StableAccessor : public PageAccessor
{
  public:
    explicit StableAccessor(PhysicalMemory &mem) : _mem(mem) {}

    const std::uint8_t *
    resolve(PageHandle handle) override
    {
        FrameId frame = handleFrame(handle);
        if (!_mem.isAllocated(frame) || _mem.refCount(frame) <= 1 ||
            _mem.isPoisoned(frame))
            return nullptr;
        return _mem.data(frame);
    }

    void
    retain(PageHandle handle) override
    {
        _mem.addRef(handleFrame(handle));
    }

    void
    release(PageHandle handle) override
    {
        _mem.decRef(handleFrame(handle));
    }

  private:
    PhysicalMemory &_mem;
};

/** Accessor for unstable-tree nodes (guest-page handles). */
class GuestAccessor : public PageAccessor
{
  public:
    explicit GuestAccessor(Hypervisor &hyper) : _hyper(hyper) {}

    const std::uint8_t *
    resolve(PageHandle handle) override
    {
        PageKey key = handleGuest(handle);
        if (key.vm >= _hyper.numVms())
            return nullptr;
        const VirtualMachine &machine = _hyper.vm(key.vm);
        if (key.gpn >= machine.numPages())
            return nullptr;
        const PageState &page = machine.page(key.gpn);
        if (!page.mapped || !page.mergeable ||
            _hyper.memory().isPoisoned(page.frame))
            return nullptr;
        return _hyper.memory().data(page.frame);
    }

  private:
    Hypervisor &_hyper;
};

/** A daemon's snapshot of the pages to scan this pass, and its cursor. */
struct ScanList
{
    std::vector<PageKey> pages;
    std::size_t cursor = 0;

    /** True once every page of the pass has been handed out. */
    bool done() const { return cursor >= pages.size(); }

    /** The next page of the pass. @pre !done() */
    PageKey next() { return pages[cursor++]; }

    /**
     * Drop a destroyed VM's pages, keeping the cursor on the same next
     * page.
     */
    void
    dropVm(VmId vm_id)
    {
        std::size_t kept = 0;
        std::size_t kept_before_cursor = 0;
        for (std::size_t i = 0; i < pages.size(); ++i) {
            if (pages[i].vm == vm_id)
                continue;
            if (i < cursor)
                ++kept_before_cursor;
            pages[kept++] = pages[i];
        }
        pages.resize(kept);
        cursor = kept_before_cursor;
    }
};

} // namespace pageforge

#endif // PF_KSM_ACCESSORS_HH
