/**
 * @file
 * Host physical memory: frames with real backing data.
 *
 * Pages hold actual bytes so that same-page merging in this simulator
 * is content-based for real: KSM and PageForge compare and merge real
 * data, and the two implementations can be cross-checked for the
 * paper's claim of identical memory savings.
 *
 * Frames are reference-counted: a frame shared by several guest pages
 * after merging is freed only when the last mapping goes away.
 *
 * Frame data lives in one contiguous sub-arena per memory-controller
 * shard: with S shards, frame f resides at offset (f / S) * pageSize
 * inside sub-arena f % S, the channel-interleaved homing the multi-MC
 * machine uses. data() is pure pointer arithmetic either way, frames
 * homed on the same controller are adjacent in host memory (per-shard
 * scan loops stream), and each sub-arena is obtained zeroed from the
 * OS so first-touch frames need no memset. With the default single
 * shard the layout degenerates to the classic single arena.
 */

#ifndef PF_MEM_PHYS_MEMORY_HH
#define PF_MEM_PHYS_MEMORY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"
#include "stats/stat_group.hh"

namespace pageforge
{

/** Frame-granular host physical memory. */
class PhysicalMemory
{
  public:
    /**
     * @param total_frames capacity of the machine in 4 KB frames
     * @param num_shards memory-controller shards backing the frames;
     *        frame f is homed on shard f % num_shards
     */
    explicit PhysicalMemory(std::size_t total_frames,
                            unsigned num_shards = 1);
    ~PhysicalMemory();

    PhysicalMemory(const PhysicalMemory &) = delete;
    PhysicalMemory &operator=(const PhysicalMemory &) = delete;

    /**
     * Allocate a frame with refcount 1.
     * @param zero when true the frame is zero-filled, modelling the
     *        hypervisor's zeroing of pages handed to guests
     * @return the new frame id
     */
    FrameId allocFrame(bool zero = true);

    /** Increment a frame's mapping count. */
    void addRef(FrameId frame);

    /**
     * Decrement a frame's mapping count, freeing it at zero.
     * @return true if the frame was freed
     */
    bool decRef(FrameId frame);

    /** Current mapping count of an allocated frame. */
    std::uint32_t refCount(FrameId frame) const;

    /** True when the frame is currently allocated. */
    bool isAllocated(FrameId frame) const;

    /** Mutable backing data of a frame (pageSize bytes). */
    std::uint8_t *data(FrameId frame);

    /** Read-only backing data of a frame. */
    const std::uint8_t *data(FrameId frame) const;

    /** Pointer to line @p line_idx of the frame. */
    const std::uint8_t *
    lineData(FrameId frame, std::uint32_t line_idx) const
    {
        return data(frame) + line_idx * lineSize;
    }

    /**
     * Backing data of a frame whether or not it is allocated. DRAM
     * cells outlive the allocator's bookkeeping: after a VM teardown
     * frees a frame, its dirty lines can still be written back from
     * the caches, and the memory controller's data path (ECC model)
     * must tolerate that. Never-touched frames read as zeroes.
     */
    const std::uint8_t *
    rawData(FrameId frame) const
    {
        pf_assert(frame < _meta.size(), "frame %u out of range", frame);
        return framePtr(frame);
    }

    /**
     * Quarantine a frame after an uncorrectable DRAM error. A
     * poisoned frame keeps serving its current mappings (the arena
     * copy is the functional ground truth; the error lives on the
     * modelled read path), but it is withdrawn from circulation: the
     * daemons prune it from their trees and skip it as a candidate,
     * and once its last mapping goes away it is never re-allocated.
     * @return true when the frame was newly poisoned
     */
    bool poisonFrame(FrameId frame);

    /** True when the frame has been quarantined by poisonFrame(). */
    bool
    isPoisoned(FrameId frame) const
    {
        return frame < _meta.size() && _meta[frame].poisoned;
    }

    /** Frames ever poisoned (allocated or not). */
    std::size_t poisonedFrames() const { return _poisonedRefs.size(); }

    /**
     * Every poisoned frame with its refcount when it was poisoned (0
     * if it was free). A quarantined frame gains no sharer, so its
     * guest mappings never exceed that count; Hypervisor::auditFrames()
     * checks this. Empty unless a frame was poisoned.
     */
    const std::map<FrameId, std::uint32_t> &
    poisonedRefs() const
    {
        return _poisonedRefs;
    }

    /**
     * Poisoned frames fully withdrawn from the allocator (no longer
     * allocated and permanently off the free list). The remainder up
     * to poisonedFrames() are still mapped and drain toward
     * quarantine as guests write (CoW migration) or unmap.
     */
    std::size_t quarantinedFrames() const { return _quarantined; }

    /**
     * Record a content mutation of @p frame: bumps its write
     * generation. Every write to the arena must go through here (the
     * hypervisor's write path does; the arena is never written
     * elsewhere), so an unchanged generation proves the frame's bytes
     * are unchanged. The range is checked but not tracked.
     */
    void
    noteWrite(FrameId frame, std::uint32_t offset, std::uint32_t len)
    {
        pf_assert(frame < _meta.size(), "frame %u out of range", frame);
        pf_assert(offset + len <= pageSize, "write past frame end");
        ++_writeGen[frame];
    }

    /**
     * Content generation: equal samples bracket an interval with no
     * content mutation. Readable for any frame id (freed frames keep
     * their last generation; reallocation bumps it).
     */
    std::uint64_t
    writeGen(FrameId frame) const
    {
        pf_assert(frame < _meta.size(), "frame %u out of range", frame);
        return _writeGen[frame];
    }

    /** Byte-exact comparison of two frames' contents. */
    bool framesEqual(FrameId a, FrameId b) const;

    /** True when every byte of the frame is zero. */
    bool isZeroFrame(FrameId frame) const;

    /** Visit every allocated frame with its current mapping count. */
    void forEachAllocatedFrame(
        const std::function<void(FrameId, std::uint32_t)> &fn) const;

    /**
     * Visit every allocated frame homed on shard @p shard (frames with
     * frame % numShards() == shard), in ascending frame order. With
     * one shard this is forEachAllocatedFrame().
     */
    void forEachAllocatedFrameOnShard(
        unsigned shard,
        const std::function<void(FrameId, std::uint32_t)> &fn) const;

    /** Memory-controller shards backing the frames. */
    unsigned numShards() const { return _numShards; }

    /** Frames currently allocated. */
    std::size_t framesInUse() const { return _inUse; }

    /** High-water mark of allocated frames. */
    std::size_t peakFramesInUse() const { return _peakInUse; }

    /** Machine capacity in frames. */
    std::size_t totalFrames() const { return _meta.size(); }

    StatGroup &stats() { return _stats; }

  private:
    struct FrameMeta
    {
        std::uint32_t refs = 0;
        bool allocated = false;
        bool everUsed = false; //!< handed out at least once since boot
        bool poisoned = false; //!< quarantined by an uncorrectable error
    };

    unsigned _numShards = 1;
    std::vector<std::uint8_t *> _arenas; //!< one sub-arena per shard
    std::vector<FrameMeta> _meta;
    std::vector<std::uint64_t> _writeGen; //!< per-frame content gen
    std::vector<FrameId> _freeList;
    std::size_t _inUse = 0;
    std::size_t _peakInUse = 0;
    std::map<FrameId, std::uint32_t> _poisonedRefs;
    std::size_t _quarantined = 0;

    Counter _allocs;
    Counter _frees;
    StatGroup _stats;

    FrameMeta &frameAt(FrameId frame);
    const FrameMeta &frameAt(FrameId frame) const;

    /** Backing bytes of a frame: sub-arena frame % S, slot frame / S. */
    std::uint8_t *
    framePtr(FrameId frame) const
    {
        return _arenas[frame % _numShards] +
               static_cast<std::size_t>(frame / _numShards) * pageSize;
    }
};

} // namespace pageforge

#endif // PF_MEM_PHYS_MEMORY_HH
