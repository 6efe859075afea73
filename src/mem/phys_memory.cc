#include "mem/phys_memory.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "sim/simd.hh"

namespace pageforge
{

PhysicalMemory::PhysicalMemory(std::size_t total_frames,
                               unsigned num_shards)
    : _numShards(num_shards), _meta(total_frames),
      _writeGen(total_frames), _stats("phys_mem")
{
    pf_assert(total_frames > 0, "zero-sized physical memory");
    pf_assert(num_shards >= 1, "physical memory needs >= 1 shard");
    pf_assert(num_shards <= total_frames,
              "more memory-controller shards than frames");

    // calloc, not new[]: the OS maps each sub-arena as copy-on-write
    // zero pages, so untouched frames cost no host RSS and arrive
    // already zeroed (allocFrame skips the memset on first use).
    _arenas.resize(num_shards);
    for (unsigned s = 0; s < num_shards; ++s) {
        std::size_t shard_frames =
            (total_frames + num_shards - 1 - s) / num_shards;
        _arenas[s] = static_cast<std::uint8_t *>(
            std::calloc(shard_frames, pageSize));
        if (!_arenas[s])
            fatal("cannot allocate %zu-frame sub-arena for shard %u",
                  shard_frames, s);
    }

    _freeList.reserve(total_frames);
    // Allocate low frame numbers first, like a simple buddy allocator
    // handing out the bottom of the free list.
    for (std::size_t i = total_frames; i-- > 0;)
        _freeList.push_back(static_cast<FrameId>(i));

    _stats.addCounter("allocs", "frames allocated", _allocs);
    _stats.addCounter("frees", "frames freed", _frees);
    _stats.addStat("in_use", "frames currently allocated",
                   [this] { return static_cast<double>(_inUse); });
    _stats.addStat("peak_in_use", "high-water mark of allocated frames",
                   [this] { return static_cast<double>(_peakInUse); });
    _stats.addStat("poisoned", "frames poisoned by uncorrectable errors",
                   [this] { return static_cast<double>(poisonedFrames()); });
    _stats.addStat("quarantined", "poisoned frames withdrawn for good",
                   [this] { return static_cast<double>(_quarantined); });
}

PhysicalMemory::~PhysicalMemory()
{
    for (std::uint8_t *arena : _arenas)
        std::free(arena);
}

PhysicalMemory::FrameMeta &
PhysicalMemory::frameAt(FrameId frame)
{
    pf_assert(frame < _meta.size(), "frame %u out of range", frame);
    return _meta[frame];
}

const PhysicalMemory::FrameMeta &
PhysicalMemory::frameAt(FrameId frame) const
{
    pf_assert(frame < _meta.size(), "frame %u out of range", frame);
    return _meta[frame];
}

FrameId
PhysicalMemory::allocFrame(bool zero)
{
    if (_freeList.empty())
        fatal("physical memory exhausted (%zu frames)", _meta.size());

    FrameId id = _freeList.back();
    _freeList.pop_back();

    FrameMeta &meta = _meta[id];
    pf_assert(!meta.allocated, "free list returned a live frame");
    pf_assert(!meta.poisoned, "free list returned a poisoned frame");
    // A never-used frame is still in its pristine calloc state; only
    // recycled frames may carry stale bytes that need clearing.
    if (zero && meta.everUsed)
        std::memset(framePtr(id), 0, pageSize);
    meta.refs = 1;
    meta.allocated = true;
    meta.everUsed = true;
    // New content: invalidate every outstanding generation sample.
    ++_writeGen[id];

    ++_allocs;
    ++_inUse;
    _peakInUse = std::max(_peakInUse, _inUse);
    return id;
}

void
PhysicalMemory::addRef(FrameId frame)
{
    FrameMeta &f = frameAt(frame);
    pf_assert(f.allocated, "addRef on free frame %u", frame);
    ++f.refs;
}

bool
PhysicalMemory::decRef(FrameId frame)
{
    FrameMeta &f = frameAt(frame);
    pf_assert(f.allocated && f.refs > 0, "decRef on free frame %u", frame);
    if (--f.refs > 0)
        return false;

    f.allocated = false;
    if (f.poisoned)
        ++_quarantined; // withdrawn for good: never back on the free list
    else
        _freeList.push_back(frame);
    ++_frees;
    --_inUse;
    return true;
}

bool
PhysicalMemory::poisonFrame(FrameId frame)
{
    FrameMeta &f = frameAt(frame);
    if (f.poisoned)
        return false;
    f.poisoned = true;
    _poisonedRefs.emplace(frame, f.allocated ? f.refs : 0);
    if (!f.allocated) {
        // The frame is sitting on the free list: pull it out so it is
        // never handed out again.
        _freeList.erase(
            std::remove(_freeList.begin(), _freeList.end(), frame),
            _freeList.end());
        ++_quarantined;
    }
    return true;
}

std::uint32_t
PhysicalMemory::refCount(FrameId frame) const
{
    const FrameMeta &f = frameAt(frame);
    return f.allocated ? f.refs : 0;
}

bool
PhysicalMemory::isAllocated(FrameId frame) const
{
    return frame < _meta.size() && _meta[frame].allocated;
}

std::uint8_t *
PhysicalMemory::data(FrameId frame)
{
    pf_assert(frameAt(frame).allocated, "data access to free frame %u",
              frame);
    return framePtr(frame);
}

const std::uint8_t *
PhysicalMemory::data(FrameId frame) const
{
    pf_assert(frameAt(frame).allocated, "data access to free frame %u",
              frame);
    return framePtr(frame);
}

void
PhysicalMemory::forEachAllocatedFrame(
    const std::function<void(FrameId, std::uint32_t)> &fn) const
{
    for (std::size_t i = 0; i < _meta.size(); ++i) {
        if (_meta[i].allocated)
            fn(static_cast<FrameId>(i), _meta[i].refs);
    }
}

void
PhysicalMemory::forEachAllocatedFrameOnShard(
    unsigned shard,
    const std::function<void(FrameId, std::uint32_t)> &fn) const
{
    pf_assert(shard < _numShards, "shard %u out of range", shard);
    for (std::size_t i = shard; i < _meta.size(); i += _numShards) {
        if (_meta[i].allocated)
            fn(static_cast<FrameId>(i), _meta[i].refs);
    }
}

bool
PhysicalMemory::framesEqual(FrameId a, FrameId b) const
{
    return simd::rangeEqual(data(a), data(b), pageSize);
}

bool
PhysicalMemory::isZeroFrame(FrameId frame) const
{
    return simd::allZero(data(frame), pageSize);
}

} // namespace pageforge
