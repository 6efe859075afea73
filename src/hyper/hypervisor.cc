#include "hyper/hypervisor.hh"

#include <bit>
#include <cstring>
#include <unordered_map>

#include "ecc/jhash.hh"
#include "fault/merge_oracle.hh"
#include "sim/logging.hh"
#include "sim/simd.hh"

namespace pageforge
{

Hypervisor::Hypervisor(std::string name, EventQueue &eq,
                       PhysicalMemory &mem)
    : SimObject(std::move(name), eq), _mem(mem), _stats(this->name())
{
    _stats.addCounter("soft_faults", "zero-fill first-touch faults",
                      _softFaults);
    _stats.addCounter("cow_breaks", "copy-on-write un-merges", _cowBreaks);
    _stats.addCounter("merges", "page merge operations", _merges);
    _stats.addCounter("vm_clones", "VMs cloned from a template",
                      _vmClones);
    _stats.addCounter("vm_destroys", "VMs torn down", _vmDestroys);
    _stats.addCounter("frames_reclaimed",
                      "frames freed by destroy/reclaim",
                      _framesReclaimed);
}

VmId
Hypervisor::createVm(std::string vm_name, std::size_t num_pages)
{
    VmId id = static_cast<VmId>(_vms.size());
    _vms.push_back(std::make_unique<VirtualMachine>(
        id, std::move(vm_name), num_pages));
    return id;
}

VmId
Hypervisor::cloneVm(std::string vm_name, VmId source)
{
    VirtualMachine &src = vm(source);
    pf_assert(src.alive(), "cloning a dead VM %u", source);

    VmId id = createVm(std::move(vm_name), src.numPages());
    VirtualMachine &dst = vm(id);

    for (GuestPageNum gpn = 0; gpn < src.numPages(); ++gpn) {
        PageState &from = src.page(gpn);
        if (!from.mapped)
            continue;
        // Share the template frame copy-on-write, exactly like a
        // merge: both sides fault a private copy on their next write.
        _mem.setWriteProtected(from.frame, true);
        _mem.addRef(from.frame);
        from.cow = true;

        PageState &to = dst.page(gpn);
        to.frame = from.frame;
        to.mapped = true;
        to.cow = true;
        to.mergeable = from.mergeable;
    }

    ++_vmClones;
    maybeAudit("cloneVm");
    return id;
}

void
Hypervisor::unmapPage(PageState &page, ReclaimOutcome &outcome)
{
    if (_mem.refCount(page.frame) > 1)
        ++outcome.sharedUnshared;
    if (_mem.decRef(page.frame)) {
        ++outcome.framesFreed;
        ++_framesReclaimed;
    }
    ++outcome.pagesUnmapped;
    page = PageState{};
}

ReclaimOutcome
Hypervisor::destroyVm(VmId vm_id)
{
    VirtualMachine &machine = vm(vm_id);
    pf_assert(machine.alive(), "destroying dead VM %u", vm_id);

    ReclaimOutcome outcome;
    for (GuestPageNum gpn = 0; gpn < machine.numPages(); ++gpn) {
        PageState &page = machine.page(gpn);
        if (page.mapped)
            unmapPage(page, outcome);
    }
    machine.setAlive(false);
    ++_vmDestroys;

    // Notify the merging daemons after the mappings are gone so their
    // stale-entry resolution sees the pages as dead. A stable-tree
    // prune here may free further frames whose only remaining
    // reference was the tree's pin.
    for (const auto &[token, fn] : _destroyListeners)
        fn(vm_id);

    maybeAudit("destroyVm");
    return outcome;
}

ReclaimOutcome
Hypervisor::reclaimPage(VmId vm_id, GuestPageNum gpn)
{
    ReclaimOutcome outcome;
    PageState &page = stateOf(vm_id, gpn);
    if (page.mapped) {
        unmapPage(page, outcome);
        maybeAudit("reclaimPage");
    }
    return outcome;
}

bool
Hypervisor::vmAlive(VmId vm_id) const
{
    return vm_id < _vms.size() && _vms[vm_id]->alive();
}

std::uint64_t
Hypervisor::mappedPageCount() const
{
    std::uint64_t n = 0;
    for (const auto &machine : _vms)
        n += machine->mappedPages();
    return n;
}

int
Hypervisor::addVmDestroyListener(std::function<void(VmId)> fn)
{
    int token = _nextToken++;
    _destroyListeners.emplace_back(token, std::move(fn));
    return token;
}

void
Hypervisor::removeVmDestroyListener(int token)
{
    std::erase_if(_destroyListeners,
                  [token](const auto &entry) {
                      return entry.first == token;
                  });
}

int
Hypervisor::addPinProvider(std::function<std::uint64_t()> fn)
{
    int token = _nextToken++;
    _pinProviders.emplace_back(token, std::move(fn));
    return token;
}

void
Hypervisor::removePinProvider(int token)
{
    std::erase_if(_pinProviders,
                  [token](const auto &entry) {
                      return entry.first == token;
                  });
}

FrameAuditReport
Hypervisor::auditFrames() const
{
    FrameAuditReport report;

    // Count guest mappings per frame across live VMs.
    std::unordered_map<FrameId, std::uint64_t> mappings;
    for (const auto &machine : _vms) {
        for (GuestPageNum gpn = 0; gpn < machine->numPages(); ++gpn) {
            const PageState &page = machine->page(gpn);
            if (!page.mapped)
                continue;
            ++report.mappingsAudited;
            if (!_mem.isAllocated(page.frame)) {
                report.ok = false;
                report.problem = "vm " +
                    std::to_string(machine->id()) + " gpn " +
                    std::to_string(gpn) + " maps free frame " +
                    std::to_string(page.frame);
                return report;
            }
            ++mappings[page.frame];
        }
    }

    // Every allocated frame must carry at least its mapping count;
    // the surplus across all frames must equal the daemons' pins
    // (stable-tree nodes, in-flight Scan Table batches). Walk the
    // frames shard by shard — the per-MC homing, not a contiguous
    // arena, is the authoritative layout — so the audit composes with
    // any number of memory controllers. The surplus sum is
    // order-insensitive, so a single-MC machine reports identically.
    std::uint64_t surplus = 0;
    for (unsigned shard = 0; shard < _mem.numShards(); ++shard) {
        _mem.forEachAllocatedFrameOnShard(
            shard, [&](FrameId frame, std::uint32_t refs) {
                ++report.framesAudited;
                if (!report.ok)
                    return;
                auto it = mappings.find(frame);
                std::uint64_t mapped =
                    it == mappings.end() ? 0 : it->second;
                if (refs < mapped) {
                    report.ok = false;
                    report.problem = "frame " + std::to_string(frame) +
                        " (mc " + std::to_string(shard) + ") refs " +
                        std::to_string(refs) + " < mappings " +
                        std::to_string(mapped);
                    return;
                }
                surplus += refs - mapped;
            });
    }
    if (!report.ok)
        return report;

    std::uint64_t pins = 0;
    for (const auto &[token, fn] : _pinProviders)
        pins += fn();
    if (surplus != pins) {
        report.ok = false;
        report.problem = "unaccounted frame references: surplus " +
            std::to_string(surplus) + " != daemon pins " +
            std::to_string(pins);
    }
    return report;
}

void
Hypervisor::maybeAudit(const char *where)
{
    if (!_invariantChecks)
        return;
    FrameAuditReport report = auditFrames();
    if (!report.ok)
        panicAt("hypervisor", curTick(),
                "frame invariant violated after %s: %s", where,
                report.problem.c_str());
}

VirtualMachine &
Hypervisor::vm(VmId id)
{
    pf_assert(id < _vms.size(), "unknown VM %u", id);
    return *_vms[id];
}

const VirtualMachine &
Hypervisor::vm(VmId id) const
{
    pf_assert(id < _vms.size(), "unknown VM %u", id);
    return *_vms[id];
}

PageState &
Hypervisor::stateOf(VmId vm_id, GuestPageNum gpn)
{
    return vm(vm_id).page(gpn);
}

FrameId
Hypervisor::touchPage(VmId vm_id, GuestPageNum gpn)
{
    PageState &page = stateOf(vm_id, gpn);
    if (!page.mapped) {
        // The hypervisor zeroes pages before handing them to a guest
        // to avoid information leakage (Section 6.1).
        page.frame = _mem.allocFrame(true);
        page.mapped = true;
        page.cow = false;
        page.cowSrcFrame = invalidFrame;
        page.invalidateHashCache();
        ++_softFaults;
    }
    return page.frame;
}

bool
Hypervisor::forkValid(const PageState &page) const
{
    // allocFrame bumps the generation, so a freed-and-recycled source
    // (or one written since the fork) can never validate.
    return page.mapped && page.cowSrcFrame != invalidFrame &&
        _mem.isAllocated(page.cowSrcFrame) &&
        _mem.writeGen(page.cowSrcFrame) == page.cowSrcGen;
}

namespace
{

/**
 * Equality of two frames given that every line whose bit is clear in
 * @p mask is already known identical: only set lines are compared.
 */
bool
maskedFramesEqual(const PhysicalMemory &mem, FrameId a, FrameId b,
                  std::uint64_t mask)
{
    const std::uint8_t *da = mem.data(a);
    const std::uint8_t *db = mem.data(b);
    while (mask) {
        std::uint32_t line =
            static_cast<std::uint32_t>(std::countr_zero(mask));
        mask &= mask - 1;
        if (!simd::rangeEqual(da + line * lineSize, db + line * lineSize,
                              lineSize))
            return false;
    }
    return true;
}

} // namespace

bool
Hypervisor::pageEqualsFrame(const PageState &page, FrameId target) const
{
    if (page.frame == target)
        return true;
    if (forkValid(page) && page.cowSrcFrame == target) {
        // Clean lines of the fork still match the (unchanged) source,
        // so only dirtied lines can differ.
        std::uint64_t dirty = _mem.dirtyMask(page.frame);
        if (std::popcount(dirty) <= simd::maskedCompareMaxLines)
            return maskedFramesEqual(_mem, page.frame, target, dirty);
    }
    return _mem.framesEqual(page.frame, target);
}

bool
Hypervisor::pagesEqual(const PageState &a, const PageState &b) const
{
    if (a.frame == b.frame)
        return true;
    if (forkValid(a) && a.cowSrcFrame == b.frame)
        return pageEqualsFrame(a, b.frame);
    if (forkValid(b) && b.cowSrcFrame == a.frame)
        return pageEqualsFrame(b, a.frame);
    if (forkValid(a) && forkValid(b) && a.cowSrcFrame == b.cowSrcFrame) {
        // Sibling forks of one unchanged source: lines clean on both
        // sides equal the source's, hence each other.
        std::uint64_t dirty =
            _mem.dirtyMask(a.frame) | _mem.dirtyMask(b.frame);
        if (std::popcount(dirty) <= simd::maskedCompareMaxLines)
            return maskedFramesEqual(_mem, a.frame, b.frame, dirty);
    }
    return _mem.framesEqual(a.frame, b.frame);
}

WriteOutcome
Hypervisor::writeToPage(VmId vm_id, GuestPageNum gpn,
                        std::uint32_t offset, const void *src,
                        std::uint32_t len)
{
    pf_assert(offset + len <= pageSize, "write past page end");

    WriteOutcome outcome;
    PageState &page = stateOf(vm_id, gpn);

    if (!page.mapped) {
        touchPage(vm_id, gpn);
        outcome.faulted = true;
    }

    if (page.cow || _mem.refCount(page.frame) > 1 ||
        _mem.isPoisoned(page.frame)) {
        // Copy-on-write: give the writer a private copy and leave the
        // shared frame (and the other mappings) intact. Writes also
        // migrate guests off poisoned frames, draining them toward
        // full quarantine.
        FrameId source = page.frame;
        // Sample the source generation before the copy: while the
        // source still holds it, the copy's clean lines are provably
        // identical to the source's.
        std::uint64_t source_gen = _mem.writeGen(source);
        FrameId copy = _mem.allocFrame(false);
        std::memcpy(_mem.data(copy), _mem.data(source), pageSize);
        // The copy now byte-matches the source: anchor its dirty mask
        // and record the fork so later compares against the source (or
        // a sibling fork) only need to look at dirtied lines.
        _mem.clearDirty(copy);
        page.cowSrcFrame = source;
        page.cowSrcGen = source_gen;
        _mem.decRef(source);
        page.frame = copy;
        page.cow = false;
        outcome.cowBroken = true;
        ++_cowBreaks;
        probe().instant("cow-break", curTick(),
                        {"vm", static_cast<double>(vm_id)},
                        {"frame", static_cast<double>(copy)});
        maybeAudit("cowBreak");
    }

    std::memcpy(_mem.data(page.frame) + offset, src, len);
    _mem.noteWrite(page.frame, offset, len);
    ++page.writeVersion;
    outcome.frame = page.frame;
    return outcome;
}

const std::uint8_t *
Hypervisor::pageData(VmId vm_id, GuestPageNum gpn)
{
    FrameId frame = touchPage(vm_id, gpn);
    return _mem.data(frame);
}

FrameId
Hypervisor::frameOf(VmId vm_id, GuestPageNum gpn) const
{
    const PageState &page = vm(vm_id).page(gpn);
    return page.mapped ? page.frame : invalidFrame;
}

void
Hypervisor::markMergeable(VmId vm_id, GuestPageNum first,
                          std::size_t count)
{
    VirtualMachine &machine = vm(vm_id);
    pf_assert(first + count <= machine.numPages(),
              "madvise range past end of VM");
    for (std::size_t i = 0; i < count; ++i)
        machine.page(first + static_cast<GuestPageNum>(i)).mergeable =
            true;
}

std::vector<PageKey>
Hypervisor::mergeablePages() const
{
    std::vector<PageKey> keys;
    for (const auto &machine : _vms) {
        for (GuestPageNum gpn = 0; gpn < machine->numPages(); ++gpn) {
            const PageState &page = machine->page(gpn);
            if (page.mapped && page.mergeable)
                keys.push_back(PageKey{machine->id(), gpn});
        }
    }
    return keys;
}

bool
Hypervisor::mergeIntoFrame(const PageKey &candidate, FrameId target)
{
    PageState &page = stateOf(candidate.vm, candidate.gpn);
    pf_assert(page.mapped, "merging an unmapped page");
    pf_assert(_mem.isAllocated(target), "merging into a free frame");

    if (page.frame == target)
        return false;

    // The shadow oracle inspects the commit independently (and first,
    // so a violation is counted even though we then refuse to merge).
    bool equal = true;
    if (_oracle) {
        // Frames homing on different controllers mean this commit came
        // through a cross-MC handoff; the oracle tags those checks.
        bool cross_mc =
            page.frame % _mem.numShards() != target % _mem.numShards();
        equal = _oracle->check(_mem.data(page.frame), _mem.data(target),
                               cross_mc);
    }

    // Merging unequal pages would corrupt guest memory; the final
    // compare under write protection (Section 3.5) guarantees this.
    if (!equal || !pageEqualsFrame(page, target))
        panicAt("hypervisor", curTick(),
                "merge of non-identical pages (vm %u gpn %llu -> "
                "frame %u)",
                candidate.vm,
                static_cast<unsigned long long>(candidate.gpn), target);

    FrameId old_frame = page.frame;
    // The cached hash keys were computed from the old private frame;
    // when still current they describe content just proven equal to
    // the target, so re-point the cache instead of dropping it.
    bool hashes_current = page.hashFrame == old_frame &&
        page.hashGen == _mem.writeGen(old_frame);
    _mem.setWriteProtected(target, true);
    _mem.addRef(target);
    _mem.decRef(old_frame);
    page.frame = target;
    page.cow = true;
    page.cowSrcFrame = invalidFrame;
    if (hashes_current) {
        page.hashFrame = target;
        page.hashGen = _mem.writeGen(target);
    } else {
        page.invalidateHashCache();
    }
    ++_merges;
    probe().instant("merge", curTick(),
                    {"vm", static_cast<double>(candidate.vm)},
                    {"frame", static_cast<double>(target)});
    maybeAudit("mergeIntoFrame");
    return true;
}

bool
Hypervisor::tryMergeIntoFrame(const PageKey &candidate, FrameId target)
{
    const PageState &page = vm(candidate.vm).page(candidate.gpn);
    if (!page.mapped || !_mem.isAllocated(target))
        return false;
    if (page.frame == target)
        return false;
    if (!pageEqualsFrame(page, target))
        return false;
    return mergeIntoFrame(candidate, target);
}

FrameId
Hypervisor::mergePair(const PageKey &candidate, const PageKey &keeper)
{
    PageState &keep = stateOf(keeper.vm, keeper.gpn);
    pf_assert(keep.mapped, "merge keeper is unmapped");
    _mem.setWriteProtected(keep.frame, true);
    keep.cow = true;

    bool merged = mergeIntoFrame(candidate, keep.frame);
    pf_assert(merged || frameOf(candidate.vm, candidate.gpn) == keep.frame,
              "mergePair failed to share the keeper frame");
    return keep.frame;
}

DupAnalysis
Hypervisor::analyzeDuplication() const
{
    DupAnalysis analysis;

    // Group every mapped guest page by content fingerprint. A 64-bit
    // FNV over the full page makes accidental collisions negligible
    // for analysis purposes (merging itself always compares bytes).
    struct Group
    {
        std::uint64_t pages = 0;
        bool zero = false;
    };
    std::unordered_map<std::uint64_t, Group> groups;
    std::unordered_map<FrameId, bool> frames;

    for (const auto &machine : _vms) {
        for (GuestPageNum gpn = 0; gpn < machine->numPages(); ++gpn) {
            const PageState &page = machine->page(gpn);
            if (!page.mapped)
                continue;
            ++analysis.mappedPages;
            frames[page.frame] = true;

            const std::uint8_t *data = _mem.data(page.frame);
            std::uint64_t fp = pageFingerprint64(data, pageSize);
            Group &group = groups[fp];
            if (group.pages == 0)
                group.zero = _mem.isZeroFrame(page.frame);
            ++group.pages;
        }
    }

    analysis.framesUsed = frames.size();
    for (const auto &[fp, group] : groups) {
        if (group.zero) {
            analysis.mergeableZero += group.pages;
            ++analysis.framesIfFullyMerged;
        } else if (group.pages > 1) {
            analysis.mergeableNonZero += group.pages;
            ++analysis.framesIfFullyMerged;
        } else {
            ++analysis.unmergeable;
            ++analysis.framesIfFullyMerged;
        }
    }
    return analysis;
}

} // namespace pageforge
