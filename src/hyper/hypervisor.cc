#include "hyper/hypervisor.hh"

#include <cstring>
#include <unordered_map>

#include "ecc/jhash.hh"
#include "fault/merge_oracle.hh"
#include "sim/logging.hh"

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
    _stats.addCounter("poisoned_merge_refusals",
                      "merges refused into a poisoned frame",
                      _poisonedMergeRefusals);
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
        PageState &to = dst.page(gpn);
        to.mapped = true;
        to.mergeable = from.mergeable;
        if (_mem.isPoisoned(from.frame)) {
            // A quarantined frame gains no sharer.
            to.frame = copyFrame(from.frame);
            continue;
        }
        // Share the template frame copy-on-write, exactly like a
        // merge: both sides fault a private copy on their next write.
        _mem.addRef(from.frame);
        from.cow = true;
        to.frame = from.frame;
        to.cow = true;
    }

    ++_vmClones;
    maybeAudit("cloneVm");
    return id;
}

FrameId
Hypervisor::copyFrame(FrameId source)
{
    FrameId copy = _mem.allocFrame(false);
    std::memcpy(_mem.data(copy), _mem.data(source), pageSize);
    return copy;
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

    // A poisoned frame gains no sharer: its guest mappings never
    // exceed its refcount when it was poisoned. (Compare mappings,
    // not refs: refs also count the daemons' pins.)
    for (const auto &[frame, refs] : _mem.poisonedRefs()) {
        auto it = mappings.find(frame);
        if (it != mappings.end() && it->second > refs) {
            report.ok = false;
            report.problem = "poisoned frame " + std::to_string(frame) +
                " gained a sharer: mappings " +
                std::to_string(it->second) + " > refs when poisoned " +
                std::to_string(refs);
            return report;
        }
    }

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
        page.invalidateHashCache();
        ++_softFaults;
    }
    return page.frame;
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
        FrameId copy = copyFrame(source);
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

PageState *
Hypervisor::mergeCandidate(const PageKey &key)
{
    if (!vmAlive(key.vm))
        return nullptr;
    VirtualMachine &machine = *_vms[key.vm];
    if (key.gpn >= machine.numPages())
        return nullptr;
    PageState &page = machine.page(key.gpn);
    if (!page.mapped || !page.mergeable || _mem.isPoisoned(page.frame) ||
        _mem.refCount(page.frame) > 1)
        return nullptr;
    return &page;
}

MergeOutcome
Hypervisor::mergeIntoFrame(const PageKey &candidate, FrameId target)
{
    PageState &page = stateOf(candidate.vm, candidate.gpn);
    if (!page.mapped || !_mem.isAllocated(target) || page.frame == target)
        return MergeOutcome::Gone;
    // The final compare under write protection (Section 3.5): a write
    // since the daemon's compare, or a false hardware match, lands here.
    if (!_mem.framesEqual(page.frame, target))
        return MergeOutcome::Diverged;
    // The compare reads may just have poisoned the target. Its current
    // sharers drain off it on their next write; it gains no new one.
    if (_mem.isPoisoned(target)) {
        ++_poisonedMergeRefusals;
        return MergeOutcome::Poisoned;
    }

    // The shadow oracle inspects every commit independently.
    if (_oracle) {
        // Frames homing on different controllers mean this commit came
        // through a cross-MC handoff; the oracle tags those checks.
        bool cross_mc =
            page.frame % _mem.numShards() != target % _mem.numShards();
        if (!_oracle->check(_mem.data(page.frame), _mem.data(target),
                            cross_mc))
            panicAt("hypervisor", curTick(),
                    "merge of non-identical pages (vm %u gpn %llu -> "
                    "frame %u)",
                    candidate.vm,
                    static_cast<unsigned long long>(candidate.gpn),
                    target);
    }

    FrameId old_frame = page.frame;
    // The cached hash keys were computed from the old private frame;
    // when still current they describe content just proven equal to
    // the target, so re-point the cache instead of dropping it.
    bool hashes_current = page.hashFrame == old_frame &&
        page.hashGen == _mem.writeGen(old_frame);
    _mem.addRef(target);
    _mem.decRef(old_frame);
    page.frame = target;
    page.cow = true;
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
    return MergeOutcome::Merged;
}

MergeOutcome
Hypervisor::mergePair(const PageKey &candidate, const PageKey &keeper)
{
    PageState &keep = stateOf(keeper.vm, keeper.gpn);
    if (!keep.mapped)
        return MergeOutcome::Gone;
    MergeOutcome outcome = mergeIntoFrame(candidate, keep.frame);
    if (outcome == MergeOutcome::Merged)
        keep.cow = true;
    return outcome;
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
