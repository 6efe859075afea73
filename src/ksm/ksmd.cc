#include "ksm/ksmd.hh"

#include <bit>
#include <utility>

#include "sim/logging.hh"
#include "sim/simd.hh"

namespace pageforge
{

Ksmd::Ksmd(std::string name, EventQueue &eq, Hypervisor &hyper,
           Hierarchy &hierarchy, std::vector<Core *> cores,
           KsmScheduler &scheduler, const KsmConfig &config)
    : SimObject(std::move(name), eq), _hyper(hyper),
      _hierarchy(hierarchy), _cores(std::move(cores)),
      _scheduler(scheduler), _config(config),
      _stableAcc(hyper.memory()), _guestAcc(hyper),
      _stable(_stableAcc, /*immutable_contents=*/true),
      _unstable(_guestAcc)
{
    pf_assert(!_cores.empty(), "ksmd with no cores");
    _destroyToken = _hyper.addVmDestroyListener(
        [this](VmId vm_id) { onVmDestroyed(vm_id); });
    _pinToken = _hyper.addPinProvider(
        [this] { return static_cast<std::uint64_t>(_stable.size()); });
}

Ksmd::~Ksmd()
{
    _hyper.removeVmDestroyListener(_destroyToken);
    _hyper.removePinProvider(_pinToken);
    // Release the stable tree's frame references.
    _stable.clear([this](PageHandle handle) { onStablePrune(handle); });
}

void
Ksmd::onVmDestroyed(VmId vm_id)
{
    // Drop the dead VM's pages from the scan snapshot, keeping the
    // cursor on the same next page.
    std::size_t kept_before_cursor = 0;
    std::vector<PageKey> kept;
    kept.reserve(_scanList.size());
    for (std::size_t i = 0; i < _scanList.size(); ++i) {
        if (_scanList[i].vm == vm_id)
            continue;
        if (i < _cursor)
            ++kept_before_cursor;
        kept.push_back(_scanList[i]);
    }
    _scanList = std::move(kept);
    _cursor = kept_before_cursor;

    // Unstable nodes reference the VM's guest pages directly.
    _unstable.eraseIf([vm_id](PageHandle handle) {
        return isGuestHandle(handle) && handleGuest(handle).vm == vm_id;
    });

    // Stable nodes reference frames, not VMs; the teardown's decRefs
    // just made the nodes whose frame lost its last guest mapping
    // resolve to nullptr. Prune them now, releasing the tree's pin so
    // the frames actually return to the free pool.
    _stable.eraseIf(
        [this](PageHandle handle) {
            return _stableAcc.resolve(handle) == nullptr;
        },
        [this](PageHandle handle) { onStablePrune(handle); });
}

void
Ksmd::onStablePrune(PageHandle handle)
{
    _hyper.memory().decRef(handleFrame(handle));
}

void
Ksmd::start()
{
    pf_assert(!_running, "ksmd started twice");
    _running = true;
    startPass();
    scheduleWakeup(curTick() + _config.sleepInterval);
}

void
Ksmd::scheduleWakeup(Tick when)
{
    eventq().schedule(when, [this] { wakeup(); });
}

void
Ksmd::wakeup()
{
    if (!_running)
        return;

    CoreId core = _scheduler.pickCore();
    _intervalPagesLeft = _config.pagesToScan;
    runSlice(core);
}

void
Ksmd::runSlice(CoreId core)
{
    // CFS-style work conservation: ksmd runs for a timeslice, then
    // goes to the back of the core's run queue, so queued queries
    // interleave with scanning; on an otherwise idle core the next
    // slice starts immediately. The interval's first slice preempts
    // (the woken kernel thread is placed ahead of the long-running
    // vCPU), continuations queue fairly.
    CoreTask task{
        [this, core](Tick start) { return scanSlice(core, start); },
        [this, core](Tick done) {
            (void)done;
            if (!_running)
                return;
            if (_intervalPagesLeft > 0)
                runSlice(core);
            else
                scheduleWakeup(curTick() + _config.sleepInterval);
        },
        Requester::Ksm};

    if (_intervalPagesLeft == _config.pagesToScan)
        _cores[core]->submitFront(std::move(task));
    else
        _cores[core]->submit(std::move(task));
}

void
Ksmd::startPass()
{
    _unstable.clear();
    _scanList = _hyper.mergeablePages();
    _cursor = 0;
    ++_mergeStats.fullPasses;
    probe().instant("pass-start", curTick(),
                    {"pages", static_cast<double>(_scanList.size())});
}

Tick
Ksmd::scanSlice(CoreId core, Tick start)
{
    Tick now = start + _config.cost.wakeupCycles;
    _cycleStats.otherCycles += _config.cost.wakeupCycles;

    while (_intervalPagesLeft > 0 &&
           now - start < _config.timeslice) {
        if (_cursor >= _scanList.size())
            startPass();
        if (_scanList.empty()) {
            _intervalPagesLeft = 0;
            break;
        }
        PageKey key = _scanList[_cursor++];
        --_intervalPagesLeft;
        now = scanOne(core, key, now);
    }
    probe().span("scan-slice", start, now,
                 {"core", static_cast<double>(core)});
    return now - start;
}

Tick
Ksmd::runOnePassNow()
{
    startPass();
    Tick now = curTick();
    Tick begin = now;
    while (_cursor < _scanList.size())
        now = scanOne(0, _scanList[_cursor++], now);
    return now - begin;
}

Tick
Ksmd::fetchLines(CoreId core, FrameId frame, std::uint32_t lines,
                 Tick now)
{
    if (_config.bypassCaches) {
        // Uncacheable accesses (Section 4.3): every line goes to the
        // memory controller homing it; no allocation anywhere, full
        // latency.
        for (std::uint32_t i = 0; i < lines; ++i) {
            Addr addr = lineAddr(frame, i);
            McReadResult rr =
                _hierarchy.mcFor(addr).readLine(addr, now, Requester::Ksm);
            now = rr.done;
        }
        return now;
    }

    for (std::uint32_t i = 0; i < lines; ++i) {
        now += _hierarchy
                   .access(core, lineAddr(frame, i), false, now,
                           Requester::Ksm)
                   .latency;
    }
    return now;
}

Tick
Ksmd::scanOne(CoreId core, const PageKey &key, Tick now)
{
    const KsmCostModel &cost = _config.cost;
    PhysicalMemory &mem = _hyper.memory();

    ++_mergeStats.pagesScanned;

    VirtualMachine &machine = _hyper.vm(key.vm);
    PageState &page = machine.page(key.gpn);
    if (!page.mapped || !page.mergeable) {
        now += cost.skipOverheadCycles;
        _cycleStats.otherCycles += cost.skipOverheadCycles;
        return now;
    }

    FrameId frame = page.frame;
    if (mem.isPoisoned(frame)) {
        // Quarantined by an uncorrectable error: not a candidate, not
        // a keeper. The stable accessor prunes poisoned tree nodes on
        // the walk itself; here we just skip.
        now += cost.skipOverheadCycles;
        _cycleStats.otherCycles += cost.skipOverheadCycles;
        return now;
    }
    if (mem.refCount(frame) > 1) {
        // Already merged: it lives in the stable tree; cheap skip.
        now += cost.skipOverheadCycles;
        _cycleStats.otherCycles += cost.skipOverheadCycles;
        return now;
    }

    now += cost.candidateOverheadCycles;
    _cycleStats.otherCycles += cost.candidateOverheadCycles;
    const std::uint8_t *data = mem.data(frame);

    // When the candidate was CoW-forked off a frame that may still sit
    // in a tree, compares against that exact frame only need to walk
    // the dirtied lines (the mask proves the rest equal). Purely a
    // host-side shortcut: search results and charged costs are
    // identical.
    ContentTree::MaskedProbe masked_storage;
    const ContentTree::MaskedProbe *masked = nullptr;
    if (_hyper.forkValid(page) &&
        std::popcount(mem.dirtyMask(frame)) <=
            static_cast<int>(simd::maskedCompareMaxLines)) {
        masked_storage = {mem.data(page.cowSrcFrame),
                          mem.dirtyMask(frame)};
        masked = &masked_storage;
    }

    // The compare hook drives the touched lines of both pages through
    // this core's caches and charges the compare loop. It advances the
    // local clock `now` of this scan step.
    auto hook = [&](PageHandle node_handle, const PageCompare &cmp) {
        std::uint32_t lines = cmp.linesExamined();
        FrameId node_frame = isGuestHandle(node_handle)
            ? _hyper.frameOf(handleGuest(node_handle).vm,
                             handleGuest(node_handle).gpn)
            : handleFrame(node_handle);
        now = fetchLines(core, frame, lines, now);
        if (node_frame != invalidFrame)
            now = fetchLines(core, node_frame, lines, now);
        now += cost.nodeOverheadCycles + cost.compareLineCycles * lines;
    };

    // ---- 1. Stable tree search (Algorithm 1, line 7) ----
    ++_mergeStats.stableSearches;
    Tick phase_start = now;
    auto stable_prune = [this](PageHandle handle) {
        onStablePrune(handle);
    };
    ContentTree::SearchResult stable_res =
        _stable.search(data, hook, stable_prune, masked);
    _cycleStats.compareCycles += now - phase_start;

    if (stable_res.match) {
        FrameId target = handleFrame(_stable.handle(stable_res.match));
        if (_hyper.mergeIntoFrame(key, target)) {
            ++_mergeStats.stableMerges;
            now += cost.mergeCycles;
            _cycleStats.otherCycles += cost.mergeCycles;
        }
        return now;
    }

    // ---- 2. Hash check (Algorithm 1, lines 11-12) ----
    phase_start = now;
    // jhash reads the first 1 KB of the page.
    now = fetchLines(core, frame, 1024 / lineSize, now);
    now += cost.hashWordCycles * (1024 / 4);
    _cycleStats.hashCycles += now - phase_start;

    HashCheckOutcome hashes =
        checkPageHashes(mem, frame, page, _config.eccOffsets, _hashStats);
    if (hashes.firstScan || !hashes.unchangedByJhash) {
        // Written since the last pass (or never scanned): drop it.
        ++_mergeStats.pagesDropped;
        return now;
    }

    // ---- 3. Unstable tree search (Algorithm 1, line 13) ----
    ++_mergeStats.unstableSearches;
    phase_start = now;
    ContentTree::SearchResult unstable_res =
        _unstable.search(data, hook, {}, masked);
    _cycleStats.compareCycles += now - phase_start;

    if (!unstable_res.match) {
        _unstable.insertAt(unstable_res, guestHandle(key));
        now += cost.treeUpdateCycles;
        _cycleStats.otherCycles += cost.treeUpdateCycles;
        return now;
    }

    // Merge candidate with the matched unstable page: CoW-protect
    // both and compare once more under protection (Section 2.1).
    PageKey other = handleGuest(_unstable.handle(unstable_res.match));
    FrameId other_frame = _hyper.frameOf(other.vm, other.gpn);
    if (other_frame == invalidFrame || other_frame == frame) {
        ++_mergeStats.pagesDropped;
        return now;
    }

    Tick verify_start = now;
    now = fetchLines(core, frame, linesPerPage, now);
    now = fetchLines(core, other_frame, linesPerPage, now);
    now += cost.compareLineCycles * linesPerPage;
    _cycleStats.compareCycles += now - verify_start;

    if (!_hyper.pagesEqual(page, _hyper.vm(other.vm).page(other.gpn))) {
        // Raced with a write between compare and protect: give up on
        // this candidate for the pass.
        ++_mergeStats.pagesDropped;
        return now;
    }

    FrameId merged = _hyper.mergePair(key, other);
    now += cost.mergeCycles + 2 * cost.cowProtectCycles;
    _cycleStats.otherCycles += cost.mergeCycles + 2 * cost.cowProtectCycles;
    ++_mergeStats.unstableMerges;

    // The candidate's old frame was just freed by the remap: the
    // compare hook must fetch the merged frame's lines from here on.
    frame = merged;

    // Move the page from the unstable to the stable tree
    // (Algorithm 1, lines 16-17).
    _unstable.erase(unstable_res.match);
    phase_start = now;
    ContentTree::Node *stable_node =
        _stable.insert(frameHandle(merged), hook);
    _cycleStats.compareCycles += now - phase_start;
    if (stable_node) {
        // The tree now pins the merged frame.
        mem.addRef(merged);
    }
    now += 2 * cost.treeUpdateCycles;
    _cycleStats.otherCycles += 2 * cost.treeUpdateCycles;
    return now;
}

void
Ksmd::resetStats()
{
    _mergeStats.reset();
    _cycleStats.reset();
    _hashStats.reset();
}

} // namespace pageforge
