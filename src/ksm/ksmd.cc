#include "ksm/ksmd.hh"

#include <utility>

#include "sim/logging.hh"

namespace pageforge
{

Ksmd::Ksmd(std::string name, EventQueue &eq, Hypervisor &hyper,
           Hierarchy &hierarchy, std::vector<Core *> cores,
           KsmScheduler &scheduler, const KsmConfig &config)
    : SimObject(std::move(name), eq), _hyper(hyper),
      _hierarchy(hierarchy), _cores(std::move(cores)),
      _scheduler(scheduler), _config(config),
      _stableAcc(hyper.memory()), _guestAcc(hyper),
      _stable(_stableAcc),
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
}

void
Ksmd::onVmDestroyed(VmId vm_id)
{
    _scanList.dropVm(vm_id);

    // Unstable nodes reference the VM's guest pages directly.
    _unstable.eraseIf([vm_id](PageHandle handle) {
        return isGuestHandle(handle) && handleGuest(handle).vm == vm_id;
    });

    // Stable nodes reference frames, not VMs; the teardown's decRefs
    // just made the nodes whose frame lost its last guest mapping
    // resolve to nullptr. Pruning them releases the tree's pin, so the
    // frames actually return to the free pool.
    _stable.pruneStale();
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
    _scanList = ScanList{_hyper.mergeablePages()};
    ++_mergeStats.fullPasses;
    probe().instant("pass-start", curTick(),
                    {"pages", static_cast<double>(_scanList.pages.size())});
}

Tick
Ksmd::scanSlice(CoreId core, Tick start)
{
    Tick now = start + _config.cost.wakeupCycles;
    _cycleStats.otherCycles += _config.cost.wakeupCycles;

    while (_intervalPagesLeft > 0 &&
           now - start < _config.timeslice) {
        if (_scanList.done())
            startPass();
        if (_scanList.pages.empty()) {
            _intervalPagesLeft = 0;
            break;
        }
        PageKey key = _scanList.next();
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
    while (!_scanList.done())
        now = scanOne(0, _scanList.next(), now);
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

    PageState *candidate = _hyper.mergeCandidate(key);
    if (!candidate) {
        // Unmapped, unadvised, poisoned or already merged: cheap skip.
        now += cost.skipOverheadCycles;
        _cycleStats.otherCycles += cost.skipOverheadCycles;
        return now;
    }
    PageState &page = *candidate;
    FrameId frame = page.frame;

    now += cost.candidateOverheadCycles;
    _cycleStats.otherCycles += cost.candidateOverheadCycles;
    const std::uint8_t *data = mem.data(frame);

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
    ContentTree::SearchResult stable_res = _stable.search(data, hook);
    _cycleStats.compareCycles += now - phase_start;

    if (stable_res.match) {
        FrameId target = handleFrame(_stable.handle(stable_res.match));
        MergeOutcome outcome = _hyper.mergeIntoFrame(key, target);
        // The search compared these very bytes a moment ago, so only
        // the poisoning of the target by its compare reads can refuse.
        pf_assert(outcome == MergeOutcome::Merged ||
                      outcome == MergeOutcome::Poisoned,
                  "ksmd stable merge of non-identical pages");
        if (outcome == MergeOutcome::Poisoned) {
            ++_mergeStats.pagesDropped;
            return now;
        }
        ++_mergeStats.stableMerges;
        now += cost.mergeCycles;
        _cycleStats.otherCycles += cost.mergeCycles;
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
        _unstable.search(data, hook);
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
    pf_assert(other_frame != invalidFrame && other_frame != frame,
              "unstable match resolved to no other frame");

    Tick verify_start = now;
    now = fetchLines(core, frame, linesPerPage, now);
    now = fetchLines(core, other_frame, linesPerPage, now);
    now += cost.compareLineCycles * linesPerPage;
    _cycleStats.compareCycles += now - verify_start;

    if (_hyper.mergePair(key, other) != MergeOutcome::Merged) {
        // Raced with a write between compare and protect, or the reads
        // above poisoned the keeper: give up on this candidate for the
        // pass.
        ++_mergeStats.pagesDropped;
        return now;
    }
    now += cost.mergeCycles + 2 * cost.cowProtectCycles;
    _cycleStats.otherCycles += cost.mergeCycles + 2 * cost.cowProtectCycles;
    ++_mergeStats.unstableMerges;

    // The candidate's old frame was just freed by the remap: the
    // compare hook must fetch the merged frame's lines from here on.
    frame = other_frame;

    // Move the page from the unstable to the stable tree
    // (Algorithm 1, lines 16-17).
    _unstable.erase(unstable_res.match);
    phase_start = now;
    _stable.insert(frameHandle(frame), hook);
    _cycleStats.compareCycles += now - phase_start;
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
