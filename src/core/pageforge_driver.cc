#include "core/pageforge_driver.hh"

#include <algorithm>
#include <utility>

#include "fault/fault_injector.hh"
#include "shard/cross_mc_router.hh"
#include "shard/shard_map.hh"
#include "sim/logging.hh"

namespace pageforge
{

PageForgeDriver::PageForgeDriver(std::string name, EventQueue &eq,
                                 Hypervisor &hyper,
                                 std::vector<PageForgeApi *> apis,
                                 const ShardMap &map, CrossMcRouter &router,
                                 std::vector<Core *> cores,
                                 const PageForgeDriverConfig &config)
    : SimObject(std::move(name), eq), _hyper(hyper),
      _apis(std::move(apis)), _cores(std::move(cores)), _config(config),
      _stableAcc(hyper.memory()), _guestAcc(hyper), _shardMap(map),
      _router(router), _shardScans(_apis.size()),
      _shardMerges(_apis.size())
{
    pf_assert(!_cores.empty(), "driver with no cores");
    pf_assert(map.numShards() == numShards() &&
                  router.numMcs() == numShards(),
              "shard map covers %u shards and router %u MCs, driver "
              "has %u",
              map.numShards(), router.numMcs(), numShards());
    for (unsigned shard = 0; shard < numShards(); ++shard) {
        _apis[shard]->module().setEccOffsets(config.eccOffsets);
        _stables.push_back(std::make_unique<ContentTree>(
            _stableAcc, /*immutable_contents=*/true));
        _unstables.push_back(std::make_unique<ContentTree>(_guestAcc));
        _pipelines.push_back(std::make_unique<Pipeline>());
        _pipelines.back()->shard = shard;
    }
    _destroyToken = _hyper.addVmDestroyListener(
        [this](VmId vm_id) { onVmDestroyed(vm_id); });
    _pinToken = _hyper.addPinProvider([this] {
        std::uint64_t pinned = 0;
        for (const auto &p : _pipelines)
            pinned += p->pinnedFrames.size() +
                      (p->candidateFrame != invalidFrame ? 1 : 0);
        for (const auto &stable : _stables)
            pinned += stable->size();
        return pinned;
    });
}

PageForgeDriver::~PageForgeDriver()
{
    _hyper.removeVmDestroyListener(_destroyToken);
    _hyper.removePinProvider(_pinToken);
    for (auto &stable : _stables)
        stable->clear(
            [this](PageHandle handle) { onStablePrune(handle); });
}

bool
PageForgeDriver::anyCandidateInFlight() const
{
    for (const auto &p : _pipelines)
        if (p->candidateFrame != invalidFrame)
            return true;
    return false;
}

void
PageForgeDriver::purgeVm(VmId vm_id)
{
    for (auto &pipeline : _pipelines) {
        Pipeline &p = *pipeline;
        std::size_t kept_before_cursor = 0;
        std::vector<PageKey> kept;
        kept.reserve(p.scanList.size());
        for (std::size_t i = 0; i < p.scanList.size(); ++i) {
            if (p.scanList[i].vm == vm_id)
                continue;
            if (i < p.cursor)
                ++kept_before_cursor;
            kept.push_back(p.scanList[i]);
        }
        p.scanList = std::move(kept);
        p.cursor = kept_before_cursor;

        std::erase_if(p.inbox, [vm_id](const PageKey &key) {
            return key.vm == vm_id;
        });
        std::erase_if(p.retryQueue, [vm_id](const MergeRetry &retry) {
            return retry.key.vm == vm_id;
        });
    }

    for (auto &unstable : _unstables) {
        unstable->eraseIf([vm_id](PageHandle handle) {
            return isGuestHandle(handle) &&
                   handleGuest(handle).vm == vm_id;
        });
    }
    for (auto &stable : _stables) {
        stable->eraseIf(
            [this](PageHandle handle) {
                return _stableAcc.resolve(handle) == nullptr;
            },
            [this](PageHandle handle) { onStablePrune(handle); });
    }
}

void
PageForgeDriver::onVmDestroyed(VmId vm_id)
{
    if (anyCandidateInFlight()) {
        // A candidate is in flight: programmed batches and saved
        // stable insertion points hold raw tree-node pointers, so the
        // trees cannot be purged yet. Abandon every in-flight
        // candidate and purge once the last pipeline reaches its safe
        // point (the batches' frames stay pinned until then, so the
        // Scan Tables never read freed memory).
        for (auto &p : _pipelines)
            if (p->candidateFrame != invalidFrame)
                p->abortCandidate = true;
        _pendingPurges.push_back(vm_id);
        return;
    }
    purgeVm(vm_id);
}

void
PageForgeDriver::onStablePrune(PageHandle handle)
{
    _hyper.memory().decRef(handleFrame(handle));
}

ContentTree *
PageForgeDriver::currentTree(Pipeline &p)
{
    return p.phase == Phase::Stable ? &stableShardTree(p)
                                    : &unstableShardTree(p);
}

PageAccessor &
PageForgeDriver::currentAccessor(Pipeline &p)
{
    if (p.phase == Phase::Stable)
        return _stableAcc;
    return _guestAcc;
}

// ---------------------------------------------------------------------
// Pass and candidate selection
// ---------------------------------------------------------------------

void
PageForgeDriver::startPass(Pipeline &p)
{
    if (_synchronous) {
        // The synchronous warm-up pass walks the whole machine in
        // hypervisor order on any machine, so warm-up results are
        // independent of the MC count.
        for (auto &unstable : _unstables)
            unstable->clear();
        p.scanList = _hyper.mergeablePages();
    } else {
        // Each pipeline scans the pages homed on its controller; its
        // unstable tree lives and dies with its own pass.
        _unstables[p.shard]->clear();
        p.scanList.clear();
        for (const PageKey &key : _hyper.mergeablePages()) {
            FrameId frame = _hyper.frameOf(key.vm, key.gpn);
            if (frame == invalidFrame)
                continue;
            // scanOwnerOf, not homeOf: a quarantined shard's frames
            // are scanned by its takeover pipeline until re-admission
            // (identity while no shard is quarantined).
            if (_shardMap.scanOwnerOf(frame) == p.shard)
                p.scanList.push_back(key);
        }
    }
    p.cursor = 0;
    ++_mergeStats.fullPasses;
    probe().instant("pass-start", curTick(),
                    {"pages", static_cast<double>(p.scanList.size())});
}

bool
PageForgeDriver::pickNextCandidate(Pipeline &p, bool &from_inbox)
{
    PhysicalMemory &mem = _hyper.memory();
    from_inbox = false;

    // Aborted merges whose backoff elapsed rescan first. They do not
    // consume the interval's page budget: retries are extra work the
    // fault forced, not progress through the scan list.
    while (!p.retryQueue.empty()) {
        MergeRetry retry = p.retryQueue.back();
        p.retryQueue.pop_back();
        if (retry.key.vm >= _hyper.numVms() ||
            !_hyper.vmAlive(retry.key.vm))
            continue;
        const VirtualMachine &machine = _hyper.vm(retry.key.vm);
        if (retry.key.gpn >= machine.numPages())
            continue;
        const PageState &page = machine.page(retry.key.gpn);
        if (!page.mapped || !page.mergeable ||
            mem.isPoisoned(page.frame) || mem.refCount(page.frame) > 1)
            continue;
        ++_mergeStats.pagesScanned;
        p.candidate = retry.key;
        p.candidateFrame = page.frame;
        p.candidateVersion = page.writeVersion;
        p.candidateAttempt = retry.attempt;
        return true;
    }

    // Candidates handed over from other pipelines next; their home
    // pipeline already spent scan budget on them. The arrival
    // revalidates everything — the page may have changed, remapped, or
    // died while crossing the interconnect.
    while (!p.inbox.empty()) {
        PageKey key = p.inbox.front();
        p.inbox.pop_front();
        if (key.vm >= _hyper.numVms() || !_hyper.vmAlive(key.vm))
            continue;
        const VirtualMachine &machine = _hyper.vm(key.vm);
        if (key.gpn >= machine.numPages())
            continue;
        const PageState &page = machine.page(key.gpn);
        if (!page.mapped || !page.mergeable ||
            mem.isPoisoned(page.frame) || mem.refCount(page.frame) > 1)
            continue;
        p.candidate = key;
        p.candidateFrame = page.frame;
        p.candidateVersion = page.writeVersion;
        p.candidateAttempt = 0;
        from_inbox = true;
        return true;
    }

    while (p.remaining > 0) {
        if (p.cursor >= p.scanList.size())
            startPass(p);
        if (p.scanList.empty())
            return false;

        PageKey key = p.scanList[p.cursor++];
        --p.remaining;
        ++_mergeStats.pagesScanned;

        // The VM may have died while its purge waits on another
        // pipeline's in-flight candidate (never happens with a single
        // pipeline: purges run before the pick there).
        if (key.vm >= _hyper.numVms() || !_hyper.vmAlive(key.vm))
            continue;

        const VirtualMachine &machine = _hyper.vm(key.vm);
        const PageState &page = machine.page(key.gpn);
        if (!page.mapped || !page.mergeable)
            continue;
        if (mem.isPoisoned(page.frame))
            continue; // quarantined by an uncorrectable error
        if (mem.refCount(page.frame) > 1)
            continue; // already merged, lives in the stable tree

        p.candidate = key;
        p.candidateFrame = page.frame;
        p.candidateVersion = page.writeVersion;
        p.candidateAttempt = 0;
        return true;
    }
    return false;
}

// ---------------------------------------------------------------------
// Pinning: keep frames alive while the hardware may still read them
// ---------------------------------------------------------------------

void
PageForgeDriver::pinCandidate(Pipeline &p)
{
    _hyper.memory().addRef(p.candidateFrame);
}

void
PageForgeDriver::unpinCandidate(Pipeline &p)
{
    if (p.candidateFrame != invalidFrame) {
        _hyper.memory().decRef(p.candidateFrame);
        p.candidateFrame = invalidFrame;
    }
}

void
PageForgeDriver::unpinBatch(Pipeline &p)
{
    for (FrameId frame : p.pinnedFrames)
        _hyper.memory().decRef(frame);
    p.pinnedFrames.clear();
}

// ---------------------------------------------------------------------
// Batch construction
// ---------------------------------------------------------------------

void
PageForgeDriver::buildBatch(Pipeline &p, ContentTree::Node *subtree_root)
{
    ContentTree &tree = *currentTree(p);
    PageAccessor &acc = currentAccessor(p);
    unsigned capacity = currentApi(p).tableEntries();

restart:
    pf_assert(subtree_root, "building a batch with no subtree");

    // The subtree root itself may have gone stale.
    if (!acc.resolve(tree.handle(subtree_root))) {
        PageHandle stale = tree.handle(subtree_root);
        tree.erase(subtree_root);
        if (p.phase == Phase::Stable)
            onStablePrune(stale);
        subtree_root = tree.root();
        if (!subtree_root) {
            // Tree emptied: program a batch with no entries; the
            // search trivially ends without a match.
            buildForcedHashBatch(p);
            return;
        }
        goto restart;
    }

    // Breadth-first collection of up to `capacity` live nodes.
    std::vector<ContentTree::Node *> nodes;
    nodes.push_back(subtree_root);
    for (std::size_t i = 0; i < nodes.size() && nodes.size() < capacity;
         ++i) {
        for (ContentTree::Node *child :
             {tree.left(nodes[i]), tree.right(nodes[i])}) {
            if (!child || nodes.size() >= capacity)
                continue;
            if (!acc.resolve(tree.handle(child))) {
                PageHandle stale = tree.handle(child);
                tree.erase(child);
                if (p.phase == Phase::Stable)
                    onStablePrune(stale);
                goto restart;
            }
            nodes.push_back(child);
        }
    }

    p.batch = PendingBatch{};
    p.batch.nodes = nodes;
    p.batch.startPtr = 0;
    bool has_continuation = false;

    for (unsigned i = 0; i < nodes.size(); ++i) {
        FrameId ppn;
        PageHandle handle = tree.handle(nodes[i]);
        if (isGuestHandle(handle)) {
            PageKey key = handleGuest(handle);
            ppn = _hyper.frameOf(key.vm, key.gpn);
        } else {
            ppn = handleFrame(handle);
        }
        pf_assert(ppn != invalidFrame, "live node resolves to no frame");

        auto encode = [&](ContentTree::Node *child,
                          bool more) -> ScanIndex {
            if (!child)
                return makeAbsentToken(i, more);
            // A BFS child is either one of the (at most capacity)
            // collected nodes or a continuation; a linear scan of the
            // small vector beats building a hash map per batch. The
            // child of nodes[i] can only appear after position i.
            auto it = std::find(nodes.begin() + (i + 1), nodes.end(),
                                child);
            if (it != nodes.end())
                return static_cast<ScanIndex>(it - nodes.begin());
            has_continuation = true;
            return makeContinueToken(i, more);
        };

        ScanIndex less = encode(tree.left(nodes[i]), false);
        ScanIndex more = encode(tree.right(nodes[i]), true);
        p.batch.entries.push_back(PendingBatch::Entry{ppn, less, more});
    }

    // When the whole remaining subtree fits, no further refill can
    // follow: set Last Refill so the hash key completes (Section 3.3.1).
    p.batch.lastRefill = !has_continuation;
}

void
PageForgeDriver::buildForcedHashBatch(Pipeline &p)
{
    p.batch = PendingBatch{};
    p.batch.lastRefill = true;
    p.batch.startPtr = scanIndexNone;
}

void
PageForgeDriver::programBatch(Pipeline &p)
{
    unpinBatch(p);
    PhysicalMemory &mem = _hyper.memory();

    PageForgeApi &api = currentApi(p);
    for (unsigned i = 0; i < p.batch.entries.size(); ++i) {
        const auto &entry = p.batch.entries[i];
        api.insertPpn(i, entry.ppn, entry.less, entry.more);
        mem.addRef(entry.ppn);
        p.pinnedFrames.push_back(entry.ppn);
    }
    if (p.firstBatch) {
        probe().instant(
            "pfe-swap", curTick(),
            {"frame", static_cast<double>(p.candidateFrame)});
        api.insertPfe(p.candidateFrame, p.batch.lastRefill,
                      p.batch.startPtr);
        p.firstBatch = false;
    } else {
        api.updatePfe(p.batch.lastRefill, p.batch.startPtr);
    }
    p.batchStart = curTick();
    ++_refills;
}

// ---------------------------------------------------------------------
// State machine
// ---------------------------------------------------------------------

PageForgeDriver::Action
PageForgeDriver::setupCandidate(Pipeline &p, bool from_inbox)
{
    p.phase = Phase::Stable;
    p.firstBatch = true;
    p.stableInsertValid = false;
    // The content key decides which shard's trees can hold this page;
    // if that is not the MC homing the frame, the scanning MC hands the
    // candidate across the interconnect. The owner overlay redirects a
    // quarantined shard's range to its takeover (identity in
    // fault-free runs).
    unsigned content = _shardMap.ownerOf(_shardMap.contentShardOf(
        _hyper.memory().data(p.candidateFrame)));
    if (_synchronous) {
        // Synchronous passes fast-forward: serve the candidate on the
        // content shard directly, counting the handoff with zero
        // latency.
        unsigned home = _shardMap.homeOf(p.candidateFrame);
        p.candidateShard = content;
        if (home != content) {
            _router.enqueue(home, content, curTick());
            probe().instant("mc-handoff", curTick(),
                            {"src", static_cast<double>(home)},
                            {"dst", static_cast<double>(content)});
        }
    } else if (content != p.shard) {
        // Content homed elsewhere. A pipeline may only drive its own
        // module (the frame's nominal home can drift after the scan
        // list was built — remaps and merges move frames — but the
        // comparison is always against this pipeline).
        if (from_inbox) {
            // Rewritten in transit: the content re-homed to yet
            // another shard. Drop it; a later pass rescans it.
            ++_mergeStats.pagesDropped;
            p.candidateFrame = invalidFrame;
            return Action::CandidateDone;
        }
        // Hand the candidate to the owning shard's pipeline. It leaves
        // this pipeline entirely — unpinned, because the arrival
        // revalidates the page from scratch.
        probe().instant("mc-handoff", curTick(),
                        {"src", static_cast<double>(p.shard)},
                        {"dst", static_cast<double>(content)});
        sendHandoff(p.shard, content, p.candidate, 0);
        _shardScans[_shardMap.homeOf(p.candidateFrame)] += 1;
        p.candidateFrame = invalidFrame;
        return Action::CandidateDone;
    } else {
        p.candidateShard = p.shard; // content homes right here
    }
    if (!from_inbox) // handed-off candidates were counted at home
        _shardScans[_shardMap.homeOf(p.candidateFrame)] += 1;
    pinCandidate(p);
    return beginPhase(p);
}

PageForgeDriver::Action
PageForgeDriver::beginPhase(Pipeline &p)
{
    if (p.phase == Phase::Stable) {
        ++_mergeStats.stableSearches;
        ContentTree::Node *root = stableShardTree(p).root();
        if (!root) {
            // Empty stable tree: no match possible; the insertion
            // point for a later stable insert is the root. Run a
            // hash-completion-only batch so the ECC key still comes
            // from the hardware.
            p.stableInsertParent = nullptr;
            p.stableInsertLeft = false;
            p.stableInsertValid = true;
            buildForcedHashBatch(p);
            return Action::RunBatch;
        }
        buildBatch(p, root);
        return Action::RunBatch;
    }

    ++_mergeStats.unstableSearches;
    ContentTree::Node *root = unstableShardTree(p).root();
    if (!root) {
        // First unstable page this pass: becomes the tree root.
        unstableShardTree(p).insertChild(nullptr, false,
                                         guestHandle(p.candidate));
        chargeDriver(p, _config.treeUpdateCycles);
        return Action::CandidateDone;
    }
    buildBatch(p, root);
    return Action::RunBatch;
}

PageForgeDriver::Action
PageForgeDriver::onBatchComplete(Pipeline &p, const PfeInfo &info)
{
    pf_assert(info.scanned, "batch completion without Scanned set");
    ContentTree &tree = *currentTree(p);

    if (info.duplicate) {
        pf_assert(info.ptr < p.batch.nodes.size(),
                  "Duplicate with Ptr outside the batch");
        ContentTree::Node *node = p.batch.nodes[info.ptr];
        return p.phase == Phase::Stable ? handleStableMatch(p, node)
                                        : handleUnstableMatch(p, node);
    }

    if (isContinueToken(info.ptr)) {
        // Descend into a subtree that did not fit in the batch.
        unsigned entry = tokenEntry(info.ptr);
        pf_assert(entry < p.batch.nodes.size(), "bad continuation token");
        ContentTree::Node *node = p.batch.nodes[entry];
        ContentTree::Node *child = tokenMoreSide(info.ptr)
            ? tree.right(node)
            : tree.left(node);
        pf_assert(child, "continuation into absent child");
        buildBatch(p, child);
        return Action::RunBatch;
    }

    return p.phase == Phase::Stable ? stableSearchEnded(p, info)
                                    : unstableSearchEnded(p, info);
}

PageForgeDriver::Action
PageForgeDriver::handleStableMatch(Pipeline &p, ContentTree::Node *node)
{
    if (mergeRaced(p))
        return abortMergedRace(p);

    FrameId target = handleFrame(stableShardTree(p).handle(node));
    if (_hyper.tryMergeIntoFrame(p.candidate, target)) {
        ++_mergeStats.stableMerges;
        _shardMerges[p.candidateShard] += 1;
        chargeDriver(p, _config.mergeCycles);
        p.falseMatchStreak = 0;
    } else {
        // The candidate changed under the scan, or a corrupted key /
        // table entry steered the hardware to a false match: either
        // way the full compare refused it; drop it for this pass.
        ++_mergeStats.pagesDropped;
        noteFalseKeyMatch(p);
    }
    return Action::CandidateDone;
}

PageForgeDriver::Action
PageForgeDriver::stableSearchEnded(Pipeline &p, const PfeInfo &info)
{
    if (isAbsentToken(info.ptr)) {
        unsigned entry = tokenEntry(info.ptr);
        pf_assert(entry < p.batch.nodes.size(), "bad absent token");
        p.stableInsertParent = p.batch.nodes[entry];
        p.stableInsertLeft = !tokenMoreSide(info.ptr);
        p.stableInsertValid = true;
    }

    if (!info.hashReady) {
        // Section 3.3.1: the OS forces hash completion by reloading
        // with Last Refill set.
        buildForcedHashBatch(p);
        return Action::RunBatch;
    }

    // Hash check against the previous pass (the PageForge analogue of
    // Algorithm 1 lines 11-12), using the ECC key.
    PhysicalMemory &mem = _hyper.memory();
    FrameId current = _hyper.frameOf(p.candidate.vm, p.candidate.gpn);
    if (current == invalidFrame) {
        ++_mergeStats.pagesDropped;
        return Action::CandidateDone;
    }
    PageState &page = _hyper.vm(p.candidate.vm).page(p.candidate.gpn);
    bool prev_valid = page.eccKeyValid;
    std::uint32_t prev_key = page.lastEccKey;
    HashCheckOutcome outcome = checkPageHashes(
        mem, current, page, _config.eccOffsets, _hashStats);

    // Cross-check the hardware-assembled key against the functional
    // one; they differ only when the page was written mid-scan (or a
    // fault corrupted a sampled line).
    if (info.hash != outcome.eccKey)
        ++_hwHashRaces;

    bool unchanged = outcome.unchangedByEcc;
    if (_faults) {
        // Under fault injection the driver must trust the key the
        // hardware delivered — the real system has no functional
        // shadow to consult — so a corrupted minikey is allowed to
        // mislead this check. The full compare and the merge oracle
        // remain the safety net behind it.
        unchanged = prev_valid && prev_key == info.hash;
        page.lastEccKey = info.hash;
        // The stored key no longer equals what a recomputation would
        // produce: the hash-skip cache must not replay it.
        page.invalidateHashCache();
    }

    if (outcome.firstScan || !unchanged) {
        ++_mergeStats.pagesDropped;
        return Action::CandidateDone;
    }

    p.phase = Phase::Unstable;
    return beginPhase(p);
}

PageForgeDriver::Action
PageForgeDriver::handleUnstableMatch(Pipeline &p, ContentTree::Node *node)
{
    if (mergeRaced(p))
        return abortMergedRace(p);

    PhysicalMemory &mem = _hyper.memory();
    PageKey other = handleGuest(unstableShardTree(p).handle(node));
    FrameId other_frame = _hyper.frameOf(other.vm, other.gpn);
    FrameId cand_frame = _hyper.frameOf(p.candidate.vm, p.candidate.gpn);

    if (other_frame == invalidFrame || cand_frame == invalidFrame ||
        other_frame == cand_frame) {
        ++_mergeStats.pagesDropped;
        return Action::CandidateDone;
    }
    if (!_hyper.pagesEqual(
            _hyper.vm(p.candidate.vm).page(p.candidate.gpn),
            _hyper.vm(other.vm).page(other.gpn))) {
        // Hardware said Duplicate; the final software compare says
        // otherwise — a racing write or a false key match.
        ++_mergeStats.pagesDropped;
        noteFalseKeyMatch(p);
        return Action::CandidateDone;
    }

    FrameId merged = _hyper.mergePair(p.candidate, other);
    chargeDriver(p, _config.mergeCycles + 2 * _config.cowProtectCycles +
                 2 * _config.treeUpdateCycles);
    ++_mergeStats.unstableMerges;
    _shardMerges[p.candidateShard] += 1;
    p.falseMatchStreak = 0;

    unstableShardTree(p).erase(node);

    // Insert the merged page into the stable tree at the position the
    // hardware's stable search discovered for this very content.
    ContentTree::Node *stable_node = nullptr;
    if (p.stableInsertValid) {
        stable_node = stableShardTree(p).insertChild(
            p.stableInsertParent, p.stableInsertLeft,
            frameHandle(merged));
    } else {
        stable_node = stableShardTree(p).insert(frameHandle(merged));
    }
    if (stable_node)
        mem.addRef(merged); // the tree pins the frame

    return Action::CandidateDone;
}

PageForgeDriver::Action
PageForgeDriver::unstableSearchEnded(Pipeline &p, const PfeInfo &info)
{
    if (isAbsentToken(info.ptr)) {
        unsigned entry = tokenEntry(info.ptr);
        pf_assert(entry < p.batch.nodes.size(), "bad absent token");
        unstableShardTree(p).insertChild(p.batch.nodes[entry],
                                         !tokenMoreSide(info.ptr),
                                         guestHandle(p.candidate));
    } else {
        // Degenerate: the subtree vanished mid-phase. Fall back to a
        // software insert (rare; the compares are not charged).
        unstableShardTree(p).insert(guestHandle(p.candidate));
    }
    chargeDriver(p, _config.treeUpdateCycles);
    return Action::CandidateDone;
}

// ---------------------------------------------------------------------
// Fault degradation paths
// ---------------------------------------------------------------------

bool
PageForgeDriver::mergeRaced(Pipeline &p)
{
    if (!_faults)
        return false;

    // Give the injector its window: a guest write landing between the
    // hardware match and the merge commit.
    _faults->maybeInjectMergeRace(p.candidate);

    // Write-versioning commit check: the version snapshotted when the
    // candidate was picked must still be current. Any write since —
    // injected or genuine — diverged the content (or CoW'd the page
    // onto another frame), so this merge must not commit.
    if (p.candidate.vm >= _hyper.numVms() ||
        !_hyper.vmAlive(p.candidate.vm))
        return true;
    const VirtualMachine &machine = _hyper.vm(p.candidate.vm);
    if (p.candidate.gpn >= machine.numPages())
        return true;
    const PageState &page = machine.page(p.candidate.gpn);
    return !page.mapped || page.writeVersion != p.candidateVersion;
}

PageForgeDriver::Action
PageForgeDriver::abortMergedRace(Pipeline &p)
{
    ++_mergeAborts;
    probe().instant(
        "merge-abort", curTick(),
        {"attempt", static_cast<double>(p.candidateAttempt)});

    unsigned attempt = p.candidateAttempt + 1;
    if (_synchronous || attempt > _config.mergeRetryMax) {
        // Out of retries (or synchronous mode, where backoff events
        // cannot fire): give the candidate up for this pass.
        ++_mergeStats.pagesDropped;
        return Action::CandidateDone;
    }

    // Capped exponential backoff, then back to the front of the scan.
    Tick backoff = _config.mergeRetryBackoff << (attempt - 1);
    backoff = std::min(backoff, _config.mergeRetryBackoffCap);
    ++_mergeRetries;
    PageKey key = p.candidate;
    Pipeline *pipeline = &p;
    eventq().schedule(curTick() + backoff,
                      [this, pipeline, key, attempt] {
                          pipeline->retryQueue.push_back(
                              MergeRetry{key, attempt});
                      });
    return Action::CandidateDone;
}

void
PageForgeDriver::noteFalseKeyMatch(Pipeline &p)
{
    ++_falseKeyMatches;
    if (!_faults)
        return;

    if (p.candidate == p.falseMatchKey) {
        ++p.falseMatchStreak;
    } else {
        p.falseMatchKey = p.candidate;
        p.falseMatchStreak = 1;
    }
    probe().instant(
        "false-key-match", curTick(),
        {"streak", static_cast<double>(p.falseMatchStreak)});
    if (p.falseMatchStreak >= _config.falseMatchRotateThreshold) {
        rotateEccOffsets();
        chargeDriver(p, PageForgeApi::callCycles *
                     static_cast<Tick>(_apis.size()));
        p.falseMatchStreak = 0;
    }
}

void
PageForgeDriver::rotateEccOffsets()
{
    // A stuck-at fault in a sampled line poisons the hash key for as
    // long as that line stays sampled; rotating every section's offset
    // re-keys the hash away from the bad cell (update_ECC_offset,
    // Section 3.2). Stored last-pass keys go stale for one pass —
    // candidates drop once, then recover under the new offsets.
    EccOffsets rotated = _config.eccOffsets;
    for (unsigned s = 0; s < eccHashSections; ++s)
        rotated.offset[s] = static_cast<std::uint8_t>(
            (rotated.offset[s] + 1) % linesPerSection);
    _config.eccOffsets = rotated;
    // Every shard's module samples with the same offsets; re-key all.
    for (PageForgeApi *api : _apis)
        api->updateEccOffset(rotated);
    ++_offsetRotations;
    probe().instant("ecc-offset-rotate", curTick());
    pf_warn(ScanTable,
            "%u consecutive false key matches: rotating ECC offsets",
            _config.falseMatchRotateThreshold);
}

// ---------------------------------------------------------------------
// Event-mode plumbing
// ---------------------------------------------------------------------

void
PageForgeDriver::start()
{
    pf_assert(!_running, "driver started twice");
    _running = true;
    for (auto &p : _pipelines) {
        p->intervalPending = false;
        startPass(*p);
        scheduleInterval(*p, curTick() + _config.sleepInterval);
    }
}

void
PageForgeDriver::scheduleInterval(Pipeline &p, Tick when)
{
    p.intervalPending = true;
    Pipeline *pipeline = &p;
    eventq().schedule(when,
                      [this, pipeline] { startInterval(*pipeline); });
}

void
PageForgeDriver::armInterval(Pipeline &p)
{
    if (_running && !p.intervalPending && !p.quiesced)
        scheduleInterval(p, curTick() + _config.sleepInterval);
}

void
PageForgeDriver::startInterval(Pipeline &p)
{
    p.intervalPending = false;
    if (!_running || p.quiesced)
        return;
    p.remaining = _config.pagesToScan;
    if (p.candidateFrame != invalidFrame)
        return; // an inbox kick put a candidate in flight; let it finish
    advance(p);
}

Core &
PageForgeDriver::nextCheckCore()
{
    Core &core = *_cores[_checkCore];
    _checkCore = (_checkCore + 1) % _cores.size();
    return core;
}

void
PageForgeDriver::sendHandoff(unsigned src, unsigned dst, PageKey key,
                             unsigned attempt)
{
    HandoffDelivery d = _router.route(src, dst, curTick());
    if (d.lost) {
        if (attempt >= _router.retryPolicy().maxRetries) {
            // Dead letter: the sender already released the candidate
            // (unpinned, frame invalidated), so nothing is stranded —
            // the page simply waits for a later scan pass.
            _router.recordDeadLetter();
            probe().instant("handoff-dead-letter", curTick(),
                            {"dst", static_cast<double>(dst)});
            pf_warn(Fault,
                    "handoff %u -> %u dead-lettered after %u attempts",
                    src, dst, attempt + 1);
            return;
        }
        _router.recordRetry();
        probe().instant("handoff-retry", curTick(),
                        {"attempt", static_cast<double>(attempt + 1)});
        Tick backoff = _router.retryBackoff(attempt);
        eventq().schedule(curTick() + backoff,
                          [this, src, dst, key, attempt] {
                              // The destination may have failed over
                              // during the backoff; re-resolve.
                              sendHandoff(src, _shardMap.ownerOf(dst),
                                          key, attempt + 1);
                          });
        return;
    }
    if (d.corrupted) {
        // Garble the guest page number deterministically from the
        // router's salt. Arrival-side revalidation (range, mapping,
        // mergeability, content re-homing) absorbs whatever this
        // produces; at worst a different valid page gets scanned.
        key.gpn ^= static_cast<std::uint32_t>(1 + d.corruptSalt % 255);
    }
    eventq().schedule(d.delivered, [this, dst, key] {
        deliverHandoff(dst, key);
    });
}

void
PageForgeDriver::deliverHandoff(unsigned shard, PageKey key)
{
    pf_assert(shard < _pipelines.size(),
              "handoff to unknown shard %u", shard);
    // The owning shard may have been quarantined while the message
    // crossed the interconnect: forward to its current owner.
    Pipeline &p = *_pipelines[_shardMap.ownerOf(shard)];
    p.inbox.push_back(key);
    // Kick the pipeline when idle; a busy one drains its inbox at the
    // next advance.
    if (_running && !p.quiesced && p.candidateFrame == invalidFrame)
        advance(p);
}

// ---------------------------------------------------------------------
// MC fault-domain recovery (driven by the module watchdog)
// ---------------------------------------------------------------------

void
PageForgeDriver::quiesceShard(unsigned shard)
{
    pf_assert(shard < _pipelines.size(), "quiesce of unknown shard %u",
              shard);
    Pipeline &p = *_pipelines[shard];
    p.quiesced = true;

    // Forward queued work to the takeover pipeline: everything in
    // this inbox and merge-retry backlog belongs to the quarantined
    // content range, which the takeover now owns. Arrival-side
    // revalidation absorbs anything that went stale meanwhile. A
    // one-shard machine has no takeover: the work waits in place.
    unsigned owner = _shardMap.ownerOf(shard);
    if (owner != shard) {
        Pipeline &t = *_pipelines[owner];
        for (const PageKey &key : p.inbox)
            t.inbox.push_back(key);
        p.inbox.clear();
        for (const MergeRetry &retry : p.retryQueue)
            t.retryQueue.push_back(retry);
        p.retryQueue.clear();
        if (_running && !t.quiesced && t.candidateFrame == invalidFrame)
            advance(t);
    }
}

void
PageForgeDriver::onModuleRestarted(unsigned shard)
{
    pf_assert(shard < _pipelines.size(),
              "restart of unknown shard %u", shard);
    Pipeline &p = *_pipelines[shard];
    // With a batch in flight, the pending check poll is still
    // rescheduling itself against the (formerly wedged) module; tell
    // it to flush through the abort-flush guard instead of
    // interpreting whatever the reset left in the Scan Table.
    if (p.candidateFrame != invalidFrame)
        p.moduleReset = true;
}

void
PageForgeDriver::resumeShard(unsigned shard)
{
    pf_assert(shard < _pipelines.size(), "resume of unknown shard %u",
              shard);
    Pipeline &p = *_pipelines[shard];
    pf_assert(p.quiesced, "resuming a shard that was never quiesced");
    p.quiesced = false;
    // Budget arrives at the next interval boundary; the re-admitted
    // pipeline rebuilds its scan list then (startPass sees the
    // restored owner map).
    if (_running)
        armInterval(p);
}

void
PageForgeDriver::advance(Pipeline &p)
{
    unpinBatch(p);
    unpinCandidate(p);

    // Safe point for this pipeline: no batch is programmed and no
    // saved node pointers are live. Deferred VM purges run once every
    // pipeline is at its safe point; until then this pipeline idles so
    // it cannot pick up state awaiting the purge.
    p.abortCandidate = false;
    if (!_pendingPurges.empty()) {
        if (anyCandidateInFlight()) {
            armInterval(p);
            return;
        }
        for (VmId vm_id : _pendingPurges)
            purgeVm(vm_id);
        _pendingPurges.clear();
    }

    if (p.quiesced)
        return; // parked by failover; resumeShard() restarts it

    for (;;) {
        bool from_inbox = false;
        if (!pickNextCandidate(p, from_inbox)) {
            armInterval(p);
            return;
        }
        Action action = setupCandidate(p, from_inbox);
        if (action == Action::RunBatch) {
            dispatchProgramTask(p);
            return;
        }
        // CandidateDone straight from setup.
        unpinBatch(p);
        unpinCandidate(p);
    }
}

void
PageForgeDriver::chargeCore(Tick cycles)
{
    // Driver work runs in interrupt/timer context: the logic happens
    // now, and the stolen cycles are billed to a rotating core as a
    // short front-of-queue task (briefly delaying whatever runs
    // there — the "modest hypervisor involvement" cost).
    if (cycles == 0)
        return;
    nextCheckCore().submitFront(CoreTask{
        [cycles](Tick) { return cycles; }, nullptr, Requester::Os});
}

void
PageForgeDriver::dispatchProgramTask(Pipeline &p)
{
    Tick cost = p.pendingDriverCycles + _config.batchBuildCycles +
        (p.batch.entries.size() + 1) * PageForgeApi::callCycles;
    p.pendingDriverCycles = 0;
    chargeCore(cost);

    programBatch(p);
    scheduleCheck(p);
}

void
PageForgeDriver::scheduleCheck(Pipeline &p)
{
    Pipeline *pipeline = &p;
    eventq().schedule(curTick() + _config.osCheckInterval,
                      [this, pipeline] {
                          Tick cost = pipeline->pendingDriverCycles +
                              _config.checkOverheadCycles;
                          pipeline->pendingDriverCycles = 0;
                          chargeCore(cost);
                          onCheckTaskDone(*pipeline);
                      });
}

void
PageForgeDriver::flushCandidate(Pipeline &p)
{
    // A VM died while this batch was in the hardware: the batch's
    // node pointers may reference entries of the dead VM, so the
    // whole candidate is flushed instead of interpreted.
    probe().instant("batch-flush", curTick());
    ++_batchesFlushed;
    ++_mergeStats.pagesDropped;
    advance(p);
}

void
PageForgeDriver::onCheckTaskDone(Pipeline &p)
{
    ++_osChecks;
    if (p.moduleReset) {
        // The watchdog force-reset the module under this batch: the
        // result is gone and the table holds whatever the reset left
        // behind. Flush through the abort-flush guard.
        p.moduleReset = false;
        flushCandidate(p);
        return;
    }
    PfeInfo info = currentApi(p).getPfeInfo();
    if (!info.scanned || currentApi(p).module().busy()) {
        scheduleCheck(p);
        return;
    }

    probe().span(
        "batch", p.batchStart, curTick(),
        {"entries", static_cast<double>(p.batch.entries.size())},
        {"duplicate", info.duplicate ? 1.0 : 0.0});

    if (p.abortCandidate) {
        flushCandidate(p);
        return;
    }

    Action action = onBatchComplete(p, info);
    if (action == Action::RunBatch) {
        dispatchProgramTask(p);
        return;
    }
    advance(p);
}

// ---------------------------------------------------------------------
// Synchronous mode
// ---------------------------------------------------------------------

std::uint64_t
PageForgeDriver::runOnePassNow()
{
    Pipeline &p = *_pipelines[0];
    bool was_sync = _apis[0]->synchronous();
    for (PageForgeApi *api : _apis) {
        pf_assert(!api->module().busy(),
                  "synchronous pass while hw is busy");
        api->setSynchronous(true);
    }
    _synchronous = true;

    startPass(p);
    p.remaining = static_cast<unsigned>(p.scanList.size());

    std::uint64_t processed = 0;
    bool from_inbox = false;
    while (pickNextCandidate(p, from_inbox)) {
        Action action = setupCandidate(p, from_inbox);
        while (action == Action::RunBatch) {
            programBatch(p);
            currentApi(p).module().processNow();
            ++_osChecks;
            action = onBatchComplete(p, currentApi(p).getPfeInfo());
        }
        unpinBatch(p);
        unpinCandidate(p);
        ++processed;
    }

    _synchronous = false;
    for (PageForgeApi *api : _apis)
        api->setSynchronous(was_sync);
    return processed;
}

void
PageForgeDriver::resetStats()
{
    _mergeStats.reset();
    std::fill(_shardScans.begin(), _shardScans.end(), 0);
    std::fill(_shardMerges.begin(), _shardMerges.end(), 0);
    _hashStats.reset();
    _refills.reset();
    _osChecks.reset();
    _hwHashRaces.reset();
    _batchesFlushed.reset();
    _falseKeyMatches.reset();
    _offsetRotations.reset();
    _mergeAborts.reset();
    _mergeRetries.reset();
}

} // namespace pageforge
