#include "core/pageforge_module.hh"

#include <algorithm>
#include <cstring>

#include "prof/profiler.hh"
#include "sim/logging.hh"
#include "sim/simd.hh"

namespace pageforge
{

PageForgeModule::PageForgeModule(std::string name, EventQueue &eq,
                                 MemController &mc, Hierarchy &hierarchy,
                                 const PageForgeConfig &config)
    : SimObject(std::move(name), eq), _mc(mc), _hierarchy(hierarchy),
      _config(config), _table(config.scanTableEntries),
      _hashAcc(config.eccOffsets), _stats(this->name())
{
    _stats.addCounter("comparisons", "page comparisons performed",
                      _comparisons);
    _stats.addCounter("lines_fetched", "line requests issued",
                      _linesFetched);
    _stats.addCounter("snoop_hits", "lines supplied by the caches",
                      _snoopHits);
    _stats.addCounter("dram_reads", "lines read from DRAM", _dramReads);
    _stats.addCounter("duplicates", "duplicate pages found", _duplicates);
    _stats.addCounter("batches", "scan table batches processed",
                      _batches);
    _stats.addStat("avg_batch_cycles", "mean table processing time",
                   [this] { return _processCycles.mean(); });
}

void
PageForgeModule::beginCandidate()
{
    _hashAcc.reset();
}

void
PageForgeModule::setEccOffsets(const EccOffsets &offsets)
{
    _config.eccOffsets = offsets;
    _hashAcc = EccHashAccumulator(offsets);
}

Tick
PageForgeModule::fetchLine(FrameId frame, std::uint32_t line_idx,
                           Tick now, bool snatch_ecc)
{
    ++_linesFetched;
    Addr addr = lineAddr(frame, line_idx);

    // Only materialize the ECC code's value when the accumulator would
    // actually capture this line; offer() ignores everything else, so
    // the gating is behaviour-preserving while skipping nearly all of
    // the host-side Hamming work. The modelled encode/decode always
    // happens (and is counted) either way.
    bool need_ecc = snatch_ecc && _hashAcc.wants(line_idx);

    // Issue to the on-chip network first (Section 3.2.2). On a miss
    // the line is read through the controller that homes the frame:
    // with several MCs a remote compare's traffic lands on the owning
    // channel, not on the scanning module's own controller.
    Tick done;
    LineEccCode ecc;
    SnoopResult snoop = _hierarchy.snoopForMc(addr, now);
    MemController &mc = _hierarchy.mcFor(addr);
    if (snoop.hit) {
        ++_snoopHits;
        // The response passes through the memory controller, whose
        // ECC circuitry generates the line's code (Section 3.3.2).
        ecc = mc.encodeLine(addr, need_ecc);
        done = snoop.done;
    } else {
        McReadResult rr = mc.readLine(addr, snoop.done,
                                      Requester::PageForge, need_ecc);
        ++_dramReads;
        ecc = rr.ecc;
        done = rr.done;
    }

    if (need_ecc)
        _hashAcc.offer(line_idx, ecc);
    return done;
}

Tick
PageForgeModule::process(Tick start, BatchResult &result)
{
    prof::ScopedTimer timer(prof::Site::ScanTableWalk);
    const PfeEntry &pfe = _table.pfe();
    pf_assert(pfe.valid, "processing with no candidate loaded");

    PhysicalMemory &mem = _mc.memory();
    Tick now = start + _config.triggerCycles;
    ScanIndex cur = pfe.ptr;
    result.ptr = cur;
    ++_batches;

    unsigned steps = 0;
    while (_table.isValidTarget(cur)) {
        // Defensive step counter: a well-formed batch never compares
        // more entries than the table holds (Less/More form a DAG).
        // Malformed software-provided indices must not hang the FSM.
        if (++steps > _table.numOtherPages()) {
            pf_warn(ScanTable, "scan table walk exceeded %u steps; stopping",
                    _table.numOtherPages());
            break;
        }
        const OtherPageEntry &entry = _table.other(cur);
        ++_comparisons;

        // Lockstep line-by-line comparison: both lines are requested
        // together; the comparator consumes them when both arrived.
        int sign = 0;
        for (std::uint32_t line = 0; line < linesPerPage; ++line) {
            Tick cand_done = fetchLine(pfe.ppn, line, now, true);
            Tick other_done = fetchLine(entry.ppn, line, now, false);
            now = std::max(cand_done, other_done) +
                _config.compareLineCycles;

            const std::uint8_t *a = mem.lineData(pfe.ppn, line);
            // rawData, not lineData: a corrupted Other Pages PPN (an
            // SRAM upset) may name a free frame. The hardware compares
            // whatever those DRAM cells hold and the walk simply goes
            // down the wrong path — the software full compare is the
            // backstop, not an allocator assert here.
            const std::uint8_t *b =
                mem.rawData(entry.ppn) + line * lineSize;
            std::uint32_t diff = simd::firstDiff(a, b, 0, lineSize);
            if (diff != lineSize) {
                sign = a[diff] < b[diff] ? -1 : 1;
                break;
            }
        }
        now += _config.fsmStepCycles;

        if (sign == 0) {
            result.duplicate = true;
            result.ptr = cur;
            ++_duplicates;
            break;
        }
        cur = sign < 0 ? entry.less : entry.more;
        result.ptr = cur;
    }

    result.scanned = true;

    // Complete the hash key if this was the last refill or a
    // duplicate ended the search (Section 3.3.1).
    if ((pfe.lastRefill || result.duplicate) && !_hashAcc.ready()) {
        for (std::uint32_t line : _hashAcc.missingLines()) {
            if (line == ~std::uint32_t(0))
                break;
            now = fetchLine(pfe.ppn, line, now, true);
        }
    }
    if (_hashAcc.ready()) {
        result.hashReady = true;
        result.hash = _hashAcc.key();
    }

    Tick duration = now - start;
    _processCycles.sample(static_cast<double>(duration));
    return now;
}

void
PageForgeModule::applyResult(const BatchResult &result)
{
    PfeEntry &pfe = _table.pfe();
    pfe.scanned = result.scanned;
    pfe.duplicate = result.duplicate;
    pfe.ptr = result.ptr;
    if (result.hashReady) {
        pfe.hashReady = true;
        pfe.hash = result.hash;
    }
}

void
PageForgeModule::trigger()
{
    pf_assert(!_busy, "trigger while busy");
    _busy = true;

    if (_wedged) {
        // Wedged FSM: the trigger raises Busy and then hangs before
        // issuing a single request. No traffic, no completion event —
        // the module stays busy until a watchdog force-resets it.
        return;
    }

    BatchResult result;
    Tick start = curTick();
    Tick done = process(start, result);
    probe().span("table-process", start, done,
                 {"duplicate", result.duplicate ? 1.0 : 0.0});
    std::uint64_t epoch = _resetEpoch;
    eventq().schedule(done, [this, result, epoch] {
        // A wedge that lands mid-batch swallows the completion: the
        // walk's traffic happened, but the result is never applied
        // and Busy never clears (cleared later by forceReset(), which
        // also bumps the epoch so this event can never fire late).
        if (_wedged || epoch != _resetEpoch)
            return;
        applyResult(result);
        _busy = false;
        ++_completions;
    });
}

Tick
PageForgeModule::processNow()
{
    pf_assert(!_busy, "processNow while busy");
    BatchResult result;
    Tick done = process(curTick(), result);
    applyResult(result);
    ++_completions;
    return done - curTick();
}

void
PageForgeModule::resetStats()
{
    _processCycles.reset();
    _comparisons.reset();
    _linesFetched.reset();
    _snoopHits.reset();
    _dramReads.reset();
    _duplicates.reset();
    _batches.reset();
}

} // namespace pageforge
