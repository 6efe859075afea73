#include "workload/query_gen.hh"

#include <cstring>
#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace pageforge
{

TailBenchApp::TailBenchApp(std::string name, EventQueue &eq,
                           Hypervisor &hyper, Hierarchy &hierarchy,
                           Core &core, ContentGenerator &content,
                           const VmLayout &layout,
                           const AppProfile &profile,
                           LatencyStats &latency, Rng rng)
    : SimObject(std::move(name), eq), _hyper(hyper),
      _hierarchy(hierarchy), _core(core), _content(content),
      _layout(layout), _profile(profile), _latency(latency), _rng(rng)
{
    pf_assert(_profile.qps > 0, "app with zero QPS");
}

void
TailBenchApp::start()
{
    pf_assert(!_running, "app started twice");
    _running = true;
    scheduleArrival();
    if (_profile.dirtyPagesPerSec > 0)
        scheduleChurn();
}

void
TailBenchApp::scheduleArrival()
{
    double mean_gap = static_cast<double>(ticksPerSec) / _profile.qps;
    Tick gap = static_cast<Tick>(
        std::max(1.0, _rng.nextExponential(mean_gap)));
    eventq().scheduleIn(gap, [this] { onArrival(); });
}

void
TailBenchApp::onArrival()
{
    if (!_running || !_hyper.vmAlive(_layout.vm))
        return;
    scheduleArrival();

    Tick arrival = curTick();
    _core.submit(CoreTask{
        [this](Tick start) { return executeQuery(start); },
        [this, arrival](Tick done) {
            ++_completed;
            _latency.record(_layout.vm, done - arrival);
        },
        Requester::App});
}

GuestPageNum
TailBenchApp::pickPage(bool write)
{
    // Three-tier locality over the VM-private working set: a hot
    // tier that lives in the private caches, a warm tier that the
    // shared L3 holds at baseline (the tier dedup pollution evicts,
    // Table 4), and a cold tail; reads also sample the shared block
    // (library/dataset reads). Writes mostly hit the private block,
    // with a tiny fraction dirtying shared pages (in-query CoW).
    unsigned ws = std::min(_profile.workingSetPages,
                           _layout.uniqueCount);
    unsigned hot = std::max(1u, ws / 8);
    unsigned warm = std::max(hot + 1, ws / 3);

    auto tiered = [&]() -> GuestPageNum {
        double roll = _rng.nextDouble();
        unsigned span;
        if (roll < 0.55)
            span = hot;
        else if (roll < 0.88)
            span = warm;
        else
            span = ws;
        return _layout.uniqueStart +
            static_cast<GuestPageNum>(_rng.nextBounded(span));
    };

    if (write) {
        // Stores rarely hit the shared block: libraries and datasets
        // are read-mostly; 0.2% models occasional relocation fixups
        // and keeps a slow stream of in-query CoW breaks alive.
        if (_layout.dupCount > 0 && _rng.chance(0.002)) {
            return _layout.dupStart + static_cast<GuestPageNum>(
                _rng.nextBounded(_layout.dupCount));
        }
        return tiered();
    }

    if (_layout.dupCount > 0 && _rng.chance(0.05)) {
        return _layout.dupStart + static_cast<GuestPageNum>(
            _rng.nextBounded(_layout.dupCount));
    }
    return tiered();
}

Tick
TailBenchApp::chargeCowCopy(Tick now, FrameId src_frame,
                            FrameId dst_frame)
{
    // The hypervisor copies the page through the faulting core.
    now += faultCycles;
    for (std::uint32_t line = 0; line < linesPerPage; ++line) {
        now += _hierarchy
                   .access(_core.id(), lineAddr(src_frame, line), false,
                           now, Requester::Os)
                   .latency;
        now += _hierarchy
                   .access(_core.id(), lineAddr(dst_frame, line), true,
                           now, Requester::Os)
                   .latency;
    }
    return now;
}

Tick
TailBenchApp::executeQuery(Tick start)
{
    // The VM may have been destroyed while this query sat in the run
    // queue; touching its pages now would resurrect mappings on a
    // dead VM and leak the frames.
    if (!_hyper.vmAlive(_layout.vm))
        return 1;

    Tick now = start;

    double jitter = 1.0 +
        _profile.serviceJitter * (2.0 * _rng.nextDouble() - 1.0);
    auto accesses = static_cast<unsigned>(
        std::max(1.0, _profile.memAccessesPerQuery * jitter));
    Tick compute_share = _profile.computePerAccess();

    for (unsigned i = 0; i < accesses; ++i) {
        bool write = _rng.chance(_profile.writeFraction);
        GuestPageNum gpn = pickPage(write);
        std::uint32_t offset = static_cast<std::uint32_t>(
            _rng.nextBounded(linesPerPage)) * lineSize;

        if (write) {
            FrameId before = _hyper.frameOf(_layout.vm, gpn);
            // A store burst dirties a record-sized run of lines (the
            // first line pays the timing; the rest are same-page
            // hits). Run-sized dirtying matters for hash-key
            // behaviour: repeatedly-written pages end up with broad
            // line coverage, as real buffers do.
            std::uint32_t run_lines = 1 + static_cast<std::uint32_t>(
                _rng.nextBounded(5));
            run_lines = std::min(run_lines,
                                 linesPerPage - offset / lineSize);
            std::uint8_t burst[8 * lineSize];
            for (std::uint32_t b = 0; b < run_lines * lineSize; b += 8) {
                std::uint64_t word = _rng.next();
                std::memcpy(burst + b, &word, sizeof(word));
            }
            WriteOutcome outcome = _hyper.writeToPage(
                _layout.vm, gpn, offset, burst, run_lines * lineSize);
            if (outcome.faulted)
                now += faultCycles;
            if (outcome.cowBroken) {
                ++_cowBreaks;
                now = chargeCowCopy(now, before, outcome.frame);
            }
            FrameId frame = outcome.frame;
            now += _hierarchy
                       .access(_core.id(), lineAddr(frame, offset / lineSize),
                               true, now, Requester::App)
                       .latency;
        } else {
            FrameId frame = _hyper.frameOf(_layout.vm, gpn);
            if (frame == invalidFrame) {
                frame = _hyper.touchPage(_layout.vm, gpn);
                now += faultCycles;
            }
            now += _hierarchy
                       .access(_core.id(), lineAddr(frame, offset / lineSize),
                               false, now, Requester::App)
                       .latency;
        }
        now += compute_share;
    }
    return now - start;
}

void
TailBenchApp::scheduleChurn()
{
    double mean_gap =
        static_cast<double>(ticksPerSec) / _profile.dirtyPagesPerSec;
    Tick gap = static_cast<Tick>(
        std::max(1.0, _rng.nextExponential(mean_gap)));
    eventq().scheduleIn(gap, [this] { onChurn(); });
}

void
TailBenchApp::onChurn()
{
    if (!_running || !_hyper.vmAlive(_layout.vm))
        return;
    scheduleChurn();
    if (_layout.dupCount == 0)
        return;

    // Dirty a shared page with junk (breaking any merge), then restore
    // its canonical contents after a delay — a guest page-cache page
    // being recycled and re-read from the same file.
    GuestPageNum gpn = _layout.dupStart + static_cast<GuestPageNum>(
        _rng.nextBounded(_layout.dupCount));
    std::uint64_t junk[8];
    for (auto &word : junk)
        word = _rng.next();
    std::uint32_t offset = static_cast<std::uint32_t>(
        _rng.nextBounded(linesPerPage)) * lineSize;
    _hyper.writeToPage(_layout.vm, gpn, offset, junk, sizeof(junk));

    // The restore applies even after stop(): it models guest state
    // (a page-cache refill) already in flight.
    eventq().scheduleIn(_profile.restoreDelay, [this, gpn] {
        _content.fillCanonical(_layout, gpn);
    });
}

} // namespace pageforge
