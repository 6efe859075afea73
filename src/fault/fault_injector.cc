#include "fault/fault_injector.hh"

#include <algorithm>

#include "core/module_watchdog.hh"
#include "core/pageforge_driver.hh"
#include "core/pageforge_module.hh"
#include "fault/mc_health.hh"
#include "sim/logging.hh"

namespace pageforge
{

FaultInjector::FaultInjector(std::string name, EventQueue &eq,
                             std::vector<MemController *> mcs,
                             Hypervisor &hyper, const FaultConfig &config,
                             std::uint64_t stream_seed,
                             std::vector<PageForgeModule *> modules,
                             const PageForgeDriver *driver,
                             const ModuleWatchdog *watchdog,
                             McHealthMonitor *health)
    : SimObject(std::move(name), eq), _mcs(std::move(mcs)),
      _hyper(hyper), _config(config), _rng(stream_seed),
      _modules(std::move(modules)), _driver(driver), _watchdog(watchdog),
      _health(health)
{
    pf_assert(!_mcs.empty(), "fault injector with no controllers");
    std::string bad = _config.problem();
    pf_assert(bad.empty(), "invalid fault config: %s", bad.c_str());
    pf_assert(_modules.empty() || _config.mcWedgeRate <= 0.0 || _watchdog,
              "module wedges need the watchdog");
    pf_assert(_config.brownoutRate <= 0.0 || _health,
              "brownouts need the health monitor");
}

double
FaultInjector::meanFlipIntervalTicks() const
{
    double capacity_gb =
        static_cast<double>(_hyper.memory().totalFrames()) * pageSize / 1e9;
    double flips_per_sec = _config.flipsPerGBSec * capacity_gb;
    return static_cast<double>(ticksPerSec) / flips_per_sec;
}

void
FaultInjector::start()
{
    if (_running)
        return;
    _running = true;
    if (_config.flipsPerGBSec > 0.0)
        scheduleFlip();
    if (_config.scanTableRate > 0.0)
        scheduleTableCorruption();
    if (_config.mcWedgeRate > 0.0)
        scheduleWedge();
    if (_config.brownoutRate > 0.0)
        scheduleBrownout();
}

void
FaultInjector::stop()
{
    _running = false;
}

void
FaultInjector::scheduleFlip()
{
    double wait = _rng.nextExponential(meanFlipIntervalTicks());
    Tick when = curTick() + std::max<Tick>(1, static_cast<Tick>(wait));
    eventq().schedule(when, [this] {
        if (!_running)
            return;
        injectFlip();
        scheduleFlip();
    });
}

void
FaultInjector::injectFlip()
{
    // Pick an allocated, not-yet-poisoned victim frame. Bounded
    // retries keep the event cheap when memory is sparse; a miss is
    // a fault that struck an unused cell (counted, not injected).
    PhysicalMemory &mem = _hyper.memory();
    FrameId frame = invalidFrame;
    for (unsigned attempt = 0; attempt < 64; ++attempt) {
        FrameId pick =
            static_cast<FrameId>(_rng.nextBounded(mem.totalFrames()));
        if (mem.isAllocated(pick) && !mem.isPoisoned(pick)) {
            frame = pick;
            break;
        }
    }
    if (frame == invalidFrame) {
        ++_stats.skippedNoTarget;
        return;
    }

    // Which line: biased toward the currently-sampled minikey source
    // lines (attacking the hash-key path) or uniform over the page.
    std::uint32_t line;
    if (_config.minikeyBias > 0.0 && _rng.chance(_config.minikeyBias)) {
        // Track the driver's update_ECC_offset rotations.
        EccOffsets offsets =
            _driver ? _driver->config().eccOffsets : EccOffsets::defaults();
        unsigned section =
            static_cast<unsigned>(_rng.nextBounded(eccHashSections));
        line = offsets.lineIndex(section);
        ++_stats.minikeyTargeted;
    } else {
        line = static_cast<std::uint32_t>(_rng.nextBounded(linesPerPage));
    }

    Addr addr = lineAddr(frame, line);
    bool persistent = _rng.chance(_config.stuckAtFraction);
    bool double_bit = _rng.chance(_config.doubleBitFraction);

    // The flip lands on the channel homing the victim frame.
    MemController &mc = mcOf(frame);
    unsigned bits = 1;
    if (double_bit) {
        // Two distinct bits of one 64-bit word: detected by SECDED
        // but uncorrectable.
        unsigned word = static_cast<unsigned>(_rng.nextBounded(8));
        unsigned b1 = word * 64 + static_cast<unsigned>(_rng.nextBounded(64));
        unsigned b2 = b1;
        while (b2 == b1)
            b2 = word * 64 + static_cast<unsigned>(_rng.nextBounded(64));
        mc.injectBitFlip(addr, b1, persistent);
        mc.injectBitFlip(addr, b2, persistent);
        bits = 2;
        ++_stats.doubleBitFlips;
    } else {
        unsigned bit = static_cast<unsigned>(_rng.nextBounded(lineSize * 8));
        mc.injectBitFlip(addr, bit, persistent);
        ++_stats.singleBitFlips;
    }
    ++_stats.flipEvents;
    if (persistent)
        ++_stats.stuckAtFaults;

    probe().instant("bit-flip", curTick(),
                    {"frame", static_cast<double>(frame)},
                    {"bits", static_cast<double>(bits)});
    pf_inform(Fault, "injected %u-bit %s fault at frame %u line %u", bits,
              persistent ? "stuck-at" : "transient", frame, line);
}

void
FaultInjector::scheduleTableCorruption()
{
    double mean_ticks =
        static_cast<double>(ticksPerSec) / _config.scanTableRate;
    double wait = _rng.nextExponential(mean_ticks);
    Tick when = curTick() + std::max<Tick>(1, static_cast<Tick>(wait));
    eventq().schedule(when, [this] {
        if (!_running)
            return;
        corruptTableEntry();
        scheduleTableCorruption();
    });
}

void
FaultInjector::corruptTableEntry()
{
    if (_modules.empty())
        return;
    ScanTable &table = _modules[pickTarget(_modules.size())]->table();
    unsigned index =
        static_cast<unsigned>(_rng.nextBounded(table.numOtherPages()));
    FrameId victim = static_cast<FrameId>(
        _rng.nextBounded(_hyper.memory().totalFrames()));
    if (!table.corruptOtherPpn(index, victim)) {
        ++_stats.skippedNoTarget;
        return;
    }
    ++_stats.tableCorruptions;
    probe().instant("table-corrupt", curTick());
    pf_inform(Fault, "corrupted a scan table entry");
}

void
FaultInjector::scheduleWedge()
{
    double mean_ticks =
        static_cast<double>(ticksPerSec) / _config.mcWedgeRate;
    double wait = _rng.nextExponential(mean_ticks);
    Tick when = curTick() + std::max<Tick>(1, static_cast<Tick>(wait));
    eventq().schedule(when, [this] {
        if (!_running)
            return;
        injectWedge();
        scheduleWedge();
    });
}

void
FaultInjector::injectWedge()
{
    if (_modules.empty())
        return;
    std::size_t shard = pickTarget(_modules.size());
    PageForgeModule &module = *_modules[shard];
    // A module already hung, or held down by the watchdog's recovery
    // sequence, has nothing left to wedge.
    if (module.wedged() ||
        _watchdog->shardDown(static_cast<unsigned>(shard))) {
        ++_stats.skippedNoTarget;
        return;
    }
    module.wedge();
    ++_stats.mcWedges;
    probe().instant("module-wedge", curTick());
    pf_inform(Fault, "wedged a PageForge module FSM");
}

void
FaultInjector::scheduleBrownout()
{
    double mean_ticks =
        static_cast<double>(ticksPerSec) / _config.brownoutRate;
    double wait = _rng.nextExponential(mean_ticks);
    Tick when = curTick() + std::max<Tick>(1, static_cast<Tick>(wait));
    eventq().schedule(when, [this] {
        if (!_running)
            return;
        beginBrownout();
        scheduleBrownout();
    });
}

void
FaultInjector::beginBrownout()
{
    // A brownout only lands on a Healthy channel: Degraded channels
    // are already browned out, and Quarantined / Recovering ones are
    // being handled by the watchdog.
    unsigned channel = static_cast<unsigned>(pickTarget(_mcs.size()));
    if (_health->state(channel) != McHealth::Healthy) {
        ++_stats.skippedNoTarget;
        return;
    }
    _mcs[channel]->setLatencyScale(_config.brownoutMult);
    _health->transition(channel, McHealth::Degraded, "channel brownout");
    ++_stats.brownouts;
    Tick duration = std::max<Tick>(1, msToTicks(_config.brownoutMs));
    probe().span("brownout", curTick(), curTick() + duration,
                 {"channel", static_cast<double>(channel)});
    pf_inform(Fault, "channel %u brownout for %.3f ms (latency x%.1f)",
              channel, _config.brownoutMs, _config.brownoutMult);
    // The restore runs even after stop(): leaving a controller
    // permanently slowed past the campaign end would corrupt any
    // drain work still in flight.
    eventq().schedule(curTick() + duration,
                      [this, channel] { endBrownout(channel); });
}

void
FaultInjector::endBrownout(unsigned mc)
{
    _mcs[mc]->setLatencyScale(1.0);
    // The channel may have been quarantined by a wedge mid-brownout;
    // the watchdog then owns its path back to Healthy.
    if (_health->state(mc) == McHealth::Degraded)
        _health->transition(mc, McHealth::Healthy, "brownout ended");
}

bool
FaultInjector::maybeInjectMergeRace(const PageKey &candidate)
{
    if (!_running || _config.mergeRaceProb <= 0.0 ||
        !_rng.chance(_config.mergeRaceProb))
        return false;

    // Only a mapped page of a live VM can take a guest write; touching
    // anything else would *create* state rather than corrupt it.
    if (candidate.vm >= _hyper.numVms() || !_hyper.vmAlive(candidate.vm))
        return false;
    const VirtualMachine &machine = _hyper.vm(candidate.vm);
    if (candidate.gpn >= machine.numPages() ||
        !machine.page(candidate.gpn).mapped)
        return false;

    // A real guest write to the candidate, landing between the batch
    // match and the merge commit: flip one byte so the content truly
    // diverges from what the hardware compared.
    std::uint32_t offset =
        static_cast<std::uint32_t>(_rng.nextBounded(pageSize));
    std::uint8_t byte =
        static_cast<std::uint8_t>(
            ~_hyper.pageData(candidate.vm, candidate.gpn)[offset]);
    _hyper.writeToPage(candidate.vm, candidate.gpn, offset, &byte, 1);

    ++_stats.raceWrites;
    probe().instant("merge-race", curTick(),
                    {"vm", static_cast<double>(candidate.vm)},
                    {"gpn", static_cast<double>(candidate.gpn)});
    pf_inform(Fault, "injected racing write on vm %u gpn %llu",
              candidate.vm,
              static_cast<unsigned long long>(candidate.gpn));
    return true;
}

} // namespace pageforge
