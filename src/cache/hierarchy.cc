#include "cache/hierarchy.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace pageforge
{

namespace
{
unsigned
reqIdx(Requester req)
{
    return static_cast<unsigned>(req);
}
} // namespace

Hierarchy::Hierarchy(std::string name, EventQueue &eq, unsigned num_cores,
                     const CacheConfig &l1_cfg, const CacheConfig &l2_cfg,
                     const CacheConfig &l3_cfg, const BusConfig &bus_cfg,
                     std::vector<MemController *> mcs)
    : SimObject(std::move(name), eq), _numCores(num_cores),
      _bus(this->name() + ".bus", eq, bus_cfg), _mcs(std::move(mcs)),
      _residency(_mcs.at(0)->memory().totalFrames() * linesPerPage),
      _stats(this->name())
{
    pf_assert(num_cores > 0, "hierarchy with no cores");
    pf_assert(num_cores <= LineResidency::maxCores,
              "%u cores overflow the line-residency byte", num_cores);
    for (unsigned c = 0; c < num_cores; ++c) {
        CacheConfig l1 = l1_cfg;
        l1.name = this->name() + ".l1." + std::to_string(c);
        CacheConfig l2 = l2_cfg;
        l2.name = this->name() + ".l2." + std::to_string(c);
        _l1.push_back(std::make_unique<Cache>(l1));
        _l2.push_back(std::make_unique<Cache>(l2));
        // L1s stay unattached: inclusion puts their lines in the L2.
        _l2.back()->attachResidency(&_residency, LineResidency::l2Weight);
        _l2Mshr.push_back(
            std::make_unique<Mshr>(l2.name + ".mshr", l2.mshrs));
    }
    CacheConfig l3 = l3_cfg;
    l3.name = this->name() + ".l3";
    _l3 = std::make_unique<Cache>(l3);
    _l3->attachResidency(&_residency, LineResidency::l3Weight);

    _stats.addCounter("upgrades", "S->M bus upgrade transactions",
                      _upgrades);
    _stats.addCounter("c2c_transfers", "cache-to-cache data transfers",
                      _c2cTransfers);
    _stats.addCounter("writebacks_to_mem", "dirty L3 victims to DRAM",
                      _writebacksToMem);
    _stats.addStat("l3_miss_rate", "overall local L3 miss rate",
                   [this] { return l3MissRate(); });
}

void
Hierarchy::fillL1(CoreId core, Addr line_addr, bool dirty)
{
    Victim victim = _l1[core]->fillAbsent(
        line_addr, dirty ? MesiState::Modified : MesiState::Shared);
    if (victim.valid && victim.dirty) {
        // Dirty L1 victims drain into the core's L2; inclusion
        // guarantees the line is present there, and setState asserts
        // it rather than dropping the dirtiness.
        _l2[core]->setState(victim.addr, MesiState::Modified);
    }
}

void
Hierarchy::fillL2(CoreId core, Addr line_addr, MesiState state, Tick now)
{
    Victim victim = _l2[core]->fillAbsent(line_addr, state);
    if (victim.valid) {
        // Enforce inclusion: the L1 copy must go when the L2 copy goes.
        bool l1_dirty = _l1[core]->invalidate(victim.addr);
        if (victim.dirty || l1_dirty) {
            // Dirty private victim is written back to the shared L3.
            _bus.transact(now, true);
            fillL3(victim.addr, true, now);
        }
    }
    fillL1(core, line_addr, state == MesiState::Modified);
}

void
Hierarchy::fillL3(Addr line_addr, bool dirty, Tick now)
{
    Victim victim = _l3->insert(
        line_addr, dirty ? MesiState::Modified : MesiState::Exclusive);
    if (victim.valid && victim.dirty) {
        mcFor(victim.addr).writeLine(victim.addr, now,
                                     Requester::Writeback);
        ++_writebacksToMem;
    }
}

bool
Hierarchy::invalidatePeers(CoreId core, Addr line_addr, Tick now)
{
    (void)now;
    // The caller's own L2 holds the line; when it is the only L2
    // holder, no peer L2 (and by inclusion no peer L1) has a copy.
    if (LineResidency::l2Holders(_residency.at(line_addr)) == 1)
        return false;
    bool any = false;
    for (unsigned p = 0; p < _numCores; ++p) {
        if (p == core)
            continue;
        if (_l2[p]->invalidate(line_addr))
            any = true;
        _l1[p]->invalidate(line_addr);
    }
    return any;
}

AccessResult
Hierarchy::access(CoreId core, Addr addr, bool write, Tick now,
                  Requester req)
{
    pf_assert(core < _numCores, "access from unknown core %u", core);
    Addr line = lineAlign(addr);
    Cache &l1 = *_l1[core];
    Cache &l2 = *_l2[core];
    Mshr &mshr = *_l2Mshr[core];

    const Tick l1_lat = l1.config().hitLatency;
    const Tick l2_lat = l2.config().hitLatency;
    const Tick l3_lat = _l3->config().hitLatency;

    // ---- L1 ----
    // The L1 probe comes before the residency check on purpose: its
    // tag array is small enough to stay hot in the host's caches,
    // while the residency filter is a byte load from a frames-sized
    // array that usually misses — worth paying only once the L1 has.
    MesiState s1 = l1.access(line);
    if (s1 != MesiState::Invalid) {
        Tick lat = l1_lat;
        // A line already Modified in L1 is Modified in L2 too (every
        // path granting L1 the M state grants it to the L2 alongside),
        // so a repeated store changes no state: skip the probe,
        // upgrade check, and state writes outright.
        if (write && s1 != MesiState::Modified) {
            // Inclusion: the L2 must also hold the line.
            MesiState s2 = l2.probe(line);
            pf_assert(s2 != MesiState::Invalid,
                      "L1/L2 inclusion violated for line %llx",
                      static_cast<unsigned long long>(line));
            if (s2 == MesiState::Shared) {
                // Upgrade: invalidate the other sharers over the bus.
                Tick done = _bus.transact(now + lat, false);
                invalidatePeers(core, line, now);
                ++_upgrades;
                lat = done - now;
            }
            l2.setState(line, MesiState::Modified);
            l1.setState(line, MesiState::Modified);
        }
        return {lat, AccessSource::L1};
    }

    // The residency byte says which levels can hit: with no L2
    // holder, record the L2 miss without scanning its set. Its fields
    // stay valid until the fills below — the peer snoop only changes
    // peer L2s, never the L3 bit — and every probe it skips would
    // have missed, touching nothing but the miss counter.
    const std::uint8_t holders = _residency.at(line);
    const unsigned l2_holders = LineResidency::l2Holders(holders);

    // ---- L2 ----
    MesiState s2;
    if (l2_holders != 0) {
        s2 = l2.access(line);
    } else {
        l2.missFast();
        s2 = MesiState::Invalid;
    }
    if (s2 != MesiState::Invalid) {
        Tick lat = l1_lat + l2_lat;
        if (write && s2 == MesiState::Shared) {
            Tick done = _bus.transact(now + lat, false);
            invalidatePeers(core, line, now);
            ++_upgrades;
            lat = done - now;
        }
        if (write && s2 != MesiState::Modified)
            l2.setState(line, MesiState::Modified);
        fillL1(core, line, write);
        return {lat, AccessSource::L2};
    }

    // ---- L2 miss: coalesce on an outstanding fill if one exists ----
    if (auto ready = mshr.pendingFill(line, now)) {
        Tick done = std::max(*ready, now + l1_lat + l2_lat);
        return {done - now, AccessSource::L2};
    }

    Tick stall = mshr.reserve(now);
    Tick start = now + stall + l1_lat + l2_lat;

    // ---- Bus: snoop the other cores' private caches ----
    // The own L2 missed, so every L2 holder counted above is a peer.
    Tick bus_done = _bus.transact(start, false);
    bool peer_had = false;
    bool peer_was_m = false;
    for (unsigned p = 0; l2_holders != 0 && p < _numCores; ++p) {
        if (p == core)
            continue;
        MesiState sp = _l2[p]->probe(line);
        if (sp == MesiState::Invalid)
            continue;
        peer_had = true;
        if (sp == MesiState::Modified)
            peer_was_m = true;
        if (write) {
            _l2[p]->invalidate(line);
            _l1[p]->invalidate(line);
        } else {
            _l2[p]->setState(line, MesiState::Shared);
            if (_l1[p]->contains(line))
                _l1[p]->setState(line, MesiState::Shared);
        }
    }

    Tick done;
    AccessSource source;
    if (peer_was_m) {
        // Dirty peer supplies the line cache-to-cache and the shared
        // L3 picks up the writeback.
        done = _bus.transact(bus_done, true);
        fillL3(line, true, now);
        ++_c2cTransfers;
        source = AccessSource::Peer;
    } else {
        ++_l3AccessBy[reqIdx(req)];
        MesiState s3;
        if (LineResidency::inL3(holders)) {
            s3 = _l3->access(line);
        } else {
            _l3->missFast();
            s3 = MesiState::Invalid;
        }
        if (s3 != MesiState::Invalid) {
            done = _bus.transact(bus_done + l3_lat, true);
            source = AccessSource::L3;
        } else {
            ++_l3MissBy[reqIdx(req)];
            McReadResult rr = mcFor(line).readLine(line, bus_done, req);
            done = rr.done;
            fillL3(line, false, now);
            source = AccessSource::Memory;
        }
    }

    MesiState new_state = write
        ? MesiState::Modified
        : (peer_had ? MesiState::Shared : MesiState::Exclusive);
    mshr.insertFill(line, done);
    fillL2(core, line, new_state, now);

    return {done - now, source};
}

SnoopResult
Hierarchy::snoopForMc(Addr addr, Tick now)
{
    Addr line = lineAlign(addr);
    // Address-phase probe on the bus; every cache checks its tags.
    Tick probe_done = _bus.probe(now);

    // Zero residency count: no cache can hit, skip the tag probes.
    if (!_residency.holds(line))
        return {false, probe_done};

    bool hit = _l3->probe(line) != MesiState::Invalid;
    for (unsigned c = 0; c < _numCores && !hit; ++c)
        hit = _l2[c]->probe(line) != MesiState::Invalid;

    if (!hit)
        return {false, probe_done};

    // A cache supplies the line over the bus to the memory controller.
    // PageForge has no cache, so states and LRU are left untouched
    // (Section 3.5: it never becomes an owner or sharer).
    Tick done = _bus.transact(probe_done, true);
    return {true, done};
}

bool
Hierarchy::anyCacheHolds(Addr line_addr) const
{
    Addr line = lineAlign(line_addr);
    if (!_residency.holds(line))
        return false;
    if (_l3->probe(line) != MesiState::Invalid)
        return true;
    for (unsigned c = 0; c < _numCores; ++c) {
        if (_l2[c]->probe(line) != MesiState::Invalid ||
            _l1[c]->probe(line) != MesiState::Invalid) {
            return true;
        }
    }
    return false;
}

std::uint64_t
Hierarchy::l3Accesses(Requester req) const
{
    return _l3AccessBy[reqIdx(req)];
}

std::uint64_t
Hierarchy::l3Misses(Requester req) const
{
    return _l3MissBy[reqIdx(req)];
}

double
Hierarchy::l3MissRate() const
{
    std::uint64_t acc = 0;
    std::uint64_t miss = 0;
    for (unsigned i = 0; i < numRequesters; ++i) {
        acc += _l3AccessBy[i];
        miss += _l3MissBy[i];
    }
    return acc ? static_cast<double>(miss) / static_cast<double>(acc) : 0.0;
}

std::size_t
Hierarchy::l2MshrOccupancy(Tick now)
{
    std::size_t total = 0;
    for (auto &mshr : _l2Mshr)
        total += mshr->occupancy(now);
    return total;
}

void
Hierarchy::resetTiming()
{
    _bus.resetTiming();
    for (auto &mshr : _l2Mshr)
        mshr->reset();
}

void
Hierarchy::resetStats()
{
    for (unsigned c = 0; c < _numCores; ++c) {
        _l1[c]->resetStats();
        _l2[c]->resetStats();
    }
    _l3->resetStats();
    for (unsigned i = 0; i < numRequesters; ++i) {
        _l3AccessBy[i] = 0;
        _l3MissBy[i] = 0;
    }
    _upgrades.reset();
    _c2cTransfers.reset();
    _writebacksToMem.reset();
}

} // namespace pageforge
