/**
 * @file
 * The chip's cache hierarchy: per-core L1/L2, shared L3, snoopy MESI.
 *
 * The hierarchy is the mechanism behind the paper's two software
 * overheads: ksmd's page streaming both occupies a core and fills
 * these arrays (pollution raising the L3 miss rate, Table 4), while
 * PageForge's requests bypass them entirely, only probing the bus for
 * coherence (Section 3.5).
 *
 * Structure: L1 is a subset of its core's L2 (inclusive, enforced with
 * back-invalidation); MESI is authoritative at the L2s, kept coherent
 * by bus snooping; the shared L3 backs the L2s and is filled on demand
 * and by L2 writebacks.
 */

#ifndef PF_CACHE_HIERARCHY_HH
#define PF_CACHE_HIERARCHY_HH

#include <memory>
#include <vector>

#include "cache/bus.hh"
#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "mem/mem_controller.hh"
#include "sim/sim_object.hh"

namespace pageforge
{

/** Where an access was serviced from. */
enum class AccessSource
{
    L1,
    L2,
    Peer, //!< cache-to-cache transfer from another core's L2
    L3,
    Memory,
};

/** Outcome of one demand access. */
struct AccessResult
{
    Tick latency = 0;
    AccessSource source = AccessSource::L1;
};

/** Outcome of a coherence probe issued from the memory controller. */
struct SnoopResult
{
    bool hit = false; //!< some cache holds the line
    Tick done = 0;    //!< when the (data) response reaches the MC
};

/** The full on-chip memory system. */
class Hierarchy : public SimObject
{
  public:
    Hierarchy(std::string name, EventQueue &eq, unsigned num_cores,
              const CacheConfig &l1_cfg, const CacheConfig &l2_cfg,
              const CacheConfig &l3_cfg, const BusConfig &bus_cfg,
              std::vector<MemController *> mcs);

    /**
     * Perform a demand access from a core.
     *
     * @param core issuing core
     * @param addr byte address (any alignment; line-granular tracking)
     * @param write true for stores
     * @param now issue tick
     * @param req requester class, for L3 attribution stats
     * @return total latency and servicing level
     */
    AccessResult access(CoreId core, Addr addr, bool write, Tick now,
                        Requester req);

    /**
     * Coherence probe from the memory controller (PageForge request
     * issued "to the on-chip network first", Section 3.2.2). Checks
     * all caches without perturbing their contents or LRU state; a hit
     * supplies the line over the bus.
     */
    SnoopResult snoopForMc(Addr addr, Tick now);

    /** True when any cache holds the line (no timing, for tests). */
    bool anyCacheHolds(Addr line_addr) const;

    unsigned numCores() const { return _numCores; }

    Cache &l1(CoreId core) { return *_l1[core]; }
    Cache &l2(CoreId core) { return *_l2[core]; }
    Cache &l3() { return *_l3; }
    Bus &bus() { return _bus; }

    /** The line-residency filter (read-only, for invariant checks). */
    const LineResidency &residency() const { return _residency; }

    unsigned
    numMemControllers() const
    {
        return static_cast<unsigned>(_mcs.size());
    }

    /**
     * Controller owning @p addr. Traffic below the L3 routes by the
     * frame's home channel, frame % numMemControllers(), matching the
     * ShardMap's channel interleave.
     */
    MemController &
    mcFor(Addr addr)
    {
        return *_mcs[addrToFrame(addr) % numMemControllers()];
    }

    /** L3 demand accesses by requester class (Table 4). */
    std::uint64_t l3Accesses(Requester req) const;
    std::uint64_t l3Misses(Requester req) const;

    /** Overall local L3 miss rate across all requesters. */
    double l3MissRate() const;

    /**
     * Outstanding misses summed over every core's L2 MSHR at @p now.
     * Read-only with respect to simulated outcomes (retired entries
     * are pruned lazily), so the metrics sampler can poll it.
     */
    std::size_t l2MshrOccupancy(Tick now);

    StatGroup &stats() { return _stats; }

    /** Reset per-level and attribution counters. */
    void resetStats();

    /**
     * Clear in-flight timing state (bus occupancy, MSHR entries) left
     * behind by a synchronous warm-up fast-forward. Cache contents
     * are kept: the warmed/polluted tags are real state.
     */
    void resetTiming();

  private:
    unsigned _numCores;
    std::vector<std::unique_ptr<Cache>> _l1;
    std::vector<std::unique_ptr<Cache>> _l2;
    std::vector<std::unique_ptr<Mshr>> _l2Mshr;
    std::unique_ptr<Cache> _l3;
    Bus _bus;
    std::vector<MemController *> _mcs; //!< one per channel, in order

    /**
     * Per-line holder byte over the L2s (weight 2 each) and the L3
     * (weight 1): its fields let access() skip the own-L2, peer-L2
     * and L3 probes that would miss, and a zero byte short-circuits
     * snoop tag scans (the dedup engines mostly touch lines no cache
     * holds).
     */
    LineResidency _residency;

    std::uint64_t _l3AccessBy[numRequesters] = {};
    std::uint64_t _l3MissBy[numRequesters] = {};

    Counter _upgrades;
    Counter _c2cTransfers;
    Counter _writebacksToMem;
    StatGroup _stats;

    /**
     * Fill a line into a core's L1, handling the victim.
     * @pre the line is absent from that L1 (it just missed there)
     */
    void fillL1(CoreId core, Addr line_addr, bool dirty);

    /**
     * Fill a line into a core's L2 (and L1), handling victims.
     * @pre the line is absent from that L2 (it just missed there)
     */
    void fillL2(CoreId core, Addr line_addr, MesiState state, Tick now);

    /** Insert into L3; dirty victims go to memory. */
    void fillL3(Addr line_addr, bool dirty, Tick now);

    /** Invalidate the line in every other core's private caches. */
    bool invalidatePeers(CoreId core, Addr line_addr, Tick now);
};

} // namespace pageforge

#endif // PF_CACHE_HIERARCHY_HH
