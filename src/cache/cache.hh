/**
 * @file
 * Set-associative write-back cache tag array with MESI states.
 *
 * Caches in this simulator are tag-only: functional data always lives
 * in PhysicalMemory (writes update it immediately), so the arrays track
 * presence, coherence state, and dirtiness for timing and pollution
 * modelling. This matches what same-page merging stresses: KSM evicts
 * application working sets by streaming pages through the hierarchy,
 * while PageForge bypasses it entirely.
 */

#ifndef PF_CACHE_CACHE_HH
#define PF_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/simd.hh"
#include "sim/types.hh"
#include "stats/stat_group.hh"

namespace pageforge
{

/** MESI coherence states. */
enum class MesiState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** Short label for a MESI state. */
const char *mesiName(MesiState state);

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::string name;
    std::uint32_t sizeBytes;
    std::uint32_t ways;
    Tick hitLatency; //!< round-trip access latency in ticks
    std::uint32_t mshrs;

    std::uint32_t
    numSets() const
    {
        return sizeBytes / (lineSize * ways);
    }
};

/** A line evicted to make room for a fill. */
struct Victim
{
    bool valid = false;
    Addr addr = 0;
    bool dirty = false;
};

/**
 * Exact per-line record of which levels hold a line, shared by every
 * L2 and the L3 of a hierarchy. A line's byte is
 * 2 x (number of L2s holding it) + (1 if the L3 holds it): each
 * attached cache adds its weight when it gains the line and subtracts
 * it when it loses it. L1s attach nothing — inclusion (L1 within its
 * core's L2) already implies their lines.
 *
 * The byte lets the demand path skip the own-L2 probe, the peer-L2
 * snoop and the L3 probe whenever the corresponding field is zero,
 * and a zero byte proves the line is in no cache at all — the common
 * case for the dedup engines, which stream lines that are rarely
 * cached anywhere. Every probe it short-circuits would have returned
 * "absent", so the filter is a pure host-side accelerator. The byte
 * tops out at 2 x numCores + 1, which bounds a hierarchy at 127 cores.
 */
class LineResidency
{
  public:
    /** Weight an L2 adds to a line's byte while it holds the line. */
    static constexpr std::uint8_t l2Weight = 2;
    /** Weight the L3 adds to a line's byte while it holds the line. */
    static constexpr std::uint8_t l3Weight = 1;
    /** Most cores whose holder counts still fit in the byte. */
    static constexpr unsigned maxCores = (0xff - l3Weight) / l2Weight;

    explicit LineResidency(std::size_t total_lines)
        : _count(total_lines, 0)
    {
    }

    /** The raw holder byte of @p line_addr. */
    std::uint8_t at(Addr line_addr) const { return _count[index(line_addr)]; }

    /** Could any cache hold @p line_addr? Exact, not a guess. */
    bool holds(Addr line_addr) const { return at(line_addr) != 0; }

    /** Number of L2s a holder byte counts. */
    static unsigned l2Holders(std::uint8_t byte) { return byte / l2Weight; }

    /** Does a holder byte record the line in the L3? */
    static bool inL3(std::uint8_t byte) { return byte % l2Weight != 0; }

    void
    add(Addr line_addr, std::uint8_t weight)
    {
        _count[index(line_addr)] += weight;
    }

    void
    remove(Addr line_addr, std::uint8_t weight)
    {
        _count[index(line_addr)] -= weight;
    }

  private:
    std::size_t
    index(Addr line_addr) const
    {
        std::size_t i = static_cast<std::size_t>(line_addr / lineSize);
        pf_assert(i < _count.size(), "line %llx beyond residency range",
                  static_cast<unsigned long long>(line_addr));
        return i;
    }

    std::vector<std::uint8_t> _count;
};

/** The tag array of one cache. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    const CacheConfig &config() const { return _config; }

    /**
     * Look up a line and update LRU on hit.
     * @return the line's state, Invalid on miss
     */
    MesiState
    access(Addr line_addr)
    {
        std::size_t idx = findIdx(line_addr);
        if (idx != npos) {
            _lastUsed[idx] = ++_useClock;
            ++_hits;
            return tagState(_tags[idx]);
        }
        ++_misses;
        return MesiState::Invalid;
    }

    /** Look up without disturbing LRU (snoops, invariants, tests). */
    MesiState
    probe(Addr line_addr) const
    {
        std::size_t idx = findIdx(line_addr);
        return idx != npos ? tagState(_tags[idx]) : MesiState::Invalid;
    }

    /** True when the line is present in any valid state. */
    bool
    contains(Addr line_addr) const
    {
        return findIdx(line_addr) != npos;
    }

    /**
     * Fill a line, evicting the set's LRU victim if needed. A line
     * already resident just takes the new state and recency.
     * @return the victim (valid=false when an empty way was used)
     */
    Victim insert(Addr line_addr, MesiState state);

    /**
     * Fill a line the caller has just proven absent (a demand miss on
     * this cache), skipping insert()'s resident-copy scan. The victim
     * is the set's first invalid way, else its LRU way — the same one
     * insert() picks.
     * @pre the line is not resident
     */
    Victim fillAbsent(Addr line_addr, MesiState state);

    /**
     * Change the state of a resident line.
     * @pre the line is present
     */
    void setState(Addr line_addr, MesiState state);

    /**
     * Drop a line if present.
     * @return true when the line was present and dirty (M)
     */
    bool invalidate(Addr line_addr);

    /** Number of resident lines (for tests). */
    std::size_t residentLines() const;

    std::uint64_t hits() const { return _hits.value(); }
    std::uint64_t misses() const { return _misses.value(); }
    std::uint64_t evictions() const { return _evictions.value(); }

    /** Hit fraction of all accesses so far. */
    double hitRate() const;

    StatGroup &stats() { return _stats; }

    /** Reset hit/miss/eviction counters (start of measurement). */
    void resetStats();

    /**
     * Share a residency filter with this cache; fills, evictions, and
     * invalidations add or subtract @p weight from then on, keeping
     * the filter exact. Must be attached while the cache is empty.
     */
    void
    attachResidency(LineResidency *residency, std::uint8_t weight)
    {
        _residency = residency;
        _residencyWeight = weight;
    }

    /**
     * Record a demand miss without scanning the set. Only valid when
     * the caller has proven the line absent (via the residency
     * filter): access() on an absent line touches nothing but the
     * miss counter.
     */
    void missFast() { ++_misses; }

  private:
    /**
     * The tag array is a structure of arrays: one packed 64-bit tag
     * word per way plus a parallel LRU timestamp array. Valid ways
     * carry stamps >= 1 from a strictly increasing clock and invalid
     * ways carry 0, so the set's first-minimum stamp is the victim:
     * the first invalid way, else the LRU way. Line addresses
     * are 64 B aligned, so the MESI state lives in the tag's low two
     * bits (the enum's values) and an Invalid way stores 0 — a set's
     * ways occupy one or two cache lines on the host, against three
     * for the old array-of-structs, and the lookup loop carries no
     * padding. The tag array is the hottest data in the simulator
     * (every modelled memory access probes one or more levels).
     */
    static constexpr std::uint64_t stateMask = 0x3;
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    static_assert(static_cast<unsigned>(MesiState::Invalid) == 0 &&
                      static_cast<unsigned>(MesiState::Modified) <= stateMask,
                  "MESI states must pack into the tag's low bits");
    static_assert(lineSize > stateMask,
                  "line alignment must leave room for the state bits");

    static std::uint64_t
    makeTag(Addr line_addr, MesiState state)
    {
        return line_addr | static_cast<std::uint64_t>(state);
    }

    static MesiState
    tagState(std::uint64_t tag)
    {
        return static_cast<MesiState>(tag & stateMask);
    }

    CacheConfig _config;
    std::uint32_t _numSets;
    bool _setsPow2 = true;
    std::vector<std::uint64_t> _tags;     // numSets x ways
    std::vector<std::uint64_t> _lastUsed; // numSets x ways
    std::uint64_t _useClock = 0;
    LineResidency *_residency = nullptr;
    std::uint8_t _residencyWeight = 0;

    Counter _hits;
    Counter _misses;
    Counter _evictions;
    StatGroup _stats;

    std::uint32_t
    setIndex(Addr line_addr) const
    {
        std::uint64_t line = line_addr / lineSize;
        // Power-of-two set counts index with a mask; others (e.g. the
        // 20-way L3 of Table 2) fall back to modulo.
        if (_setsPow2)
            return static_cast<std::uint32_t>(line & (_numSets - 1));
        return static_cast<std::uint32_t>(line % _numSets);
    }

    /** Index of the way holding @p line_addr, or npos when absent. */
    std::size_t
    findIdx(Addr line_addr) const
    {
        std::size_t base =
            static_cast<std::size_t>(setIndex(line_addr)) * _config.ways;
        for (std::uint32_t w = 0; w < _config.ways; ++w) {
            // One compare finds the address in any valid state: the
            // xor leaves exactly the packed state bits when the
            // address bits match, so a hit is a value in {1, 2, 3}.
            if ((_tags[base + w] ^ line_addr) - 1 < 3)
                return base + w;
        }
        return npos;
    }
};

} // namespace pageforge

#endif // PF_CACHE_CACHE_HH
