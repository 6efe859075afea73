/**
 * @file
 * Physical-address and content-key homing across memory controllers.
 *
 * The paper places one PageForge module in one memory controller and
 * leaves scale-out open. With N controllers the machine interleaves
 * physical frames across channels (frame % N, the classic
 * channel-interleave), so each MC's module scans only locally-homed
 * frames. Content trees are sharded separately, by the page's leading
 * bytes: each shard owns a disjoint, contiguous key-prefix range of
 * the lexicographic page order the trees already use, so any two
 * byte-identical pages map to the same shard and every duplicate set
 * is discovered inside exactly one tree.
 */

#ifndef PF_SHARD_SHARD_MAP_HH
#define PF_SHARD_SHARD_MAP_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace pageforge
{

/**
 * Homing functions shared by every sharded component. A 1-MC machine
 * has a one-shard map: every frame and every prefix homes on shard 0.
 *
 * The static maps (homeOf / contentShardOf) never change: physical
 * channel interleave and content-prefix ranges are properties of the
 * machine. Failover adds a dynamic *ownership* overlay on top: when a
 * shard is quarantined, its scan and content duties are re-homed to
 * the next healthy shard in ring order until re-admission. Fault-free
 * runs never call quarantine(), the overlay stays identity, and every
 * lookup resolves exactly as before the overlay existed.
 */
class ShardMap
{
  public:
    /** @param num_shards number of memory controllers (>= 1) */
    explicit ShardMap(unsigned num_shards);

    unsigned numShards() const { return _numShards; }

    /** MC that owns a physical frame (channel interleave). */
    unsigned
    homeOf(FrameId frame) const
    {
        return static_cast<unsigned>(frame % _numShards);
    }

    /** MC that owns a byte address, via its containing frame. */
    unsigned
    homeOfAddr(Addr addr) const
    {
        return homeOf(addrToFrame(addr));
    }

    /**
     * Content shard of a page, from its first two bytes read as a
     * big-endian 16-bit prefix. The trees order pages by lexicographic
     * byte order, so a contiguous prefix range is a contiguous key
     * range: shard i owns prefixes [i*65536/N, (i+1)*65536/N).
     */
    unsigned
    contentShardOf(const std::uint8_t *page) const
    {
        return contentShardOfPrefix(
            (static_cast<std::uint32_t>(page[0]) << 8) | page[1]);
    }

    /** Content shard owning a raw 16-bit big-endian prefix. */
    unsigned
    contentShardOfPrefix(std::uint32_t prefix) const
    {
        return static_cast<unsigned>(
            (prefix * static_cast<std::uint64_t>(_numShards)) >> 16);
    }

    /**
     * Half-open [lo, hi) range of 16-bit prefixes owned by a content
     * shard. Ranges of distinct shards are disjoint and cover
     * [0, 65536) exactly.
     */
    std::pair<std::uint32_t, std::uint32_t>
    prefixRange(unsigned shard) const;

    /**
     * Shard currently serving @p shard's duties: itself while healthy,
     * the takeover shard while quarantined. Every lookup that routes
     * *work* (scan-pass partitioning, candidate serving) goes through
     * this; lookups that model *hardware* (which channel a frame's
     * DRAM lives on) use the static maps directly.
     */
    unsigned
    ownerOf(unsigned shard) const
    {
        return _owner.empty() ? shard : _owner[shard];
    }

    /** Pipeline that scans a frame: owner of its physical home. */
    unsigned
    scanOwnerOf(FrameId frame) const
    {
        return ownerOf(homeOf(frame));
    }

    /** Is this shard currently quarantined (duties re-homed)? */
    bool
    quarantined(unsigned shard) const
    {
        return !_quarantined.empty() && _quarantined[shard];
    }

    /** Any shard currently quarantined? */
    bool anyQuarantined() const;

    /**
     * Re-home @p shard's duties to the next non-quarantined shard in
     * ring order and return that takeover shard. At least one other
     * shard must be healthy. Counts the shard's prefix range into the
     * cumulative rehomedPrefixes() total.
     */
    unsigned quarantine(unsigned shard);

    /** Restore a recovered shard's ownership of its own ranges. */
    void readmit(unsigned shard);

    /**
     * Cumulative count of 16-bit content prefixes re-homed by
     * quarantine() over the run (not decremented on re-admission):
     * the headline "how much of the key space failed over" figure.
     */
    std::uint64_t rehomedPrefixes() const { return _rehomedPrefixes; }

  private:
    /** Recompute the overlay from the quarantined set. */
    void rebuildOwners();

    unsigned _numShards;
    std::vector<unsigned> _owner;    //!< empty = identity (no failover yet)
    std::vector<bool> _quarantined;  //!< empty = all healthy
    std::uint64_t _rehomedPrefixes = 0;
};

} // namespace pageforge

#endif // PF_SHARD_SHARD_MAP_HH
