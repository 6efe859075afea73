/**
 * @file
 * Unit tests for the set-associative MESI tag array.
 */

#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "sim/rng.hh"

namespace pageforge
{
namespace
{

CacheConfig
tinyConfig(std::uint32_t size = 4096, std::uint32_t ways = 2)
{
    return CacheConfig{"test", size, ways, 2, 4};
}

TEST(Cache, MissThenHit)
{
    Cache cache(tinyConfig());
    Addr addr = 0x1000;
    EXPECT_EQ(cache.access(addr), MesiState::Invalid);
    cache.insert(addr, MesiState::Exclusive);
    EXPECT_EQ(cache.access(addr), MesiState::Exclusive);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, LruEvictionOrder)
{
    // 2 ways; three lines mapping to the same set evict the LRU one.
    CacheConfig cfg = tinyConfig(4096, 2);
    Cache cache(cfg);
    std::uint32_t sets = cfg.numSets();
    Addr set_stride = static_cast<Addr>(sets) * lineSize;

    Addr a = 0;
    Addr b = set_stride;
    Addr c = 2 * set_stride;

    cache.insert(a, MesiState::Shared);
    cache.insert(b, MesiState::Shared);
    cache.access(a); // make b the LRU

    Victim victim = cache.insert(c, MesiState::Shared);
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.addr, b);
    EXPECT_TRUE(cache.contains(a));
    EXPECT_FALSE(cache.contains(b));
}

TEST(Cache, DirtyVictimReported)
{
    CacheConfig cfg = tinyConfig(4096, 1);
    Cache cache(cfg);
    Addr set_stride = static_cast<Addr>(cfg.numSets()) * lineSize;

    cache.insert(0, MesiState::Modified);
    Victim victim = cache.insert(set_stride, MesiState::Shared);
    ASSERT_TRUE(victim.valid);
    EXPECT_TRUE(victim.dirty);
    EXPECT_EQ(victim.addr, 0u);
}

TEST(Cache, InsertOfResidentLineUpdatesState)
{
    Cache cache(tinyConfig());
    cache.insert(0x40, MesiState::Shared);
    Victim victim = cache.insert(0x40, MesiState::Modified);
    EXPECT_FALSE(victim.valid);
    EXPECT_EQ(cache.probe(0x40), MesiState::Modified);
    EXPECT_EQ(cache.residentLines(), 1u);
}

TEST(Cache, InvalidateReportsDirtiness)
{
    Cache cache(tinyConfig());
    cache.insert(0x80, MesiState::Modified);
    EXPECT_TRUE(cache.invalidate(0x80));
    EXPECT_FALSE(cache.contains(0x80));
    EXPECT_FALSE(cache.invalidate(0x80)); // absent line: no-op
}

TEST(Cache, ProbeDoesNotTouchLruOrStats)
{
    CacheConfig cfg = tinyConfig(4096, 2);
    Cache cache(cfg);
    Addr set_stride = static_cast<Addr>(cfg.numSets()) * lineSize;

    cache.insert(0, MesiState::Shared);
    cache.insert(set_stride, MesiState::Shared);
    std::uint64_t hits_before = cache.hits();

    // Probing line 0 must not promote it in LRU.
    cache.probe(0);
    EXPECT_EQ(cache.hits(), hits_before);
    Victim victim = cache.insert(2 * set_stride, MesiState::Shared);
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.addr, 0u); // line 0 was still the LRU
}

TEST(Cache, SetStateRequiresResidentLine)
{
    Cache cache(tinyConfig());
    EXPECT_DEATH(cache.setState(0x40, MesiState::Shared), "absent");
}

TEST(Cache, NonPowerOfTwoSetCountWorks)
{
    // 20 ways like the paper's L3: sets = size / (64*20) is not a
    // power of two; indexing must still spread lines across all sets.
    CacheConfig cfg{"l3ish", 20 * 64 * 100, 20, 20, 4};
    Cache cache(cfg);
    ASSERT_EQ(cfg.numSets(), 100u);

    for (Addr line = 0; line < 200; ++line)
        cache.insert(line * lineSize, MesiState::Shared);
    EXPECT_EQ(cache.residentLines(), 200u);
}

TEST(Cache, HitRateComputation)
{
    Cache cache(tinyConfig());
    cache.access(0);          // miss
    cache.insert(0, MesiState::Shared);
    cache.access(0);          // hit
    cache.access(0);          // hit
    EXPECT_NEAR(cache.hitRate(), 2.0 / 3.0, 1e-12);

    cache.resetStats();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
}

/**
 * Reference tag array with the victim rule written the long way: the
 * first invalid way, else the valid way with the oldest use. An
 * invalidated way keeps its old use stamp here, so the rule cannot
 * lean on the stamps of invalid ways.
 */
class RefCache
{
  public:
    RefCache(std::uint32_t sets, std::uint32_t ways)
        : _sets(sets), _ways(ways), _way(sets * ways)
    {
    }

    MesiState
    access(Addr line)
    {
        Way *w = find(line);
        if (!w)
            return MesiState::Invalid;
        w->used = ++_clock;
        return w->state;
    }

    void
    invalidate(Addr line)
    {
        if (Way *w = find(line))
            w->state = MesiState::Invalid;
    }

    Victim
    fill(Addr line, MesiState state)
    {
        Way *set = &_way[setOf(line) * _ways];
        Way *pick = nullptr;
        for (std::uint32_t i = 0; i < _ways && !pick; ++i) {
            if (set[i].state == MesiState::Invalid)
                pick = &set[i];
        }
        if (!pick) {
            pick = &set[0];
            for (std::uint32_t i = 1; i < _ways; ++i) {
                if (set[i].used < pick->used)
                    pick = &set[i];
            }
        }
        Victim victim;
        if (pick->state != MesiState::Invalid) {
            victim.valid = true;
            victim.addr = pick->addr;
            victim.dirty = pick->state == MesiState::Modified;
        }
        *pick = {line, state, ++_clock};
        return victim;
    }

  private:
    struct Way
    {
        Addr addr = 0;
        MesiState state = MesiState::Invalid;
        std::uint64_t used = 0;
    };

    std::uint32_t setOf(Addr line) const { return (line / lineSize) % _sets; }

    Way *
    find(Addr line)
    {
        Way *set = &_way[setOf(line) * _ways];
        for (std::uint32_t i = 0; i < _ways; ++i) {
            if (set[i].state != MesiState::Invalid && set[i].addr == line)
                return &set[i];
        }
        return nullptr;
    }

    std::uint32_t _sets;
    std::uint32_t _ways;
    std::vector<Way> _way;
    std::uint64_t _clock = 0;
};

TEST(Cache, FillAbsentMatchesInsertUnderRandomOps)
{
    // Two caches driven in lockstep by one random op sequence; one
    // fills with insert(), the other with fillAbsent(). Both must
    // choose the reference rule's victims and hold the same lines at
    // every step.
    CacheConfig cfg = tinyConfig(4 * 4 * lineSize, 4); // 4 sets x 4 ways
    Cache by_insert(cfg);
    Cache by_fill(cfg);
    RefCache ref(cfg.numSets(), cfg.ways);
    std::vector<Addr> lines;
    for (Addr i = 0; i < 40; ++i)
        lines.push_back(i * lineSize);

    Rng rng(2024);
    for (int step = 0; step < 20000; ++step) {
        Addr line = lines[rng.nextBounded(lines.size())];
        switch (rng.nextBounded(4)) {
          case 0: {
            MesiState expect = ref.access(line);
            ASSERT_EQ(by_insert.access(line), expect) << "step " << step;
            ASSERT_EQ(by_fill.access(line), expect) << "step " << step;
            break;
          }
          case 1:
            ref.invalidate(line);
            ASSERT_EQ(by_insert.invalidate(line), by_fill.invalidate(line));
            break;
          case 2:
            if (by_insert.contains(line)) {
                ref.invalidate(line);
                by_insert.setState(line, MesiState::Invalid);
                by_fill.setState(line, MesiState::Invalid);
            }
            break;
          default:
            if (!by_insert.contains(line)) {
                MesiState state = rng.nextBounded(2) ? MesiState::Modified
                                                     : MesiState::Shared;
                Victim expect = ref.fill(line, state);
                for (Victim got : {by_insert.insert(line, state),
                                   by_fill.fillAbsent(line, state)}) {
                    ASSERT_EQ(got.valid, expect.valid) << "step " << step;
                    ASSERT_EQ(got.addr, expect.addr) << "step " << step;
                    ASSERT_EQ(got.dirty, expect.dirty) << "step " << step;
                }
            }
            break;
        }
        ASSERT_EQ(by_insert.residentLines(), by_fill.residentLines())
            << "step " << step;
        for (Addr l : lines)
            ASSERT_EQ(by_insert.probe(l), by_fill.probe(l)) << "step " << step;
    }
    EXPECT_EQ(by_insert.evictions(), by_fill.evictions());
    EXPECT_GT(by_fill.evictions(), 0u);
}

TEST(Cache, FillTakesTheInvalidatedWayOfAFullSet)
{
    // One set of four ways. Whichever way k is invalidated — even the
    // most recently used one — the next fill lands there and evicts
    // nothing.
    CacheConfig cfg = tinyConfig(4 * lineSize, 4);
    for (bool via_set_state : {false, true}) {
        for (bool absent_fill : {false, true}) {
            for (Addr k = 0; k < 4; ++k) {
                Cache cache(cfg);
                for (Addr w = 0; w < 4; ++w)
                    cache.insert(w * lineSize, MesiState::Exclusive);
                cache.access(k * lineSize); // way k is now the MRU
                if (via_set_state)
                    cache.setState(k * lineSize, MesiState::Invalid);
                else
                    cache.invalidate(k * lineSize);

                Addr fresh = 10 * lineSize;
                Victim victim = absent_fill
                    ? cache.fillAbsent(fresh, MesiState::Shared)
                    : cache.insert(fresh, MesiState::Shared);
                EXPECT_FALSE(victim.valid) << "k=" << k;
                EXPECT_EQ(cache.residentLines(), 4u);
                for (Addr w = 0; w < 4; ++w) {
                    if (w != k) {
                        EXPECT_TRUE(cache.contains(w * lineSize));
                    }
                }
                EXPECT_EQ(cache.probe(fresh), MesiState::Shared);
            }
        }
    }
}

TEST(Cache, MesiNames)
{
    EXPECT_STREQ(mesiName(MesiState::Invalid), "I");
    EXPECT_STREQ(mesiName(MesiState::Modified), "M");
}

} // namespace
} // namespace pageforge
