/**
 * @file
 * Unit tests for the ksmd placement policies.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "cpu/scheduler.hh"

namespace pageforge
{
namespace
{

TEST(KsmScheduler, RoundRobinRotates)
{
    EventQueue eq;
    KsmScheduler sched("s", eq, 4, KsmPlacement::RoundRobin, 0.0,
                       Rng(1));
    EXPECT_EQ(sched.pickCore(), 0);
    EXPECT_EQ(sched.pickCore(), 1);
    EXPECT_EQ(sched.pickCore(), 2);
    EXPECT_EQ(sched.pickCore(), 3);
    EXPECT_EQ(sched.pickCore(), 0);
}

TEST(KsmScheduler, PinnedStaysOnLastCore)
{
    EventQueue eq;
    KsmScheduler sched("s", eq, 4, KsmPlacement::Pinned, 0.0, Rng(1));
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(sched.pickCore(), 3);
}

TEST(KsmScheduler, RandomCoversAllCores)
{
    EventQueue eq;
    KsmScheduler sched("s", eq, 4, KsmPlacement::Random, 0.0, Rng(2));
    for (int i = 0; i < 200; ++i)
        sched.pickCore();
    for (auto count : sched.placements())
        EXPECT_GT(count, 20u);
}

TEST(KsmScheduler, StickyMigratesButSkews)
{
    EventQueue eq;
    KsmScheduler sched("s", eq, 10, KsmPlacement::Sticky, 0.85, Rng(3));

    CoreId prev = sched.pickCore();
    unsigned stays = 0;
    constexpr unsigned picks = 2000;
    for (unsigned i = 0; i < picks; ++i) {
        CoreId cur = sched.pickCore();
        if (cur == prev)
            ++stays;
        prev = cur;
    }
    // Roughly stickiness plus 1/numCores chance of random staying put.
    EXPECT_GT(stays, picks * 0.75);
    EXPECT_LT(stays, picks * 0.95);

    // Every core still gets used eventually.
    unsigned used = 0;
    for (auto count : sched.placements()) {
        if (count > 0)
            ++used;
    }
    EXPECT_GE(used, 8u);
}

TEST(KsmScheduler, FullStickinessNeverMoves)
{
    EventQueue eq;
    KsmScheduler sched("s", eq, 4, KsmPlacement::Sticky, 1.0, Rng(5));
    CoreId first = sched.pickCore();
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(sched.pickCore(), first);
}

TEST(KsmScheduler, StickyProducesSkewedShares)
{
    // The Table 4 phenomenon: over a finite window the busiest core
    // gets a much larger share than the average.
    EventQueue eq;
    KsmScheduler sched("s", eq, 10, KsmPlacement::Sticky, 0.85, Rng(4));
    for (int i = 0; i < 300; ++i)
        sched.pickCore();

    auto placements = sched.placements();
    std::uint64_t max_count =
        *std::max_element(placements.begin(), placements.end());
    EXPECT_GT(static_cast<double>(max_count), 300.0 / 10 * 1.5);
}

} // namespace
} // namespace pageforge
