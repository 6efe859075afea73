/**
 * @file
 * Unit tests for frame-backed physical memory.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "mem/phys_memory.hh"

namespace pageforge
{
namespace
{

TEST(PhysicalMemory, AllocZeroesByDefault)
{
    PhysicalMemory mem(16);
    FrameId frame = mem.allocFrame();
    EXPECT_TRUE(mem.isAllocated(frame));
    EXPECT_TRUE(mem.isZeroFrame(frame));
    EXPECT_EQ(mem.refCount(frame), 1u);
    EXPECT_EQ(mem.framesInUse(), 1u);
}

TEST(PhysicalMemory, RefcountLifecycle)
{
    PhysicalMemory mem(16);
    FrameId frame = mem.allocFrame();
    mem.addRef(frame);
    EXPECT_EQ(mem.refCount(frame), 2u);
    EXPECT_FALSE(mem.decRef(frame));
    EXPECT_TRUE(mem.decRef(frame));
    EXPECT_FALSE(mem.isAllocated(frame));
    EXPECT_EQ(mem.framesInUse(), 0u);
}

TEST(PhysicalMemory, FreedFramesAreReused)
{
    PhysicalMemory mem(4);
    std::vector<FrameId> frames;
    for (int i = 0; i < 4; ++i)
        frames.push_back(mem.allocFrame());
    mem.decRef(frames[2]);
    FrameId reused = mem.allocFrame();
    EXPECT_EQ(reused, frames[2]);
}

TEST(PhysicalMemory, ExhaustionIsFatal)
{
    PhysicalMemory mem(2);
    mem.allocFrame();
    mem.allocFrame();
    EXPECT_DEATH(mem.allocFrame(), "exhausted");
}

TEST(PhysicalMemory, DataPersistsAndCompares)
{
    PhysicalMemory mem(8);
    FrameId a = mem.allocFrame();
    FrameId b = mem.allocFrame();

    std::memset(mem.data(a), 0x5a, pageSize);
    std::memset(mem.data(b), 0x5a, pageSize);
    EXPECT_TRUE(mem.framesEqual(a, b));
    EXPECT_FALSE(mem.isZeroFrame(a));

    mem.data(b)[pageSize - 1] = 0;
    EXPECT_FALSE(mem.framesEqual(a, b));
}

TEST(PhysicalMemory, ReallocatedFrameIsZeroedAgain)
{
    PhysicalMemory mem(2);
    FrameId frame = mem.allocFrame();
    std::memset(mem.data(frame), 0xff, pageSize);
    mem.decRef(frame);

    FrameId again = mem.allocFrame(true);
    EXPECT_EQ(again, frame);
    EXPECT_TRUE(mem.isZeroFrame(again));
}

TEST(PhysicalMemory, NonZeroedAllocSkipsMemset)
{
    PhysicalMemory mem(2);
    FrameId frame = mem.allocFrame();
    std::memset(mem.data(frame), 0xff, pageSize);
    mem.decRef(frame);

    // alloc(false) models a frame about to be fully overwritten (CoW
    // copies); contents are unspecified but the frame must be usable.
    FrameId again = mem.allocFrame(false);
    EXPECT_TRUE(mem.isAllocated(again));
}

TEST(PhysicalMemory, PeakTracksHighWater)
{
    PhysicalMemory mem(8);
    FrameId a = mem.allocFrame();
    FrameId b = mem.allocFrame();
    mem.decRef(a);
    mem.decRef(b);
    EXPECT_EQ(mem.peakFramesInUse(), 2u);
    EXPECT_EQ(mem.framesInUse(), 0u);
}

TEST(PhysicalMemory, ZeroLengthWriteBumpsGeneration)
{
    // The write generation keys the daemons' hash-skip cache: any
    // noteWrite, even an empty one, must invalidate cached samples.
    PhysicalMemory mem(8);
    FrameId f = mem.allocFrame(true);
    std::uint64_t gen = mem.writeGen(f);
    mem.noteWrite(f, 100, 0);
    EXPECT_GT(mem.writeGen(f), gen);
}

TEST(PhysicalMemory, ReallocationBumpsGeneration)
{
    // A generation sampled before a frame is freed must never
    // validate against the recycled frame's new content.
    PhysicalMemory mem(8);
    FrameId f = mem.allocFrame(true);
    std::uint64_t gen = mem.writeGen(f);
    mem.decRef(f);
    EXPECT_EQ(mem.writeGen(f), gen); // freed frames keep their gen
    FrameId g = mem.allocFrame(false);
    ASSERT_EQ(g, f); // LIFO free list hands the same id back
    EXPECT_GT(mem.writeGen(g), gen);
}

TEST(PhysicalMemory, AccessToFreeFramePanics)
{
    PhysicalMemory mem(2);
    FrameId frame = mem.allocFrame();
    mem.decRef(frame);
    EXPECT_DEATH(mem.data(frame), "free frame");
}

} // namespace
} // namespace pageforge
