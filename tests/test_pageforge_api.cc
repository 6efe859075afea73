/**
 * @file
 * Tests for the five-function OS interface (Table 1) and its
 * interaction with fault injection on the read path.
 */

#include "sim_fixture.hh"

#include "core/pageforge_api.hh"
#include "core/pageforge_driver.hh"
#include "ecc/ecc_hash_key.hh"

namespace pageforge
{
namespace
{

class PageForgeApiTest : public SmallMachine
{
  protected:
    PageForgeApiTest()
        : module("pf", eq, mc, hier, PageForgeConfig{}), api(module)
    {
        api.setSynchronous(true);
    }

    FrameId
    frameWithSeed(std::uint64_t seed)
    {
        FrameId frame = mem.allocFrame();
        Rng rng(seed);
        for (std::uint32_t i = 0; i < pageSize; ++i)
            mem.data(frame)[i] = static_cast<std::uint8_t>(rng.next());
        return frame;
    }

    PageForgeModule module;
    PageForgeApi api;
};

TEST_F(PageForgeApiTest, CallsAreCounted)
{
    FrameId a = frameWithSeed(1);
    FrameId b = frameWithSeed(2);

    std::uint64_t before = api.calls();
    api.insertPpn(0, b, scanIndexNone, scanIndexNone);
    api.insertPfe(a, true, 0);
    api.updateEccOffset(EccOffsets::defaults());
    EXPECT_EQ(api.calls(), before + 3);
    // get_PFE_info is a read of status registers, not a counted
    // command write.
    api.getPfeInfo();
    EXPECT_EQ(api.calls(), before + 3);
}

TEST_F(PageForgeApiTest, NewCandidateResetsHashAccumulator)
{
    FrameId a = frameWithSeed(3);
    FrameId b = frameWithSeed(4);

    api.insertPfe(a, true, scanIndexNone);
    module.processNow();
    std::uint32_t key_a = api.getPfeInfo().hash;
    ASSERT_EQ(key_a, eccPageHash(mem.data(a),
                                 module.config().eccOffsets));

    // Loading candidate B must not reuse A's minikeys.
    api.insertPfe(b, true, scanIndexNone);
    module.processNow();
    std::uint32_t key_b = api.getPfeInfo().hash;
    EXPECT_EQ(key_b, eccPageHash(mem.data(b),
                                 module.config().eccOffsets));
    EXPECT_NE(key_a, key_b);
}

TEST_F(PageForgeApiTest, UpdatePfeKeepsCandidateAndHashProgress)
{
    // Candidate compared against one page per batch; the hash
    // accumulates across refills of the same candidate.
    FrameId cand = frameWithSeed(5);
    FrameId other1 = frameWithSeed(6);
    FrameId other2 = frameWithSeed(7);

    api.insertPpn(0, other1, makeContinueToken(0, false),
                  makeContinueToken(0, true));
    api.insertPfe(cand, false, 0);
    module.processNow();
    ASSERT_TRUE(api.getPfeInfo().scanned);

    api.insertPpn(0, other2, makeAbsentToken(0, false),
                  makeAbsentToken(0, true));
    api.updatePfe(true, 0); // last refill: hash must complete
    module.processNow();

    PfeInfo info = api.getPfeInfo();
    EXPECT_TRUE(info.scanned);
    ASSERT_TRUE(info.hashReady);
    EXPECT_EQ(info.hash, eccPageHash(mem.data(cand),
                                     module.config().eccOffsets));
}

TEST_F(PageForgeApiTest, SynchronousModeSuppressesTrigger)
{
    FrameId a = frameWithSeed(8);
    api.insertPfe(a, true, scanIndexNone);
    EXPECT_FALSE(module.busy()); // no self-trigger in sync mode
    module.processNow();
    EXPECT_TRUE(api.getPfeInfo().scanned);
}

TEST_F(PageForgeApiTest, EccFaultOnScannedLineIsCorrectedInFlight)
{
    // Inject a single-bit DRAM fault on a line PageForge will fetch:
    // the ECC engine corrects it on the read path and the comparison
    // still recognizes the duplicate.
    FrameId cand = frameWithSeed(9);
    FrameId twin = frameWithSeed(9);

    mc.injectBitFlip(lineAddr(twin, 0), 77);

    api.insertPpn(0, twin, scanIndexNone, scanIndexNone);
    api.insertPfe(cand, true, 0);
    module.processNow();

    PfeInfo info = api.getPfeInfo();
    EXPECT_TRUE(info.duplicate);
    EXPECT_EQ(mc.correctedErrors(), 1u);
}

class DriverFaultTest : public SmallMachine
{
  protected:
    DriverFaultTest()
        : module("pf", eq, mc, hier, PageForgeConfig{}), api(module)
    {
    }

    PageForgeModule module;
    PageForgeApi api;
};

TEST_F(DriverFaultTest, ScanningSurvivesScatteredEccFaults)
{
    VmId vm0 = makeVm(6);
    VmId vm1 = makeVm(6);
    for (GuestPageNum g = 0; g < 6; ++g) {
        fillSeeded(vm0, g, 40 + g);
        fillSeeded(vm1, g, 40 + g);
    }

    // Sprinkle single-bit faults over the pages the hardware will
    // stream; every one must be corrected transparently.
    for (GuestPageNum g = 0; g < 6; ++g) {
        FrameId frame = hyper.frameOf(vm0, g);
        mc.injectBitFlip(lineAddr(frame, 0), 5 + g);
    }

    PageForgeDriver driver("pfd", eq, hyper, {&api}, shards, router,
                           corePtrs(), PageForgeDriverConfig{});
    driver.runOnePassNow();
    driver.runOnePassNow();

    for (GuestPageNum g = 0; g < 6; ++g)
        EXPECT_EQ(hyper.frameOf(vm0, g), hyper.frameOf(vm1, g));
    EXPECT_EQ(mc.uncorrectableErrors(), 0u);
}

} // namespace
} // namespace pageforge
