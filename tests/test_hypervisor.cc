/**
 * @file
 * Unit tests for the hypervisor: allocation, CoW, merging, madvise,
 * and duplication analysis, plus a content-integrity property under
 * random churn.
 */

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hyper/hypervisor.hh"
#include "sim/rng.hh"

namespace pageforge
{
namespace
{

class HypervisorTest : public ::testing::Test
{
  protected:
    HypervisorTest() : mem(256), hyper("hv", eq, mem)
    {
        vm0 = hyper.createVm("vm0", 16);
        vm1 = hyper.createVm("vm1", 16);
    }

    void
    fillPage(VmId vm, GuestPageNum gpn, std::uint8_t value)
    {
        std::uint8_t buf[pageSize];
        std::memset(buf, value, pageSize);
        hyper.writeToPage(vm, gpn, 0, buf, pageSize);
    }

    EventQueue eq;
    PhysicalMemory mem;
    Hypervisor hyper;
    VmId vm0 = 0;
    VmId vm1 = 0;
};

TEST_F(HypervisorTest, FirstTouchZeroFills)
{
    EXPECT_EQ(hyper.frameOf(vm0, 3), invalidFrame);
    FrameId frame = hyper.touchPage(vm0, 3);
    EXPECT_NE(frame, invalidFrame);
    EXPECT_TRUE(mem.isZeroFrame(frame));
    EXPECT_EQ(hyper.softFaults(), 1u);

    // Second touch is idempotent.
    EXPECT_EQ(hyper.touchPage(vm0, 3), frame);
    EXPECT_EQ(hyper.softFaults(), 1u);
}

TEST_F(HypervisorTest, WriteToPrivatePageInPlace)
{
    fillPage(vm0, 0, 0xaa);
    FrameId frame = hyper.frameOf(vm0, 0);

    std::uint8_t byte = 0xbb;
    WriteOutcome outcome = hyper.writeToPage(vm0, 0, 100, &byte, 1);
    EXPECT_FALSE(outcome.cowBroken);
    EXPECT_EQ(outcome.frame, frame);
    EXPECT_EQ(hyper.pageData(vm0, 0)[100], 0xbb);
}

TEST_F(HypervisorTest, MergePairSharesFrameAndProtects)
{
    fillPage(vm0, 0, 0x11);
    fillPage(vm1, 5, 0x11);

    ASSERT_EQ(hyper.mergePair(PageKey{vm0, 0}, PageKey{vm1, 5}),
              MergeOutcome::Merged);
    FrameId merged = hyper.frameOf(vm1, 5);
    EXPECT_EQ(hyper.frameOf(vm0, 0), merged);
    EXPECT_EQ(hyper.frameOf(vm1, 5), merged);
    EXPECT_EQ(mem.refCount(merged), 2u);
    EXPECT_TRUE(hyper.vm(vm0).page(0).cow);
    EXPECT_TRUE(hyper.vm(vm1).page(5).cow);
    EXPECT_EQ(hyper.merges(), 1u);
    EXPECT_EQ(mem.framesInUse(), 1u);
}

TEST_F(HypervisorTest, WriteToMergedPageBreaksCow)
{
    fillPage(vm0, 0, 0x22);
    fillPage(vm1, 0, 0x22);
    hyper.mergePair(PageKey{vm0, 0}, PageKey{vm1, 0});
    FrameId merged = hyper.frameOf(vm1, 0);

    std::uint8_t byte = 0x99;
    WriteOutcome outcome = hyper.writeToPage(vm0, 0, 0, &byte, 1);
    EXPECT_TRUE(outcome.cowBroken);
    EXPECT_NE(outcome.frame, merged);
    EXPECT_EQ(hyper.cowBreaks(), 1u);

    // The other mapping is untouched; the writer's copy diverges.
    EXPECT_EQ(hyper.frameOf(vm1, 0), merged);
    EXPECT_EQ(hyper.pageData(vm0, 0)[0], 0x99);
    EXPECT_EQ(hyper.pageData(vm1, 0)[0], 0x22);
    EXPECT_EQ(hyper.pageData(vm0, 0)[1], 0x22); // rest was copied
}

TEST_F(HypervisorTest, MergeIntoFrameRemapsCandidate)
{
    fillPage(vm0, 0, 0x33);
    fillPage(vm1, 1, 0x33);
    hyper.mergePair(PageKey{vm0, 0}, PageKey{vm1, 1});
    FrameId merged = hyper.frameOf(vm1, 1);

    fillPage(vm0, 7, 0x33);
    EXPECT_EQ(hyper.mergeIntoFrame(PageKey{vm0, 7}, merged),
              MergeOutcome::Merged);
    EXPECT_EQ(hyper.frameOf(vm0, 7), merged);
    EXPECT_EQ(mem.refCount(merged), 3u);

    // Merging a page already mapped there is a no-op.
    EXPECT_EQ(hyper.mergeIntoFrame(PageKey{vm0, 7}, merged),
              MergeOutcome::Gone);
    EXPECT_EQ(mem.refCount(merged), 3u);
}

TEST_F(HypervisorTest, MergeOfUnequalPagesDeclines)
{
    fillPage(vm0, 0, 0x44);
    fillPage(vm1, 0, 0x55);
    FrameId own = hyper.frameOf(vm0, 0);
    FrameId other = hyper.frameOf(vm1, 0);
    EXPECT_EQ(hyper.mergeIntoFrame(PageKey{vm0, 0}, other),
              MergeOutcome::Diverged);
    EXPECT_EQ(hyper.mergePair(PageKey{vm0, 0}, PageKey{vm1, 0}),
              MergeOutcome::Diverged);

    // Nothing was remapped or made copy-on-write.
    EXPECT_EQ(hyper.frameOf(vm0, 0), own);
    EXPECT_EQ(hyper.frameOf(vm1, 0), other);
    EXPECT_FALSE(hyper.vm(vm0).page(0).cow);
    EXPECT_FALSE(hyper.vm(vm1).page(0).cow);
    EXPECT_EQ(mem.refCount(other), 1u);
    EXPECT_EQ(hyper.merges(), 0u);
}

TEST_F(HypervisorTest, TryMergeDeclinesGracefully)
{
    fillPage(vm0, 0, 0x44);
    fillPage(vm1, 0, 0x55);
    FrameId other = hyper.frameOf(vm1, 0);
    EXPECT_EQ(hyper.mergeIntoFrame(PageKey{vm0, 0}, other),
              MergeOutcome::Diverged);

    // Once the contents agree the same call merges.
    fillPage(vm1, 0, 0x44);
    EXPECT_EQ(hyper.mergeIntoFrame(PageKey{vm0, 0},
                                   hyper.frameOf(vm1, 0)),
              MergeOutcome::Merged);
    EXPECT_EQ(hyper.frameOf(vm0, 0), hyper.frameOf(vm1, 0));
}

TEST_F(HypervisorTest, PoisonedTargetGainsNoSharer)
{
    fillPage(vm0, 0, 0x44);
    fillPage(vm1, 0, 0x44);
    fillPage(vm1, 1, 0x44);
    FrameId poisoned = hyper.frameOf(vm1, 0);
    mem.poisonFrame(poisoned);

    // Neither merge call shares the poisoned frame.
    EXPECT_EQ(hyper.mergeIntoFrame(PageKey{vm0, 0}, poisoned),
              MergeOutcome::Poisoned);
    EXPECT_EQ(hyper.mergePair(PageKey{vm0, 0}, PageKey{vm1, 0}),
              MergeOutcome::Poisoned);
    EXPECT_EQ(mem.refCount(poisoned), 1u);
    EXPECT_FALSE(hyper.vm(vm0).page(0).cow);
    EXPECT_FALSE(hyper.vm(vm1).page(0).cow);
    EXPECT_NE(hyper.frameOf(vm0, 0), poisoned);
    EXPECT_EQ(hyper.poisonedMergeRefusals(), 2u);
    EXPECT_EQ(hyper.merges(), 0u);

    // The poisoned page may still drain onto a healthy keeper.
    FrameId keeper = hyper.frameOf(vm1, 1);
    EXPECT_EQ(hyper.mergePair(PageKey{vm1, 0}, PageKey{vm1, 1}),
              MergeOutcome::Merged);
    EXPECT_EQ(hyper.frameOf(vm1, 0), keeper);
    EXPECT_EQ(mem.refCount(keeper), 2u);
    EXPECT_EQ(hyper.poisonedMergeRefusals(), 2u);
}

TEST_F(HypervisorTest, CloneDoesNotSharePoisonedFrames)
{
    fillPage(vm0, 0, 0x5a);
    fillPage(vm0, 1, 0x5b);
    FrameId poisoned = hyper.frameOf(vm0, 0);
    FrameId healthy = hyper.frameOf(vm0, 1);
    mem.poisonFrame(poisoned);

    VmId clone = hyper.cloneVm("clone", vm0);

    // The poisoned frame gains no sharer: the clone gets a private
    // copy of its content, as a CoW break would.
    EXPECT_EQ(mem.refCount(poisoned), 1u);
    FrameId copy = hyper.frameOf(clone, 0);
    EXPECT_NE(copy, poisoned);
    EXPECT_FALSE(mem.isPoisoned(copy));
    EXPECT_TRUE(mem.framesEqual(copy, poisoned));
    EXPECT_FALSE(hyper.vm(clone).page(0).cow);

    // Healthy frames are still shared copy-on-write.
    EXPECT_EQ(hyper.frameOf(clone, 1), healthy);
    EXPECT_EQ(mem.refCount(healthy), 2u);
    EXPECT_TRUE(hyper.vm(clone).page(1).cow);
    EXPECT_TRUE(hyper.vm(vm0).page(1).cow);
}

TEST_F(HypervisorTest, AuditFailsWhenAPoisonedFrameGainsASharer)
{
    fillPage(vm0, 0, 0x66);
    fillPage(vm1, 0, 0x66);
    FrameId poisoned = hyper.frameOf(vm0, 0);
    mem.poisonFrame(poisoned);
    EXPECT_TRUE(hyper.auditFrames().ok);

    // Share the poisoned frame the way a path that skips the
    // quarantine check would: refcounts stay consistent, so only the
    // poisoned-sharer rule can tell.
    PageState &page = hyper.vm(vm1).page(0);
    mem.decRef(page.frame);
    mem.addRef(poisoned);
    page.frame = poisoned;
    FrameAuditReport audit = hyper.auditFrames();
    EXPECT_FALSE(audit.ok);
    EXPECT_NE(audit.problem.find("gained a sharer"), std::string::npos)
        << audit.problem;
}

TEST_F(HypervisorTest, MadviseMarksRange)
{
    hyper.markMergeable(vm0, 2, 3);
    hyper.touchPage(vm0, 2);
    hyper.touchPage(vm0, 3);
    hyper.touchPage(vm0, 10); // mapped but not mergeable

    auto pages = hyper.mergeablePages();
    ASSERT_EQ(pages.size(), 2u);
    EXPECT_EQ(pages[0].gpn, 2u);
    EXPECT_EQ(pages[1].gpn, 3u);
}

TEST_F(HypervisorTest, DupAnalysisClassifiesPages)
{
    // Two identical non-zero pages, one unique, two zero pages.
    fillPage(vm0, 0, 0x66);
    fillPage(vm1, 0, 0x66);
    fillPage(vm0, 1, 0x77);
    hyper.touchPage(vm0, 2);
    hyper.touchPage(vm1, 2);

    DupAnalysis analysis = hyper.analyzeDuplication();
    EXPECT_EQ(analysis.mappedPages, 5u);
    EXPECT_EQ(analysis.mergeableNonZero, 2u);
    EXPECT_EQ(analysis.mergeableZero, 2u);
    EXPECT_EQ(analysis.unmergeable, 1u);
    EXPECT_EQ(analysis.framesUsed, 5u); // nothing merged yet
    EXPECT_EQ(analysis.framesIfFullyMerged, 3u);
}

TEST_F(HypervisorTest, DupAnalysisAfterMergingShowsSavings)
{
    fillPage(vm0, 0, 0x66);
    fillPage(vm1, 0, 0x66);
    hyper.mergePair(PageKey{vm0, 0}, PageKey{vm1, 0});

    DupAnalysis analysis = hyper.analyzeDuplication();
    EXPECT_EQ(analysis.mappedPages, 2u);
    EXPECT_EQ(analysis.framesUsed, 1u);
    EXPECT_DOUBLE_EQ(analysis.footprintRatio(), 0.5);
}

TEST_F(HypervisorTest, CowBreakOnLastSharerLeavesOneCopy)
{
    fillPage(vm0, 0, 0x88);
    fillPage(vm1, 0, 0x88);
    hyper.mergePair(PageKey{vm0, 0}, PageKey{vm1, 0});
    FrameId merged = hyper.frameOf(vm1, 0);

    std::uint8_t byte = 1;
    hyper.writeToPage(vm0, 0, 0, &byte, 1);
    hyper.writeToPage(vm1, 0, 0, &byte, 1);
    // Both broke away; the merged frame is free.
    EXPECT_FALSE(mem.isAllocated(merged));
    EXPECT_EQ(mem.framesInUse(), 2u);
}

/**
 * Property test: a random storm of writes, merges, CoW breaks,
 * reclaims and frame poisonings. After every step, each mapped page's
 * bytes must equal a shadow model of what its guest wrote (zeroes
 * since the last first touch, overlaid with every later write), and
 * an unmapped page's shadow must be all zero, as its next touch will
 * be. A CoW break that wrote a shared frame in place, a merge of
 * unequal pages, or a reclaim that leaked content would all diverge.
 */
TEST(HypervisorPropertyTest, MappedPagesMatchGuestWritesUnderChurn)
{
    EventQueue eq;
    PhysicalMemory mem(512);
    Hypervisor hyper("hv", eq, mem);
    constexpr unsigned numVms = 3;
    constexpr GuestPageNum pagesPerVm = 6;
    std::vector<VmId> vms;
    for (unsigned v = 0; v < numVms; ++v)
        vms.push_back(
            hyper.createVm("vm" + std::to_string(v), pagesPerVm));

    using Page = std::vector<std::uint8_t>;
    std::vector<std::vector<Page>> shadow(
        numVms, std::vector<Page>(pagesPerVm, Page(pageSize, 0)));
    const Page zero(pageSize, 0);

    Rng rng(2026);
    // A small content alphabet and frequent whole-page fills keep
    // pages colliding, so merges and CoW breaks of shared frames
    // actually happen; partial writes make them diverge again.
    auto fill_some = [&](VmId vm, GuestPageNum gpn) {
        std::uint8_t pattern = static_cast<std::uint8_t>(
            0x10 * (1 + rng.nextBounded(4)));
        bool whole = rng.nextBounded(2) == 0;
        std::uint32_t offset = whole ? 0
            : static_cast<std::uint32_t>(
                  rng.nextBounded(pageSize / lineSize)) * lineSize;
        std::uint32_t len = whole ? pageSize
            : static_cast<std::uint32_t>(
                  1 + rng.nextBounded(pageSize - offset));
        Page buf(len, pattern);
        hyper.writeToPage(vm, gpn, offset, buf.data(), len);
        std::memcpy(shadow[vm][gpn].data() + offset, buf.data(), len);
    };

    for (int step = 0; step < 2000; ++step) {
        VmId vm = vms[rng.nextBounded(numVms)];
        GuestPageNum gpn =
            static_cast<GuestPageNum>(rng.nextBounded(pagesPerVm));
        switch (rng.nextBounded(10)) {
          case 0: { // reclaim (unmaps; later touch remaps zeroed)
            hyper.reclaimPage(vm, gpn);
            shadow[vm][gpn] = zero;
            break;
          }
          case 1: { // try to merge two pages the guests made equal
            VmId vm2 = vms[rng.nextBounded(numVms)];
            GuestPageNum gpn2 =
                static_cast<GuestPageNum>(rng.nextBounded(pagesPerVm));
            FrameId fa = hyper.frameOf(vm, gpn);
            FrameId fb = hyper.frameOf(vm2, gpn2);
            if (fa != invalidFrame && fb != invalidFrame && fa != fb &&
                shadow[vm][gpn] == shadow[vm2][gpn2]) {
                std::uint32_t refs = mem.refCount(fb);
                if (refs > 1 || hyper.vm(vm2).page(gpn2).cow) {
                    hyper.mergeIntoFrame(PageKey{vm, gpn}, fb);
                } else if (mem.refCount(fa) == 1 &&
                           !hyper.vm(vm).page(gpn).cow) {
                    hyper.mergePair(PageKey{vm, gpn},
                                    PageKey{vm2, gpn2});
                }
                // A poisoned target never gains a sharer.
                if (mem.isPoisoned(fb)) {
                    ASSERT_LE(mem.refCount(fb), refs) << "step " << step;
                }
            }
            break;
          }
          case 2: { // poison a mapped frame (drains via CoW writes)
            FrameId f = hyper.frameOf(vm, gpn);
            if (f != invalidFrame)
                mem.poisonFrame(f);
            break;
          }
          default: // mostly writes: first touches and CoW breaks
            fill_some(vm, gpn);
            break;
        }

        for (VmId v : vms) {
            for (GuestPageNum p = 0; p < pagesPerVm; ++p) {
                FrameId f = hyper.frameOf(v, p);
                const Page &want = shadow[v][p];
                if (f == invalidFrame) {
                    ASSERT_EQ(want, zero)
                        << "step " << step << " vm " << v << " gpn " << p;
                    continue;
                }
                ASSERT_EQ(std::memcmp(mem.data(f), want.data(), pageSize),
                          0)
                    << "step " << step << " vm " << v << " gpn " << p;
            }
        }
    }
    EXPECT_GT(hyper.merges(), 0u);
    EXPECT_GT(hyper.cowBreaks(), 0u);
    EXPECT_GT(mem.poisonedFrames(), 0u);
    EXPECT_GT(hyper.poisonedMergeRefusals(), 0u);
}

} // namespace
} // namespace pageforge
