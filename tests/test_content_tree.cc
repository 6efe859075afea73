/**
 * @file
 * Unit and property tests for the content-indexed red-black tree.
 */

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "ksm/accessors.hh"
#include "ksm/content_tree.hh"
#include "sim/rng.hh"

namespace pageforge
{
namespace
{

/**
 * Test accessor over an owned pool of pages; counts the handles the
 * tree retains and releases.
 */
class PoolAccessor : public PageAccessor
{
  public:
    PageHandle
    addPage(std::uint64_t seed)
    {
        auto page = std::make_unique<std::uint8_t[]>(pageSize);
        Rng rng(seed);
        for (std::uint32_t i = 0; i < pageSize; ++i)
            page[i] = static_cast<std::uint8_t>(rng.next());
        _pages.push_back(std::move(page));
        return _pages.size() - 1;
    }

    PageHandle
    addBytes(std::uint8_t value)
    {
        auto page = std::make_unique<std::uint8_t[]>(pageSize);
        std::memset(page.get(), value, pageSize);
        _pages.push_back(std::move(page));
        return _pages.size() - 1;
    }

    void invalidate(PageHandle handle) { _stale.push_back(handle); }

    const std::uint8_t *
    resolve(PageHandle handle) override
    {
        if (std::find(_stale.begin(), _stale.end(), handle) !=
            _stale.end()) {
            return nullptr;
        }
        return _pages[handle].get();
    }

    void retain(PageHandle handle) override { retained.push_back(handle); }
    void release(PageHandle handle) override { released.push_back(handle); }

    std::vector<PageHandle> retained;
    std::vector<PageHandle> released;

  private:
    std::vector<std::unique_ptr<std::uint8_t[]>> _pages;
    std::vector<PageHandle> _stale;
};

TEST(ComparePages, EqualPages)
{
    std::uint8_t a[pageSize] = {};
    std::uint8_t b[pageSize] = {};
    PageCompare cmp = comparePages(a, b);
    EXPECT_EQ(cmp.sign, 0);
    EXPECT_EQ(cmp.bytesExamined, pageSize);
    EXPECT_EQ(cmp.linesExamined(), linesPerPage);
}

TEST(ComparePages, DivergenceInFirstLine)
{
    std::uint8_t a[pageSize] = {};
    std::uint8_t b[pageSize] = {};
    b[10] = 1;
    PageCompare cmp = comparePages(a, b);
    EXPECT_LT(cmp.sign, 0);
    EXPECT_EQ(cmp.bytesExamined, 11u);
    EXPECT_EQ(cmp.linesExamined(), 1u);

    PageCompare rev = comparePages(b, a);
    EXPECT_GT(rev.sign, 0);
}

TEST(ComparePages, DivergenceDeepInPage)
{
    std::uint8_t a[pageSize] = {};
    std::uint8_t b[pageSize] = {};
    b[3000] = 5;
    PageCompare cmp = comparePages(a, b);
    EXPECT_EQ(cmp.bytesExamined, 3001u);
    EXPECT_EQ(cmp.linesExamined(), (3001 + lineSize - 1) / lineSize);
}

TEST(ComparePages, MatchesMemcmpOracleOnRandomPages)
{
    // comparePages must agree with memcmp in sign, and report the
    // 1-based position of the first differing byte. Random pages plus
    // targeted single-byte flips cover first/last bytes and word-width
    // boundaries the vectorized implementation could get wrong.
    Rng rng(99);
    std::array<std::uint8_t, pageSize> a{};
    std::array<std::uint8_t, pageSize> b{};

    auto check = [&](std::uint32_t expect_examined) {
        int mem = std::memcmp(a.data(), b.data(), pageSize);
        PageCompare cmp = comparePages(a.data(), b.data());
        EXPECT_EQ(cmp.sign < 0, mem < 0);
        EXPECT_EQ(cmp.sign > 0, mem > 0);
        EXPECT_EQ(cmp.sign == 0, mem == 0);
        EXPECT_EQ(cmp.bytesExamined, expect_examined);
    };

    for (int trial = 0; trial < 20; ++trial) {
        for (std::uint32_t i = 0; i < pageSize; ++i)
            a[i] = static_cast<std::uint8_t>(rng.next());
        b = a;
        check(pageSize); // equal copies

        // Flip one byte at positions around every word/line boundary
        // in the first couple of lines, plus first/last of the page.
        std::uint32_t positions[] = {0,  1,  7,  8,  9,  15, 16, 17,
                                     31, 32, 33, 63, 64, 65,
                                     pageSize - 2, pageSize - 1};
        for (std::uint32_t pos : positions) {
            b = a;
            b[pos] = static_cast<std::uint8_t>(b[pos] + 1);
            check(pos + 1);
        }

        // Random flip position.
        std::uint32_t pos =
            static_cast<std::uint32_t>(rng.next() % pageSize);
        b = a;
        b[pos] ^= 0x80;
        check(pos + 1);
    }
}

TEST(ContentTree, InsertAndFind)
{
    PoolAccessor pool;
    ContentTree tree(pool);

    PageHandle a = pool.addBytes(10);
    PageHandle b = pool.addBytes(20);
    PageHandle c = pool.addBytes(30);

    EXPECT_NE(tree.insert(b), nullptr);
    EXPECT_NE(tree.insert(a), nullptr);
    EXPECT_NE(tree.insert(c), nullptr);
    EXPECT_EQ(tree.size(), 3u);
    EXPECT_TRUE(tree.validate());

    auto result = tree.search(pool.resolve(a));
    ASSERT_NE(result.match, nullptr);
    EXPECT_EQ(tree.handle(result.match), a);
}

TEST(ContentTree, DuplicateInsertReturnsNull)
{
    PoolAccessor pool;
    ContentTree tree(pool);
    PageHandle a = pool.addBytes(10);
    PageHandle twin = pool.addBytes(10);

    EXPECT_NE(tree.insert(a), nullptr);
    EXPECT_EQ(tree.insert(twin), nullptr);
    EXPECT_EQ(tree.size(), 1u);
}

TEST(ContentTree, SearchMissReportsInsertionPoint)
{
    PoolAccessor pool;
    ContentTree tree(pool);
    PageHandle a = pool.addBytes(10);
    PageHandle c = pool.addBytes(30);
    tree.insert(a);
    tree.insert(c);

    PageHandle b = pool.addBytes(20);
    auto result = tree.search(pool.resolve(b));
    EXPECT_EQ(result.match, nullptr);
    ASSERT_NE(result.parent, nullptr);

    tree.insertAt(result, b);
    EXPECT_EQ(tree.size(), 3u);
    EXPECT_TRUE(tree.validate());
    EXPECT_NE(tree.search(pool.resolve(b)).match, nullptr);
}

TEST(ContentTree, InOrderTraversalIsSortedByContent)
{
    PoolAccessor pool;
    ContentTree tree(pool);
    Rng rng(77);
    for (int i = 0; i < 60; ++i)
        tree.insert(pool.addPage(rng.next()));

    std::vector<PageHandle> order;
    tree.forEach([&](PageHandle h) { order.push_back(h); });
    ASSERT_EQ(order.size(), tree.size());
    for (std::size_t i = 1; i < order.size(); ++i) {
        PageCompare cmp = comparePages(pool.resolve(order[i - 1]),
                                       pool.resolve(order[i]));
        EXPECT_LT(cmp.sign, 0);
    }
}

TEST(ContentTree, RandomInsertEraseKeepsInvariants)
{
    PoolAccessor pool;
    ContentTree tree(pool);
    Rng rng(123);

    std::vector<ContentTree::Node *> nodes;
    for (int round = 0; round < 400; ++round) {
        bool do_insert = nodes.empty() || rng.chance(0.6);
        if (do_insert) {
            ContentTree::Node *node = tree.insert(pool.addPage(rng.next()));
            if (node)
                nodes.push_back(node);
        } else {
            std::size_t pick = rng.nextBounded(nodes.size());
            tree.erase(nodes[pick]);
            nodes.erase(nodes.begin() +
                        static_cast<std::ptrdiff_t>(pick));
        }
        if (round % 37 == 0) {
            ASSERT_TRUE(tree.validate()) << "round " << round;
        }
    }
    EXPECT_TRUE(tree.validate());
    EXPECT_EQ(tree.size(), nodes.size());
}

TEST(ContentTree, SearchPrunesStaleNodes)
{
    PoolAccessor pool;
    ContentTree tree(pool);
    PageHandle a = pool.addBytes(10);
    PageHandle b = pool.addBytes(20);
    PageHandle c = pool.addBytes(30);
    tree.insert(b); // root
    tree.insert(a);
    tree.insert(c);

    pool.invalidate(b);

    auto result = tree.search(pool.resolve(c));
    ASSERT_NE(result.match, nullptr);
    EXPECT_EQ(tree.handle(result.match), c);
    ASSERT_EQ(pool.released.size(), 1u);
    EXPECT_EQ(pool.released[0], b);
    EXPECT_EQ(tree.size(), 2u);
    EXPECT_TRUE(tree.validate());
}

TEST(ContentTree, CompareHookSeesEveryVisit)
{
    PoolAccessor pool;
    ContentTree tree(pool);
    for (int i = 0; i < 15; ++i)
        tree.insert(pool.addBytes(static_cast<std::uint8_t>(i * 16)));

    PageHandle probe = pool.addBytes(15 * 16);
    unsigned visits = 0;
    std::uint64_t bytes = 0;
    auto result = tree.search(
        pool.resolve(probe),
        [&](PageHandle, const PageCompare &cmp) {
            ++visits;
            bytes += cmp.bytesExamined;
        });
    EXPECT_EQ(result.match, nullptr);
    EXPECT_EQ(visits, result.nodesVisited);
    EXPECT_EQ(bytes, result.bytesCompared);
    EXPECT_GT(visits, 0u);
    // A red-black tree of 15 nodes has height at most
    // 2*log2(15 + 1) = 8.
    EXPECT_LE(visits, 8u);
}

TEST(ContentTree, ClearInvokesPruneForEveryNode)
{
    PoolAccessor pool;
    ContentTree tree(pool);
    for (int i = 0; i < 10; ++i)
        tree.insert(pool.addBytes(static_cast<std::uint8_t>(i)));

    EXPECT_EQ(pool.retained.size(), 10u);
    EXPECT_TRUE(pool.released.empty());
    tree.clear();
    EXPECT_EQ(pool.released.size(), 10u);
    EXPECT_TRUE(tree.empty());
    EXPECT_EQ(tree.root(), nullptr);
}

TEST(ContentTree, InsertReleasesStaleStableNodeItDrops)
{
    // A stable tree pins its frames. When both guest mappings of a
    // frame go away, the tree's pin is the frame's last reference; an
    // insert whose descent meets the stale node prunes it, and that
    // prune must drop the pin so the frame returns to the pool.
    PhysicalMemory mem(16);
    StableAccessor acc(mem);
    ContentTree tree(acc);

    auto shared_frame = [&](std::uint8_t value) {
        FrameId frame = mem.allocFrame(false);
        std::memset(mem.data(frame), value, pageSize);
        mem.addRef(frame); // two guest mappings, as after a merge
        return frame;
    };
    FrameId a = shared_frame(0x10);
    ASSERT_NE(tree.insert(frameHandle(a)), nullptr);
    EXPECT_EQ(mem.refCount(a), 3u);

    mem.decRef(a);
    mem.decRef(a);
    EXPECT_TRUE(mem.isAllocated(a));

    FrameId b = shared_frame(0x20);
    ASSERT_NE(tree.insert(frameHandle(b)), nullptr);
    EXPECT_FALSE(mem.isAllocated(a));
    EXPECT_EQ(tree.size(), 1u);
    EXPECT_EQ(mem.refCount(b), 3u);
}

TEST(ContentTree, InsertAtKnownPosition)
{
    // The PageForge driver learns positions from the hardware
    // traversal, not from a search of its own.
    PoolAccessor pool;
    ContentTree tree(pool);
    PageHandle b = pool.addBytes(20);
    ContentTree::Node *root = tree.insertAt(ContentTree::SearchResult{}, b);
    ASSERT_NE(root, nullptr);

    PageHandle a = pool.addBytes(10);
    tree.insertAt({.parent = root, .insertLeft = true}, a);
    EXPECT_EQ(tree.size(), 2u);
    EXPECT_TRUE(tree.validate());
    EXPECT_NE(tree.search(pool.resolve(a)).match, nullptr);
}

TEST(ContentTree, MatchesStdMapOrderingUnderChurn)
{
    // Differential test against std::map keyed by page bytes.
    PoolAccessor pool;
    ContentTree tree(pool);
    std::map<std::array<std::uint8_t, pageSize>, PageHandle> reference;
    Rng rng(321);

    for (int i = 0; i < 120; ++i) {
        PageHandle h = pool.addPage(rng.next());
        std::array<std::uint8_t, pageSize> key;
        std::memcpy(key.data(), pool.resolve(h), pageSize);
        if (reference.emplace(key, h).second) {
            EXPECT_NE(tree.insert(h), nullptr);
        }
    }

    ASSERT_EQ(tree.size(), reference.size());
    std::vector<PageHandle> tree_order;
    tree.forEach([&](PageHandle h) { tree_order.push_back(h); });
    std::size_t idx = 0;
    for (const auto &[key, handle] : reference)
        EXPECT_EQ(tree_order[idx++], handle);
}

} // namespace
} // namespace pageforge
